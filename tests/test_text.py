"""The float text kernel: ``lafte._text.Kernel`` writes the bytes of ``repr``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lafte import _text

SRC = Path(__file__).resolve().parent.parent / "src"


def _assert_reprs(values):
    """The kernel's bytes of each of ``values``, written a pass at a time,
    are those of ``repr``: all of them joined, and each one's length."""
    values = np.ascontiguousarray(values, dtype=float)
    words = np.empty((values.size, 3), np.uint64)
    lengths = np.empty(values.size, np.int64)
    kernel = _text.Kernel()
    for start in range(0, values.size, _text._PASS):
        part = slice(start, start + _text._PASS)
        lengths[part] = kernel(values[part], words[part])
    slots = words.view(np.uint8)
    texts = list(map(repr, values.tolist()))
    kept = np.arange(_text.WIDTH) >= _text.WIDTH - lengths[:, None]
    if (slots[kept].tobytes() != "".join(texts).encode()
            or lengths.tolist() != list(map(len, texts))):
        first = next(i for i, text in enumerate(texts)
                     if slots[i, _text.WIDTH - lengths[i]:].tobytes() != text.encode())
        raise AssertionError(f"{values[first].hex()}: {texts[first]!r} written as "
                             f"{slots[first, _text.WIDTH - lengths[first]:].tobytes()!r}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_floats_are_written_as_repr_writes_them(values):
    # NaN, both infinities, both zeros and subnormals included.
    _assert_reprs(values)


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def test_a_seeded_sweep_is_written_as_repr_writes_it():
    rng = np.random.default_rng(20261019)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-324, 309)])
    switches = [1e-4, 1e-5, 1e16, 1e17, _text.LEAST, _text.BOUND]
    integers = [2.0**53 - 1, 2.0**53, 2.0**53 + 1, 2.0**53 + 2]
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(float)
    # Random significands at every exponent of the exact range and just past it.
    exponents = rng.integers(_text._FIRST - 2, _text._LAST + 3, 200_000).astype(np.uint64)
    significands = rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
    in_range = ((exponents << np.uint64(52)) | significands).view(float)
    # Short decimals, whose digit removal runs longest.
    short = np.round(rng.standard_normal(100_000) * 10.0 ** rng.integers(-9, 17, 100_000), 3)
    for values in (_neighbours(powers_of_two), _neighbours(powers_of_ten),
                   _neighbours(switches), integers, in_range, short):
        values = np.asarray(values, dtype=float)
        _assert_reprs(np.concatenate([values, -values]))
    _assert_reprs(bits)


def test_the_exact_range_needs_no_repr(monkeypatch):
    calls = []
    monkeypatch.setattr(_text, "repr", lambda value: calls.append(value) or repr(value),
                        raising=False)
    inside = np.nextafter([_text.LEAST, _text.BOUND, -_text.LEAST, -_text.BOUND],
                          [1.0, 0.0, -1.0, 0.0])
    values = np.concatenate([inside, [_text.LEAST, -_text.LEAST, 1.0, -2.5, 0.5, -3.75, 1.0,
                                      -2.0, 1200.0, 123.456, 1e15, 2.0**53 + 2, 0.0, -0.0]])
    _assert_reprs(values)
    assert calls == []
    # Every e-XX and e+XX text.
    outside = [_text.BOUND, 1e-11, 1e-5, 1e17, -2.5e-7, 4e-9, 2.5e17, -1e16, 2.0**56,
               9.99e17, 12345678901234567.0]
    _assert_reprs(outside + [1.0])
    assert calls == outside


def test_cli_import_leaves_the_kernel_out():
    # Only a command that writes a table compiles the kernel.
    code = "import sys, lafte.cli; sys.exit('lafte._text' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0


def test_a_big_endian_machine_writes_every_value_with_repr(monkeypatch):
    # The fields are built as little-endian words; elsewhere repr writes them all.
    calls = []
    monkeypatch.setattr(_text, "repr", lambda value: calls.append(value) or repr(value),
                        raising=False)
    monkeypatch.setattr(_text, "_LITTLE", False)
    values = [1.0, -2.5, 1e-5, 1e17, 0.1, 123456.789, 0.0, 1e300]
    _assert_reprs(values)
    assert calls == values


def test_the_kernel_carries_nothing_between_passes_or_calls():
    # Lengths that end a pass one value short, on its last value and one
    # past it, four passes with a short last one, then a shorter call: each
    # mixes fixed notation inside the exact range and values that repr
    # writes, e-XX and e+XX texts among them. One kernel also writes them all, in turn, into the
    # words of a wider block, as a save does.
    rng = np.random.default_rng(27)
    kinds = [0.5, -3.75, 123.456, -0.001, 1e-5, -2.5e17, 7e-10, 0.0, 1e-11, float("nan")]
    kernel = _text.Kernel()
    for size in (_text._PASS - 1, _text._PASS, _text._PASS + 1, 3 * _text._PASS + 7, 100):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-9, 17, size)
        at = np.linspace(0, size - 1, 4 * len(kinds)).astype(int)
        values[at] = np.resize(kinds, at.size)
        _assert_reprs(values)
        block = np.zeros((_text._PASS, 5), np.uint64)
        for start in range(0, size, _text._PASS):
            part = values[start:start + _text._PASS]
            lengths = kernel(part, block[:part.size, 1:4])
            texts = list(map(repr, part.tolist()))
            assert lengths.tolist() == list(map(len, texts))
            assert [bytes(row).lstrip(b"\xff") for row in block[:part.size, 1:4].view(np.uint8)] \
                == [text.encode() for text in texts]

