"""The text ``repr`` gives a float64, computed a pass of values at a time.

A :class:`Kernel` writes, for each value of a pass, the UTF-8 bytes of
``repr(float(value))`` right-aligned in a row of three little-endian
uint64 words, after bytes 0xFF (which no UTF-8 text holds), and returns
their lengths. On a little-endian machine, it computes them with
whole-array integer arithmetic for ``LEAST <= |x| < BOUND``, the
magnitudes that ``repr`` writes in fixed notation, and from a table for
the two zeros. ``repr`` writes every other value (subnormals, NaN, the
infinities, every ``e-XX`` and ``e+XX`` text, and all of them on a
big-endian machine), on those values only.

The digits are ``repr``'s: the shortest decimal that reads back as the
value, and of two such, the nearest, ties to even. They are found as
Schubfach (Giulietti 2020) finds them, with Ryu's (Adams 2018, PLDI)
interval. A value ``x = c * 2**q`` (``c`` the 53-bit significand) rounds
back from an interval of width ``2**q`` (``0.75 * 2**q`` at a power of
two), whose ends belong to it when ``c`` is even. In units of ``10**k``,
for the greatest ``k`` with ``10**k`` at most that width, the interval
spans 1 to 10 units: it holds at most one multiple of 10 units, which is
the shortest decimal when there is one, and otherwise the nearer of the
two integers around the value that lies inside. The value in those units
is ``c * G / 2**t`` (``G`` and ``t`` depend on the exponent alone; in
the range, ``k <= 0`` and ``G < 2**64``): a float64 product gives it to
within 21 of its floor, and ``c * G`` modulo ``2**64`` the exact floor
and the remainder past ``2**t`` (where ``t`` is at most 48), on which the
interval's ends and the rounding are decided.

Trailing zeros go four at a time, then up to three by a table of the
last four digits: a shift, then a product with the inverse of ``5**z``
modulo ``2**64``. In fixed notation, the digits (``10 * |x|`` for an
integer) plus ``9 * floor(|x|) * 10**f`` (``f`` digits after the point)
move the whole part one place up and leave a zero where the point goes;
their 24 digits, zero-padded, come from a table of every four digits,
and one table by the point's place, the sign and ``f`` turns that zero
to a point, the zero before the text to a minus sign and those before it
to 0xFF.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# The longest repr of a float64, such as '-2.2250738585072014e-308'.
WIDTH = 24

# The least and the bound of the magnitudes written without repr: those
# that repr writes in fixed notation.
LEAST, BOUND = 1e-4, 1e16

# Whether the uint64 words of a field hold its bytes in order.
_LITTLE = sys.byteorder == "little"

# The biased binary exponents of the range: 1e-4 is 1.6 * 2**-14, and every
# value under 1e16 is under 2**54.
_FIRST, _LAST = 1023 - 14, 1023 + 53

# uint64 operands: a 0-d array enters a ufunc fastest.
_1, _2, _5, _6, _10, _32, _52, _63, _MANTISSA, _HIDDEN, _1E4, _1E16 = (np.array(
    value, np.uint64) for value in (1, 2, 5, 6, 10, 32, 52, 63, 2**52 - 1, 1 << 52, 10**4, 10**16))
_QUADS = 10 ** np.arange(0, 17, 4, dtype=np.uint64)
_DIVISORS = _QUADS[1:, None]


def _exponent_table() -> np.ndarray:
    """A column per biased exponent, and 2048 on for a power of two, of:
    ``G``, the float64 bits of ``G / 2**(t + q)`` and ``t``; the upper end,
    whole units (less 1 where it is whole) and the remainder from which it
    is one more; the lower end, whole units and remainder plus 1; half a
    unit; ``-k`` and ``k + 19``, which is ``decpt + 3`` where the value has
    16 digits in units and one less where it has 17 (modulo ``2**64``: it
    is -1 at the least exponent, whose values from ``LEAST`` on have 17)."""
    columns = []
    for power in (0, 1):
        for biased in range(_FIRST, _LAST + 1):
            q = biased - 1075
            # The greatest k with 10**k at most the width, m * 2**(q - 2),
            # which is at most 2 (q <= 1); 2**(q - 2) is then unit / 2**t
            # units of 10**k.
            k = len(str((3 if power else 4) * 10**24 >> 2 - q)) - 25
            t = max(k - q + 2, 0)
            den, unit = 1 << t, 5**-k << max(q - 2 - k, 0)
            g = 4 * unit
            assert g < 1 << 64
            up_hi, up_lo = divmod(2 * unit, den)
            down_hi, down_lo = divmod((1 if power else 2) * unit, den)
            columns.append([g, np.float64(math.ldexp(g / den, -q)).view(np.uint64), t,
                            up_hi - (up_lo == 0), den - up_lo if up_lo else 0, down_hi,
                            down_lo + 1, max(den // 2, 1), -k, (k + 19) % 2**64])
    count, at = _LAST + 1 - _FIRST, np.arange(4096)
    index = np.clip(at & 2047, _FIRST, _LAST) - _FIRST + count * (at >> 11)
    return np.array(columns, np.uint64).T[:, index].copy()


_EXPONENTS = _exponent_table()

# By the last four digits, not all zeros: how many trailing zeros, and the
# inverse of 5 to that power modulo 2**64.
_TRAILING = sum(np.arange(10_000) % 10**z == 0 for z in (1, 2, 3, 4)) % 4
_TRAILING = np.array([_TRAILING, np.array([pow(5, -z, 2**64) for z in range(4)],
                                          np.uint64)[_TRAILING]], np.uint64)

# Each number below 10**4 as the little-endian uint64 of its four digits.
_FOUR_DIGITS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(
    np.uint8).view(np.uint32)[:, 0].astype(np.uint64)


def _marks() -> np.ndarray:
    """By ``(decpt + 3) * 64 + 32 * negative + f`` (``decpt`` the digits
    before the point, or less the zeros after it, which is -3 to 16 in
    fixed notation; ``f`` digits after the point): what turns the
    zero-padded digits into the text, a word at a time (the third, the
    second, and the first with the four zeros its digits leave out), the
    text's length, and ``9 * 10**f``."""
    index = np.arange(20 * 64)
    decpt, negative, point = index // 64 - 3, index >> 5 & 1, index & 31
    length = point + (point > 0) + np.maximum(decpt, 1) + negative
    at = np.arange(WIDTH)
    row = np.where(at < WIDTH - length[:, None], ord("0") ^ 0xFF, 0)
    row |= np.where(at == WIDTH - length[:, None], ord("0") ^ ord("-"), 0) * negative[:, None]
    row |= np.where(at == WIDTH - 1 - point[:, None], ord("0") ^ ord("."), 0) * (point[:, None] > 0)
    words = row.astype(np.uint8).view(np.uint64).T
    nines = np.where(point < 19, 9 * 10 ** np.minimum(point, 18), 0)
    return np.array([words[2], words[1], words[0] ^ _FOUR_DIGITS[0], length, nines], np.uint64)


_MARKS = _marks()

# The words of 0.0 and of -0.0, by the sign bit.
_ZEROS = np.frombuffer(b"".join(text.rjust(WIDTH, b"\xff") for text in (b"0.0", b"-0.0")),
                       np.uint64).reshape(2, 3)

# Values written at a time, a save's block of rows: passes of 2**12 values
# took 0.75 the time a value of passes of 2**11 (2**13 took 0.9 of it, with
# temporaries of 2.4 MB).
_PASS = 1 << 12
_ROWS, _FLAGS = 36, 4


class Kernel:
    """Writes the text of up to ``_PASS`` values at a time, computing in
    temporaries allocated once: ``_ROWS`` of uint64 and ``_FLAGS`` of bool,
    each a row of the pass's length, whose views are made once per length."""

    def __init__(self):
        self._work = np.empty(_ROWS * _PASS, np.uint64)
        self._flags = np.empty(_FLAGS * _PASS, bool)
        self._size = self._views = None

    def _rows(self, n: int) -> tuple:
        if n != self._size:
            work = self._work[:_ROWS * n].reshape(_ROWS, n)
            self._size, self._views = n, (work, list(work), list(work.view(np.int64)),
                                          list(self._flags[:_FLAGS * n].reshape(_FLAGS, n)))
        return self._views

    def __call__(self, values: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Writes the text of each of ``values`` into its row of ``words``
        (three uint64 each) and returns the lengths (int64)."""
        work, w, signed, flags = self._rows(values.size)
        bits, x, index, c = w[:4]
        mag = signed[0].view(np.float64)
        np.absolute(values, out=mag)
        others = None
        if not (_LITTLE and LEAST <= np.minimum.reduce(mag) and np.maximum.reduce(mag) < BOUND):
            others = np.flatnonzero(~((mag >= LEAST) & (mag < BOUND) & _LITTLE))
            mag[others] = 1.0
        np.right_shift(bits, _52, out=index)
        np.bitwise_and(bits, _MANTISSA, out=c)
        powers = None if c.all() else np.flatnonzero(c == 0)
        if powers is not None:
            index[powers] += np.uint64(2048)
        _EXPONENTS.take(signed[2], axis=1, out=work[4:14], mode="clip")
        factor, scale, shift, up_hi, up_at, down_hi, down_lo, half, point, decpt3 = w[4:14]
        c |= _HIDDEN
        # The value in units: a float64 estimate of its floor vr, and
        # c * factor modulo 2**64 less vr's share, whose high bits are the
        # estimate's error and whose low bits are the remainder.
        vr, rem = w[14:16]
        np.multiply(mag, signed[5].view(np.float64), out=signed[1].view(np.float64))
        np.copyto(signed[14], signed[1].view(np.float64), casting="unsafe")
        np.multiply(c, factor, out=rem)
        np.left_shift(vr, shift, out=x)
        rem -= x
        np.right_shift(signed[15], signed[6], out=signed[1])
        vr += x
        x <<= shift
        rem -= x
        # The interval holds the integers a with vr - below < a <= vr + above.
        odd, below, above = w[16:19]
        np.bitwise_and(c, _1, out=odd)
        down_lo -= odd
        np.less(rem, down_lo, out=flags[0])
        np.add(down_hi, flags[0], out=below)
        up_at += odd
        np.greater_equal(rem, up_at, out=flags[0])
        np.add(up_hi, flags[0], out=above)
        # The multiple of 10 inside, else the nearer of vr and vr + 1 inside.
        tens, last, full = w[19:22]
        np.floor_divide(vr, _10, out=tens)
        tens *= _10
        np.subtract(vr, tens, out=last)
        level, upper, up, other = flags
        np.less(last, below, out=level)
        above += last
        np.greater_equal(above, _10, out=upper)
        level |= upper
        np.bitwise_and(vr, _1, out=x)
        x += rem
        np.greater(x, half, out=up)
        if powers is not None:  # where the lower end is nearer: vr may lie outside
            up[powers] |= below[powers] == 0
        np.add(last, up, out=x)
        np.logical_not(level, out=other)
        x *= other
        np.multiply(upper, _10, out=last)
        x += last
        np.add(tens, x, out=full)
        np.greater_equal(full, _1E16, out=other)
        decpt3 += other
        # The trailing zeros go, four at a time while the last four are
        # zeros, then up to three by a table of the last four.
        zeros, inverse, digits, negative = w[22:26]
        np.floor_divide(full, _1E4, out=x)
        x *= _1E4
        np.subtract(full, x, out=x)
        if not x.all():
            rows = np.flatnonzero(x == 0)
            part = full[rows]
            quads = 1 + (part % _QUADS[2] == 0) + (part % _QUADS[3] == 0) + (part % _QUADS[4] == 0)
            full[rows] = part = part // _QUADS[quads]
            x[rows] = part % _1E4
            point[rows] -= quads.astype(np.uint64) << _2
        _TRAILING.take(signed[1], axis=1, out=work[22:24], mode="clip")
        np.right_shift(full, zeros, out=digits)
        digits *= inverse
        point -= zeros
        if np.minimum.reduce(signed[12]) < 1:  # an integer in fixed notation: |x| and .0
            rows = np.flatnonzero(signed[12] < 1)
            digits[rows] = mag[rows].astype(np.uint64) * _10
            point[rows] = 1
        np.right_shift(values.view(np.uint64), _63, out=negative)
        negative <<= _5
        np.left_shift(decpt3, _6, out=index)
        index |= negative
        index |= point
        _MARKS.take(signed[2], axis=1, out=work[26:31], mode="clip")
        lengths, nines, number = w[29:32]
        np.copyto(signed[31], mag, casting="unsafe")
        number *= nines
        number += digits
        _place(work[31:36], work[4:9], work[26:29], words)
        if others is not None:
            zero = (values[others] == 0) & _LITTLE
            at, others = others[zero], others[~zero]
            sign = np.signbit(values[at]).view(np.int8)
            words[at], lengths[at] = _ZEROS[sign], 3 + sign
            padded = [repr(value).rjust(WIDTH, "\xff") for value in values[others].tolist()]
            lengths[others] = [WIDTH - text.count("\xff") for text in padded]
            words[others] = np.frombuffer("".join(padded).encode("latin-1"), "u8").reshape(-1, 3)
        return signed[29]


def _place(numbers: np.ndarray, groups: np.ndarray, marks: np.ndarray, words: np.ndarray) -> None:
    """Writes the 24 digits of ``numbers[0]``, zero-padded, each word XOR'd
    with its row of ``marks`` (the third word's first), into the rows of
    ``words``; the rest of ``numbers`` and ``groups`` (5 rows) are temporaries."""
    np.floor_divide(numbers[0], _DIVISORS, out=numbers[1:])
    np.multiply(numbers[1:], _1E4, out=groups[:4])
    np.subtract(numbers[:4], groups[:4], out=numbers[:4])
    _FOUR_DIGITS.take(numbers.view(np.int64), out=groups, mode="clip")
    np.left_shift(groups[::2], _32, out=groups[::2])
    np.bitwise_or(groups[:3:2], groups[1:4:2], out=groups[:3:2])
    for word in range(3):
        np.bitwise_xor(groups[4 - 2 * word], marks[2 - word], out=words[:, word])

