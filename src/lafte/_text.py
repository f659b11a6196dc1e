"""The text ``repr`` gives a float64, computed a block of values at a time.

:func:`reprs` returns, for each value of a block, the UTF-8 bytes of
``repr(float(value))``, right-aligned in a row of ``WIDTH`` bytes, and their
length. For ``LEAST <= |x| < BOUND`` it computes them with whole-array
integer arithmetic. Every other value (zero, ``-0.0``, subnormals, NaN, the
infinities and anything outside that range) is written by ``repr`` itself,
on those values only. The fields are built as little-endian words, so on a
big-endian machine ``repr`` writes every value.

The digits are those of Ryu (Adams 2018, PLDI), which are ``repr``'s: the
shortest decimal that reads back as the value, and of two such, the nearest,
ties to even. A value ``x = mv * 2**e2`` (``mv`` four times the significand)
has the rounding interval from ``mm * 2**e2`` to ``mp * 2**e2``, where
``mp = mv + 2`` and ``mm = mv - 2``, or ``mv - 1`` at a power of two; its
ends belong to it when the significand is even. Each of the three is
divided by ``10**e10``, the power Ryu picks from ``e2``, in whose units the
interval spans under 400. In the range above ``e10 = -s <= 0``, so the
quotient is ``m * 5**s`` shifted right by ``t`` bits, where ``s`` and ``t``
depend on ``e2`` alone. The product of the value is computed exactly
as two uint64 limbs; its floor and remainder past ``2**t`` give the floors
of the two ends, and whether each of the three is exact, with no further
product.

Ryu's digit removal then runs on the three floors as a search over whole
arrays: the digits removed are the most ``k`` for which the interval still
holds a multiple of ``10**k``, which its width bounds from below, and the
search goes on only for the values that pass. The last removed digit, and
whether the ones after it (and the lower end's removed digits) were all 0,
decide the rounding, half to even. Where the lower end is exact and belongs
to the interval, its own trailing zeros are removed too, one at a time.

The digits are written in fixed notation when the decimal point ``decpt``
(the value is ``0.d1d2... * 10**decpt``) has ``-4 < decpt <= 16``, and as
``d.ddde-XX`` or ``d.ddde+XX`` otherwise, as ``repr`` writes them. A
field is built as three little-endian uint64 words of eight bytes: of the
digits, zero-padded to 24, those left of the point move one byte towards
the front, by masks and shifts, and the point, the sign and an exponent
are put in.
"""

from __future__ import annotations

import sys

import numpy as np

# The longest repr of a float64, such as '-2.2250738585072014e-308'.
WIDTH = 24

# The least and the bound of the magnitudes written without repr.
LEAST, BOUND = 1e-10, 1e18

# Whether the uint64 words of a field hold its bytes in order.
_LITTLE = sys.byteorder == "little"

_U = np.uint64

# The biased binary exponents of the range: 1e-10 is 1.7 * 2**-34, and every
# value under 1e18 is under 2**60.
_FIRST, _LAST = 1023 - 34, 1023 + 59


def _exponent_table() -> np.ndarray:
    """One column per biased exponent ``_FIRST.._LAST`` of a normal value,
    and one row for each of: the three 32-bit limbs of ``f = 5**s * 2**left``
    (``left`` is ``e2`` when it is positive), the shift ``t``, the parts
    above and below bit ``t`` of ``2*f`` and of ``f``, and ``e10``."""
    columns = []
    for biased in range(_FIRST, _LAST + 1):
        e2 = biased - 1023 - 52 - 2
        if e2 >= 0:  # an integer: no shift, and e10 = 0 (Ryu's q is 0 up to e2 = 6)
            factor, shift, e10 = 1 << e2, 0, 0
        else:
            k = -e2
            q = ((k * 732923) >> 20) - (k > 1)  # floor(k * log10(5)), less 1 past k = 1
            factor, shift, e10 = 5 ** (k - q), q, q - k
        low = (1 << shift) - 1
        # The product of a 55-bit mv and f fits two limbs, and its floor one.
        assert factor < 1 << 73 and shift < 64 and (factor << 55) >> shift < 1 << 64
        columns.append([factor & 0xFFFFFFFF, factor >> 32 & 0xFFFFFFFF, factor >> 64, shift,
                        2 * factor >> shift, 2 * factor & low, factor >> shift, factor & low,
                        e10 % (1 << 64)])
    return np.array(columns, dtype=np.uint64).T.copy()


_EXPONENTS = _exponent_table()

# 10**0 .. 10**19.
_POWERS = 10 ** np.arange(20, dtype=np.uint64)

# Each number below 10**4 as the little-endian uint64 of its four digits.
_FOUR_DIGITS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(
    np.uint8).view(np.uint32)[:, 0].astype(np.uint64)


def _byte_words(byte: int, places) -> np.ndarray:
    """A row per word of a field, a column per place in ``places``: ``byte``
    at that byte of the field (0 to 23), none past it."""
    words = np.zeros((3, len(places)), np.uint64)
    for i, place in enumerate(places):
        if 0 <= place < WIDTH:
            words[place // 8, i] = byte << 8 * (place % 8)
    return words


# By the digits after the point, 1..23, or 24 for no point: the bytes that
# stay (the last ones), and the point.
_KEEP = np.array([[sum(0xFF << 8 * b for b in range(8) if 8 * j + b >= WIDTH - point)
                   for point in range(WIDTH + 1)] for j in range(3)], np.uint64)
_POINT = _byte_words(ord("."), [WIDTH - 1 - point for point in range(WIDTH + 1)])
# By the byte of the sign, or 24 for none: what turns the zero there to a minus.
_MINUS = _byte_words(ord("0") ^ ord("-"), range(WIDTH + 1))
# 'e-10' .. 'e+17' as the little-endian uint64 of the four bytes, by exponent + 10.
_EXPONENT_TEXT = np.frombuffer(b"".join(f"e{e:+03d}".encode() for e in range(-10, 18)),
                               np.uint32).astype(np.uint64)


def reprs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``repr`` of each float64 of ``values``, right-aligned in
    an ``(n, WIDTH)`` uint8 array, and their lengths (uint8). Exact for
    ``LEAST <= |x| < BOUND`` on a little-endian machine; ``repr`` writes
    the other values."""
    values = np.ascontiguousarray(values, dtype=float)
    words = np.empty((values.size, 3), np.uint64)
    lengths = np.empty(values.size, np.uint8)
    for start in range(0, values.size, _PASS):
        part = slice(start, start + _PASS)
        lengths[part] = _texts(values[part], words[part])
    return words.view(np.uint8), lengths


# Values computed at a time: each temporary of a pass takes 32 KiB, so that
# they stay in the CPU's caches, and fewer pages go back to the system when
# they are freed, to be faulted in again by the next pass (passes of 2**14
# values took 0.1 minor faults a value). Passes of 2**12 values were 1.5 to
# 1.7 times as fast as passes of 2**14 on a 2-vCPU machine.
_PASS = 1 << 12


def _texts(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Writes the repr of each value into the rows of ``words``, three
    uint64 each, and returns the lengths: the kernel's text, computed for
    1.0 in place of each value outside the exact range, and then ``repr``'s
    over those."""
    magnitude = np.abs(values)
    exact = (magnitude >= LEAST) & (magnitude < BOUND) & _LITTLE
    rows = np.flatnonzero(~exact)
    if not rows.size:
        return _shortest(values, words)
    lengths = _shortest(np.where(exact, values, 1.0), words)
    texts = list(map(repr, values[rows].tolist()))
    lengths[rows] = sizes = np.fromiter(map(len, texts), np.int64, rows.size)
    ends = np.cumsum(sizes)
    # Byte b of the texts, one after another, goes to the row whose text ends at ends[row].
    at = np.repeat(rows * WIDTH + WIDTH - ends, sizes) + np.arange(ends[-1])
    words.view(np.uint8).reshape(-1)[at] = np.frombuffer("".join(texts).encode(), np.uint8)
    return lengths


def _shortest(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Writes the repr of each value, all in the exact range, into the rows
    of ``words`` (three uint64 each) and returns the lengths."""
    bits = values.view(np.uint64)
    fraction_bits = bits & _U((1 << 52) - 1)
    constants = np.take(_EXPONENTS, ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp) - _FIRST,
                        axis=1)
    f0, f1, f2, shift, up_hi, up_lo, one_hi, one_lo, e10 = constants
    even = (fraction_bits & _U(1)) == 0
    # mv * f in limbs of 32 bits, then its floor and remainder past 2**shift.
    mv = (fraction_bits | _U(1 << 52)) << _U(2)
    m0, m1 = mv & _U(0xFFFFFFFF), mv >> _U(32)
    p = m0 * f0
    r0, carry = p & _U(0xFFFFFFFF), p >> _U(32)
    p, q = m0 * f1, m1 * f0
    middle = (p & _U(0xFFFFFFFF)) + (q & _U(0xFFFFFFFF)) + carry
    low = (middle << _U(32)) | r0
    carry = (p >> _U(32)) + (q >> _U(32)) + (middle >> _U(32))
    high = m0 * f2 + m1 * f1 + carry + ((m1 * f2) << _U(32))
    vr = (low >> shift) | ((high << _U(1)) << (_U(63) - shift))
    remainder = low & ((_U(1) << shift) - _U(1))
    # The upper end, (mv + 2) * f, and the lower, (mv - 2) * f or, at a
    # power of two, (mv - 1) * f.
    up = remainder + up_lo
    vp = vr + up_hi + (up >> shift)
    vp -= ~even & (up == (up >> shift) << shift)  # an excluded end that is exact
    power = fraction_bits == 0
    down_hi = np.where(power, one_hi, up_hi)
    down_lo = np.where(power, one_lo, up_lo)
    vm = vr - down_hi - (remainder < down_lo)
    vm_zero = even & (remainder == down_lo)
    output, removed = _remove_digits(vr, vp, vm, remainder == 0, vm_zero, even)
    return _format(output, e10.view(np.int64) + removed, values < 0, words)


def _remove_digits(vr, vp, vm, vr_zero, vm_zero, even):
    """Ryu's digit removal on the floors of the value and of its interval's
    ends, and whether each is exact (``vm_zero`` only where the lower end
    belongs to the interval): the digits of the value to write and how many
    were removed."""
    width = vp - vm
    # k digits go while (vm, vp] holds a multiple of 10**k: surely while
    # 10**k <= width, then while vp % 10**k < width.
    removed = (width >= _U(10)).astype(np.int64) + (width >= _U(100)) + (width >= _U(1000))
    rows = np.flatnonzero(vp % _POWERS[removed + 1] < width)
    while rows.size:
        removed[rows] += 1
        more = vp[rows] % _POWERS[removed[rows] + 1] < width[rows]
        rows = rows[more]
    power = _POWERS[removed]
    digits, lower = vr // power, vm // power
    vm_zero &= vm == lower * power
    rest = vr - digits * power
    power = _POWERS[np.maximum(removed - 1, 0)]
    last = rest // power
    vr_zero &= rest == last * power
    # An exact lower end that belongs to the interval: its trailing zeros go too.
    rows = np.flatnonzero(vm_zero)
    while rows.size:
        m = lower[rows] // _U(10)
        more = lower[rows] == m * _U(10)
        rows, m = rows[more], m[more]
        r = digits[rows]
        vr_zero[rows] &= last[rows] == 0
        last[rows] = r % _U(10)
        digits[rows], lower[rows] = r // _U(10), m
        removed[rows] += 1
    # Round half to even when every removed digit after a 5 is 0.
    last[vr_zero & (last == 5) & ((digits & _U(1)) == 0)] = 4
    up = ((digits == lower) & (~even | ~vm_zero)) | (last >= 5)
    return digits + up, removed


def _format(output, exponent, negative, words) -> np.ndarray:
    """Writes ``output * 10**exponent`` (negated where ``negative``) as repr
    does into the rows of ``words``; returns the lengths."""
    digits = np.searchsorted(_POWERS, output, side="right")
    decpt = exponent + digits
    # Every value in fixed notation: the digits, zeros to the point, and at
    # least one digit on each side.
    fraction = np.maximum(digits - decpt, 1)
    lengths = _place(output * _POWERS[fraction - digits + decpt], fraction,
                     np.maximum(decpt, 1), negative, words)
    # Over those repr writes as d.ddd (no point after a lone digit) and
    # e-XX or e+XX, four bytes on.
    rows = np.flatnonzero((decpt <= -4) | (decpt > 16))
    if rows.size:
        part = np.empty((rows.size, 3), np.uint64)
        lengths[rows] = _place(output[rows], digits[rows] - 1, 1, negative[rows], part) + 4
        suffix = _EXPONENT_TEXT[decpt[rows] - 1 + 10]
        words[rows, 0] = (part[:, 0] >> _U(32)) | (part[:, 1] << _U(32))
        words[rows, 1] = (part[:, 1] >> _U(32)) | (part[:, 2] << _U(32))
        words[rows, 2] = (part[:, 2] >> _U(32)) | (suffix << _U(32))
    return lengths


def _place(number, fraction, whole, negative, words) -> np.ndarray:
    """Writes the decimal digits of each ``number`` (below ``10**17``), the
    last ``fraction`` after a point (none when 0) and ``whole`` before it,
    with zeros ahead as needed and a minus sign where ``negative``,
    right-aligned in the rows of ``words``; returns the lengths. A row past
    those bounds, which its caller writes over, gets bytes of no meaning."""
    # The number's digits, zero-padded to 24, eight to a word.
    text = []
    for _ in range(2):
        quotient = number // _U(10**8)
        eight = number - quotient * _U(10**8)
        four = eight // _U(10**4)
        text.append(_FOUR_DIGITS[four] | (_FOUR_DIGITS[eight - four * _U(10**4)] << _U(32)))
        number = quotient
    text.append(_FOUR_DIGITS[0] | (_FOUR_DIGITS[number] << _U(32)))
    text.reverse()
    first, middle, last = text
    # The bytes left of the point move one byte towards the front.
    point = np.where(fraction > 0, fraction, WIDTH)
    keep = np.take(_KEEP, point, axis=1, mode="clip")
    lengths = fraction + (fraction > 0) + whole
    marks = np.take(_POINT, point, axis=1, mode="clip") | np.take(_MINUS, np.where(
        negative, WIDTH - 1 - lengths, WIDTH), axis=1, mode="clip")
    moved = [word & ~mask for word, mask in zip(text, keep)]
    # The point goes to a byte that the move left empty, the sign to a zero.
    words[:, 0] = ((moved[0] >> _U(8)) | (moved[1] << _U(56)) | (first & keep[0])) ^ marks[0]
    words[:, 1] = ((moved[1] >> _U(8)) | (moved[2] << _U(56)) | (middle & keep[1])) ^ marks[1]
    words[:, 2] = ((moved[2] >> _U(8)) | (last & keep[2])) ^ marks[2]
    return lengths + negative
