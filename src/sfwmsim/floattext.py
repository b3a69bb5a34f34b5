"""The ``repr`` text of float64 values, formatted a block at a time.

``repr`` writes the shortest decimal that reads back to the same double, and
of those the closest to it, ties to an even last digit. ``repr_rows`` gives
those bytes for a whole vector without a Python call per value. Its digits
come from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020), every step of which is 64-bit integer arithmetic that numpy runs over
a block:

1. Digits. A normal double is v = c 2^q with 2^52 <= c < 2^53. Its rounding
   interval runs halfway to each neighbour: (c -+ 1/2) 2^q, but c - 1/4 below
   a power of two, where the spacing below halves. With 10^k <= 2^q < 10^(k+1)
   (3/4 2^q for the asymmetric interval), three round-to-odd products of a
   126-bit power of ten by 4c 2^h and by the interval ends give v and the ends
   in units of 10^k / 4. The interval then holds at most one multiple of
   10^(k+1), the shortest decimal if it does. Otherwise the candidates are
   s 10^k and (s + 1) 10^k, s = floor(v / 10^k): the one inside, or the
   closer if both are, the even one on a tie. An end belongs to the interval
   when c is even, as round-half-even reading gives it to v.
2. Layout. ``repr`` writes 0.0001 but 1e-05, and 9999999999999998.0 but
   1e+16: the exponent form when the decimal point position ``decpt`` (the
   value is 0.d1d2... 10^decpt) is <= -4 or > 16, with a sign and at least
   two exponent digits, and ``.0`` after an integral value. Each character
   has a fixed byte in a 48-byte row of six words, NUL where it is absent:
   the sign, "0." and up to three zeros, the 17 digits each followed by a
   slot for the point, and the exponent. Table lookups fill the words: the
   sign, prefix and first digit; each group of four digits, cut after the
   last one written; the exponent. One scatter writes the point.
3. Zeros come from two fixed rows; subnormals and non-finite values take
   ``repr`` one at a time.

Dropping a row's NULs gives the value's ``repr``. Every integer operand is an
explicit ``np.uint64`` or ``np.int64``, so no result depends on how numpy
promotes Python integers.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

WIDTH = 48  # bytes per row
BLOCK = 8192  # values per pass: enough to amortize numpy's per-call cost, few
# enough that the temporaries, about 210 bytes a value, stay in cache

_U, _I = np.uint64, np.int64
_M32, _M63 = _U(2 ** 32 - 1), _U(2 ** 63 - 1)
_E_MIN, _E_MAX = -292, 324  # the powers of ten 10^-k that normal doubles need
_TEN16 = _U(10 ** 16)


def _floor_log10_pow2(q, three_quarters):
    """floor(log10(2^q)), or of 3/4 2^q where ``three_quarters``, for
    |q| <= 1100 (the multiply-shift forms of Giulietti's paper)."""
    return (q * _I(661_971_961_083) - three_quarters * _I(274_743_187_321)) >> _I(41)


def _floor_log2_pow10(e):
    """floor(log2(10^e)) for |e| <= 1100."""
    return (e * _I(913_124_641_741)) >> _I(38)


def _power_of_ten(e: int) -> int:
    """g = floor(10^e 2^(125 - floor(log2 10^e))) + 1, so 2^125 < g < 2^126."""
    shift = 125 - ((10 ** e).bit_length() - 1 if e >= 0 else -(10 ** -e).bit_length())
    if e < 0:
        return (1 << shift) // 10 ** -e + 1
    return (10 ** e << shift if shift >= 0 else 10 ** e >> -shift) + 1


class _Tables(NamedTuple):
    k: np.ndarray  # the decimal exponent k, by 2 * biased exponent + asymmetric
    shift: np.ndarray  # h, likewise
    powers: list  # the limbs of g for 10^-k, likewise
    head: np.ndarray  # word 0, by (sign, "0.000" prefix length, first digit)
    quads: np.ndarray  # words 1-4, by (digits written, 4-digit group)
    kept: list  # per group, the offset in quads for each count of digits written
    last_digit: list  # per group, the digit count up to its last nonzero digit
    tails: np.ndarray  # word 5: none, then e-400 .. e+400
    zeros: np.ndarray  # the rows of 0.0 and -0.0


@functools.cache
def _tables() -> _Tables:
    """The tables, built on first use so that importing the package stays
    cheap."""
    gs = [_power_of_ten(e) for e in range(_E_MIN, _E_MAX + 1)]
    g1 = np.array([g >> 63 for g in gs], dtype=np.uint64)
    g0 = np.array([g & (2 ** 63 - 1) for g in gs], dtype=np.uint64)
    # the exponents of zeros, subnormals and non-finite values get their
    # neighbours' entries
    q = np.clip(np.arange(4096) // 2, 1, 2046).astype(np.int64) - _I(1075)
    k = _floor_log10_pow2(q, np.arange(4096, dtype=np.int64) % _I(2))
    shift = (q + _floor_log2_pow10(-k) + _I(2)).astype(np.uint64)
    e = (-k - _I(_E_MIN)).astype(np.intp)
    powers = [p[e] for p in (g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32, g1)]

    group = np.arange(10_000)
    chars = np.stack([group // 10 ** i % 10 for i in (3, 2, 1, 0)], axis=1) + ord("0")
    quads = np.zeros((5, 10_000, 8), dtype=np.uint8)  # digit, point slot, ...
    for count in range(5):
        quads[count, :, 0:2 * count:2] = chars[:, :count]
    kept = [np.clip(np.arange(18) - 1 - 4 * j, 0, 4) * 10_000 for j in range(4)]
    trailing = np.zeros(10_000, dtype=np.intp)  # trailing zero digits of a group
    for i in (1, 2, 3, 4):
        trailing[group % 10 ** i == 0] = i
    # 1 for a zero group, the neutral count
    last_digit = [np.where(group > 0, 4 * j + 5 - trailing, 1).astype(np.int8)
                  for j in range(4)]

    head = np.zeros((2, 5, 10, 8), dtype=np.uint8)
    head[1, :, :, 0] = ord("-")
    for count in range(4):
        prefix = np.frombuffer(b"0." + b"0" * count, dtype=np.uint8)
        head[:, count + 1, :, 1:3 + count] = prefix
    head[:, :, :, 6] = np.arange(10) + ord("0")

    tails = np.zeros((802, 8), dtype=np.uint8)
    for i, x in enumerate(range(-400, 401), start=1):
        text = f"e{'-' if x < 0 else '+'}{abs(x):02d}".encode()
        tails[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    zeros = np.zeros((2, WIDTH), dtype=np.uint8)
    zeros[0, :3] = np.frombuffer(b"0.0", dtype=np.uint8)
    zeros[1, :4] = np.frombuffer(b"-0.0", dtype=np.uint8)
    return _Tables(k, shift, powers, *(a.view(np.uint64).ravel() for a in (head, quads)),
                   kept, last_digit, tails.view(np.uint64).ravel(), zeros)


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of the product of a and b, given as 32-bit limbs."""
    low, cross1, cross2 = a0 * b0, a1 * b0, a0 * b1
    mid = (low >> _U(32)) + (cross1 & _M32) + (cross2 & _M32)
    return a1 * b1 + (cross1 >> _U(32)) + (cross2 >> _U(32)) + (mid >> _U(32))


def _round_to_odd(g, cp):
    """floor(g cp / 2^127), with its lowest bit set when the quotient is not
    exact, for the 126-bit g = g1 2^63 + g0 given by its limbs."""
    g1h, g1l, g0h, g0l, g1 = g
    c1, c0 = cp >> _U(32), cp & _M32
    x1 = _mulhi(g0h, g0l, c1, c0)
    y1 = _mulhi(g1h, g1l, c1, c0)
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(f, k) with f 10^k the shortest decimal that reads back to each
    normal double ``bits``; 10^15 < f < 10^17."""
    tables = _tables()
    t = bits & _U(2 ** 52 - 1)
    c = t | _U(2 ** 52)
    asymmetric = (t == _U(0)).astype(np.uint64)
    index = (((bits >> _U(51)) & _U(0xFFE)) | asymmetric).astype(np.intp)
    h = tables.shift[index]
    g = [p[index] for p in tables.powers]

    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U(2) + asymmetric) << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    odd = c & _U(1)  # an odd c leaves both interval ends out
    lower, upper = vbl + odd, vbr - odd

    s = vb >> _U(2)
    sp = s // _U(10) * _U(10)  # the multiples of 10^(k+1) around v
    up_in, wp_in = lower <= sp << _U(2), (sp + _U(10)) << _U(2) <= upper
    u_in, w_in = lower <= s << _U(2), (s + _U(1)) << _U(2) <= upper
    # v past the midpoint of s and s + 1, or on it with s odd
    round_up = (vb & _U(3)) + (s & _U(1)) > _U(2)
    f = np.where(up_in != wp_in, sp + _U(10) * wp_in,
                 s + np.where(u_in != w_in, w_in, round_up))
    return f, tables.k[index]


def _divmod(a, d):
    """(a // d, a % d) from one division; ``np.divmod`` takes about twice as
    long."""
    q = a // d
    return q, a - q * d


def _format_block(x: np.ndarray) -> np.ndarray:
    tables = _tables()
    bits = x.view(np.uint64)
    sign = (bits >> _U(63)).astype(np.int64)
    exponent = (bits >> _U(52)) & _U(0x7FF)
    zero = (bits << _U(1)) == _U(0)
    special = (exponent == _U(0x7FF)) | ((exponent == _U(0)) & ~zero)
    if zero.any() or special.any():
        bits = np.where(zero | special, np.float64(1.0).view(np.uint64), bits)

    f, k = _shortest(bits)
    wide = f >= _TEN16
    digits = np.where(wide, f, f * _U(10))  # exactly 17 digits
    decpt = k + _I(16) + wide.astype(np.int64)
    lead, rest = _divmod(digits, _TEN16)
    high, low = _divmod(rest, _U(10 ** 8))
    groups = [g.astype(np.intp) for half in (high, low) for g in _divmod(half, _U(10 ** 4))]
    n = functools.reduce(np.maximum, [last[g] for last, g in zip(tables.last_digit, groups)])

    positional = (decpt > _I(-4)) & (decpt <= _I(16))
    fixed_point = positional & (decpt >= _I(1))
    keep = np.where(fixed_point, np.maximum(n, decpt + _I(1)), n)  # digits written
    prefix = np.where(positional & ~fixed_point, _I(1) - decpt, _I(0))

    rows = np.empty((len(x), WIDTH // 8), dtype=np.uint64)
    rows[:, 0] = tables.head[(sign * _I(5) + prefix) * _I(10) + lead.astype(np.int64)]
    for j, g in enumerate(groups):
        rows[:, 1 + j] = tables.quads[tables.kept[j][keep] + g]
    rows[:, 5] = tables.tails[np.where(positional, _I(0), decpt + _I(400))]
    rows = rows.view(np.uint8)

    point = np.where(positional, fixed_point, n > np.int8(1))
    # the point's slot: after digit decpt - 1, or after the first digit
    at = np.where(positional, decpt * _I(2) + _I(5), _I(7))
    rows.ravel()[(np.arange(0, rows.size, WIDTH) + at)[point]] = ord(".")
    rows[zero] = tables.zeros[sign[zero]]
    for i in np.flatnonzero(special):
        rows[i] = 0
        text = np.frombuffer(repr(float(x[i])).encode(), dtype=np.uint8)
        rows[i, :len(text)] = text
    return rows


def repr_rows(x) -> np.ndarray:
    """A (len(x), WIDTH) uint8 array whose row i, once its NULs are dropped,
    is the ``repr`` of the float64 value ``x[i]``."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if len(x) <= BLOCK:
        return _format_block(x)
    return np.concatenate([_format_block(x[start:start + BLOCK])
                           for start in range(0, len(x), BLOCK)])
