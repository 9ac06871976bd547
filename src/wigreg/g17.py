"""Exact "%.17g" text of float64 arrays, by float64 digit arithmetic.

``fields`` writes the text Python's ``"%.17g" % x`` gives for each value,
byte for byte, into fixed-width rows of NUL-padded bytes; dropping the NUL
bytes afterwards leaves the text.  The 17 significant digits come from a
fixed-precision product y = |x| 10^(16 - k) in double-double arithmetic
(Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019;
Dekker, Numer. Math. 18, 1971), and a table per class of output lays them
out.  Values the arithmetic cannot settle go to Python's own formatting,
one by one (``fallback``).

The module is imported by the first CSV write, and its tables are built
on the first call, so commands that write no CSV never pay for either.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# bytes of the longest %.17g text of a float64, "-2.2250738585072014e-308"
WIDTH = 24
# the digit arithmetic formats |x| in [DIGITS_MIN, DIGITS_MAX); zeros are
# written directly and every other value goes to fallback
DIGITS_MIN, DIGITS_MAX = 1e-280, 1e280
# rounding left to fallback where frac(y) lies this close to one half
HALF_MARGIN = 2.0 ** -20

# decimal exponents k the arithmetic may try: floor(log10 |x|) over that
# range and one step beyond either end
_K_LOW, _K_HIGH = -281, 280
# columns of a source row: five uint32 words of ASCII digits (the 16
# digits after the first, in four groups, then the first digit and the
# three of |k|), then fixed bytes
_LEAD, _POINT, _MINUS, _E, _PLUS, _ZERO, _NUL = 16, 20, 21, 22, 23, 24, 25
_FIXED_BYTES = b".-e+0\0\0\0"
_SOURCE = 20 + len(_FIXED_BYTES)
# output layouts: fixed notation for exponents -4 .. 16, then scientific
# with e+ and e- at exponent widths 2 and 3
_FIXED_LAYOUTS = 21


class _Tables(NamedTuple):
    ten_hi: np.ndarray       # 10^s, s = 16 - k, as the double-double hi + lo
    ten_lo: np.ndarray
    ten_hi_hi: np.ndarray    # Dekker's split of ten_hi
    ten_hi_lo: np.ndarray
    quads: np.ndarray        # ASCII of every 4-digit group, one uint32 each
    quad_zeros: np.ndarray   # trailing zeros of every 4-digit group (4 for 0000)
    gather: np.ndarray       # source column of each output byte, per class


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = a * 134217729.0
    high = c - (c - a)
    return high, a - high


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built on the first call.

    10^s is held as hi + lo: hi = 10^s / 1 or 1 / 10^-s and lo the rest,
    each a correctly rounded quotient of Python ints, so that hi + lo is
    10^s to within 2^-106 relative.  The texts of the 4-digit groups are
    written by slice assignment: numpy arithmetic touched some 0.4 MB of
    numpy's code that no other command runs, and a Python bytes object per
    group left about as much in the interpreter's arenas, both resident for
    the life of the process.  A class (layout, kept digits, sign) maps each
    of the WIDTH output bytes to a source column, or to a NUL where the
    text leaves a byte out: the minus sign of a positive value, digits past
    the last kept one, a point with no digit after it, and the first of
    three exponent digits when it is 0.
    """
    hi, lo = [], []
    for s in range(16 - _K_HIGH, 17 - _K_LOW):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        top = num / den
        a, b = top.as_integer_ratio()
        hi.append(top)
        lo.append((num * b - a * den) / (den * b))
    ten_hi = np.array(hi)
    # the texts 0000 .. 9999, written a digit place at a time
    text = bytearray(40000)
    for place in range(4):
        cycle = b"".join(bytes([ord("0") + digit]) * 10 ** (3 - place) for digit in range(10))
        text[place::4] = cycle * 10 ** place
    quads = np.frombuffer(text, dtype=np.uint32)
    zeros = bytearray(10000)
    for place in range(1, 4):
        zeros[::10 ** place] = bytes([place]) * (10000 // 10 ** place)
    zeros[0] = 4
    quad_zeros = np.frombuffer(zeros, dtype=np.uint8)

    # the output bytes of each layout in digit numbers 0..16 and source
    # columns: the sign, then in fixed notation with exponent x the digits
    # 0..x, a point and the rest (x >= 0), or "0." and -x - 1 zeros before
    # all 17 digits (x < 0); in scientific notation one digit, a point, the
    # rest, and the exponent
    j = np.arange(WIDTH - 1)
    x = np.arange(-4, 17)[:, None]
    point = np.maximum(x + 1, 1)
    shift = np.maximum(1 - x, 1)
    fixed = np.where(j < point, np.where(x >= 0, j, _ZERO),
                     np.where(j == point, _POINT,
                              np.where(j < shift, _ZERO,
                                       np.where(j - shift < 17, j - shift, _NUL))))
    scientific = [[0, _POINT, *range(1, 17), _E, sign, 17, 18, 19]
                  for sign in (_PLUS, _PLUS, _MINUS, _MINUS)]
    body = np.concatenate([fixed, scientific])
    layouts = len(body)
    t = np.concatenate([np.full((layouts, 1), _MINUS), body], axis=1)[:, None, None, :]
    # digits before the point, which stay when they are zeros
    whole = np.concatenate([np.maximum(x[:, 0] + 1, 0), [1] * 4])[:, None, None, None]
    wide = ((np.arange(layouts) - _FIXED_LAYOUTS) % 2 == 1)[:, None, None, None]
    kept = np.arange(1, 18)[None, :, None, None]
    negative = np.array([False, True])[None, None, :, None]
    keep = np.where(np.arange(WIDTH) == 0, negative,
                    np.where(t < 17, t < np.maximum(kept, whole),
                             np.where(t == _POINT, kept > whole, (t != 17) | wide)))
    column = np.where(t < 17, (t + _LEAD) % 17, t)
    gather = np.where(keep, column, _NUL).astype(np.uint8).reshape(-1, WIDTH)
    return _Tables(ten_hi, np.array(lo), *_split(ten_hi), quads, quad_zeros, gather)


def fallback(x: float) -> bytes:
    """Python's own %.17g text of x, for the values the arithmetic leaves."""
    return b"%.17g" % x


def _scaled(a: np.ndarray, k: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and frac(y) for y = a 10^(16 - k), formed as p + t:
    p the rounded product a hi, t its exact error (Dekker) plus a lo."""
    s = _K_HIGH - k
    p = a * tables.ten_hi[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = tables.ten_hi_hi[s], tables.ten_hi_lo[s]
    t = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * tables.ten_lo[s]
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def buffers(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Work space of ``fields`` for values of ``shape``: the source rows,
    their fixed bytes in place, and the gather indices."""
    source = np.empty((math.prod(shape), _SOURCE), dtype=np.uint8)
    source[:, 20:] = np.frombuffer(_FIXED_BYTES, dtype=np.uint8)
    return source, np.empty(shape + (WIDTH,), dtype=np.intp)


def fields(values: np.ndarray, out: np.ndarray, source: np.ndarray, index: np.ndarray) -> None:
    """Write "%.17g" % x of each float64 x of the C-contiguous ``values``
    into ``out`` (shaped values.shape + (WIDTH,)), left-aligned and padded
    with NUL bytes; ``source`` and ``index`` come from ``buffers``.

    For |x| in [DIGITS_MIN, DIGITS_MAX), k starts at floor(log10 |x|) and
    y = |x| 10^(16 - k) is formed as p + t (_scaled).  Dekker's two-product
    gives the error of p exactly, and with 10^(16 - k) held to 2^-106 the
    rest is three roundings, so |y - (p + t)| < 2^-48 wherever y < 10^17.
    p is then an integer, and floor(y) = p + floor(t) and
    frac(y) = t - floor(t) are exact.  k is re-picked once, from floor(y)
    and not from the rounded digits: to k - 1 where floor(y) < 10^16, k + 1
    where floor(y) >= 10^17 (so 1e156, just below 10^156, prints
    9.9999999999999998e+155).  The 17 digits are then
    D = floor(y) + [frac(y) > 1/2], Python's own wherever frac(y) is more
    than HALF_MARGIN from one half.  D is cut into ASCII 4-digit groups,
    and the table of the class (notation and exponent width, kept digits,
    sign) gathers them and the fixed bytes into the output.  Zeros are
    written directly, with their sign.  These values go to ``fallback`` one
    by one: |x| outside [DIGITS_MIN, DIGITS_MAX) (subnormals, infinities
    and NaN included), |frac(y) - 1/2| <= HALF_MARGIN (ties among them),
    and floor(y) outside [10^16, 10^17 - 1) after the re-pick: 10^17 - 1,
    where D would carry to 10^17, or an exponent still unsettled.
    """
    tables = _tables()
    v = values.reshape(-1)
    count = v.size
    magnitude = np.abs(v)
    in_range = (magnitude >= DIGITS_MIN) & (magnitude < DIGITS_MAX)
    magnitude[~in_range] = 1.0
    k = np.clip(np.floor(np.log10(magnitude)), _K_LOW, _K_HIGH).astype(np.intp)
    whole, frac = _scaled(magnitude, k, tables)
    below, above = whole < 10 ** 16, whole >= 10 ** 17
    redo = np.flatnonzero(below | above)
    k[redo] = np.clip(k[redo] + np.where(above[redo], 1, -1), _K_LOW, _K_HIGH)
    whole[redo], frac[redo] = _scaled(magnitude[redo], k[redo], tables)
    settled = (in_range & (whole >= 10 ** 16) & (whole < 10 ** 17 - 1)
               & (np.abs(frac - 0.5) > HALF_MARGIN))
    # zeros, and the values left to the fallback, print as 0 here
    digits = np.where(settled, whole + (frac > 0.5), 0)
    k[~settled] = 0

    source = source[:count]
    lead, rest = np.divmod(digits, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = (*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4))
    # the fifth word is the text of 1000 lead + |k|, with |k| < 1000
    words = source.view(np.uint32)
    for column, group in enumerate((*groups, 1000 * lead + np.abs(k))):
        words[:, column] = tables.quads[group]
    # trailing zeros of D: those of the last group, then of each group
    # before it while every group after it is 0000
    zeros = tables.quad_zeros[groups[3]]
    tail = groups[3] == 0
    for group in groups[2::-1]:
        zeros += tail * tables.quad_zeros[group]
        tail &= group == 0
    layout = np.where((k >= -4) & (k < 17), k + 4,
                      _FIXED_LAYOUTS + 2 * (k < 0) + (np.abs(k) >= 100))
    kinds = (layout * 17 + 16 - zeros) * 2 + np.signbit(v)
    np.add(tables.gather[kinds], np.arange(0, count * _SOURCE, _SOURCE)[:, None],
           out=index.reshape(count, WIDTH))
    np.take(source.reshape(-1), index, out=out, mode="clip")

    left = np.flatnonzero(~settled & (v != 0))
    if left.size:
        texts = b"".join(fallback(x).ljust(WIDTH, b"\0") for x in v[left].tolist())
        out[np.unravel_index(left, values.shape)] = \
            np.frombuffer(texts, dtype=np.uint8).reshape(-1, WIDTH)
