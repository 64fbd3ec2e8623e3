"""Rows of float64 values formatted as np.savetxt(fmt="%.17g", delimiter=",") writes them.

A block kernel.  For a whole block of values at once it finds each
value's decimal exponent X and its 17 significant digits, correctly
rounded (half to even, as Python's '%.17g' rounds), and lays them out in
'%g' style: fixed notation for -4 <= X < 17, else d.ddde+XX, with
trailing zeros and a bare point removed.  A value it cannot decide goes
through '%.17g' % x (see _SAFE_MIN and _TIE_MARGIN).

Error bound.  The digits are the integer nearest to y = x * 10**s with
s = 16 - X, so 1e16 <= y < 1e17 < 2**57.  The table holds 10**s as a
double-double hi + lo, each correctly rounded, so x * (hi + lo) is within
2**-106 * y of y.  Dekker's product splits x * hi exactly into
a + b, where a is an integer because a > 2**53.  d = fl(b + fl(x * lo))
is the rest of y.  The product x * lo is below 2**-53 * y and the sum
below 2**-52 * y, and each rounds by at most 2**-53 of its size, so a + d
is within (2**-106 + 2**-106 + 2**-105) * y = 2**-104 * y < 2**-47 of y.
The digits are a + floor(d), plus one when the fraction f of d is above
1/2.  Only |f - 1/2| needs care, and the kernel decides a value only when
it exceeds _TIE_MARGIN = 2**-40, more than 100 times the error bound.
Every other value falls back:
  - a fraction within 2**-40 of 1/2 may be an exact tie, such as
    2**-25 = 2.98023223876953125e-8, or too near one to decide;
  - zero, negatives, inf and nan have no digits in this scheme (zero's
    exponent and the sign are not handled);
  - values outside [1e-280, 1e280], subnormals among them: the bound
    needs every intermediate to be a normal double.  Inside that range
    10**s lies in [1e-266, 1e298], x * 134217729 cannot overflow, and the
    pieces of Dekker's splits of x and hi stay far above the subnormals;
  - a value whose exponent is still not settled after one correction
    lies within the error of a power of ten.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_SAFE_MIN = 1e-280
_SAFE_MAX = 1e280
_TIE_MARGIN = 2.0**-40
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_LOW, _HIGH = 10**16, 10**17  # the 17-digit integers
_X_MIN, _X_MAX = -282, 282  # [_SAFE_MIN, _SAFE_MAX], a correction and a carry


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """hi, hi_head, hi_tail and lo of 10**(16 - X) for X from _X_MIN to _X_MAX.

    hi and lo are correctly rounded by Python's integer arithmetic;
    hi_head + hi_tail is hi split into two halves of at most 26 bits.
    """
    rows = []
    for s in range(16 - _X_MIN, 15 - _X_MAX, -1):
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            q = 10**-s
            hi = 1 / q
            num, den = hi.as_integer_ratio()
            lo = (den - num * q) / (den * q)
        rows.append((hi, lo))
    hi, lo = np.array(rows).T
    head = hi * _SPLIT
    head -= head - hi
    return hi, head, hi - head, lo


_TEN_HI, _TEN_HEAD, _TEN_TAIL, _TEN_LO = _powers_of_ten()

# Every value gets one row of _WIDTH bytes, laid out for all it could print:
#   1..5    '0.000', the lead of 0.000ddd
#   6, 7    the first digit and a point
#   8..39   digits 2 to 17, each followed by a point
#   40, 41  'e' and the exponent's sign
#   44..47  the three digits of |X|, then the separator, ',' or a newline
# A row starts as its layout: the bytes it prints of the text above, 0xFF
# where a digit goes and 0 where it prints nothing.  The digits are ANDed
# in a uint32 word at a time, and the writer deletes the zero bytes.
_WIDTH = 48
_FIRST = 6  # byte column of the first digit; word 1 holds it
_E, _EXP, _SEP = 40, 44, 47  # byte columns
_FILL = 255  # a layout byte that a digit word fills in


def _words(rows) -> np.ndarray:
    """Rows of four bytes as native uint32 words."""
    return np.asarray(rows, dtype=np.uint8).view(np.uint32).ravel()


_FIRSTS = _words([[_FILL, _FILL, 48 + d, 46] for d in range(10)])  # keeps 0.000's last 00
_PAIRS = _words([[48 + p // 10, 46, 48 + p % 10, 46] for p in range(100)])
_EXPONENTS = _words([[48 + e // 100, 48 + e // 10 % 10, 48 + e % 10, 255]
                     for e in range(_X_MAX + 1)])


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """The layout class of each exponent X, and the layout row of each
    (class, significant digits, separator) triple in that order.

    Classes: 0..16 are fixed notation with X = class; 17..20 are
    0.000ddd with X = 16 - class; 21..24 are exponent notation with
    '+' or '-' and two or three exponent digits.
    """
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    classes = np.where(
        exponents >= 0,
        np.where(exponents < 17, exponents, np.where(exponents < 100, 21, 22)),
        np.where(exponents >= -4, 16 - exponents, np.where(exponents > -100, 23, 24)),
    )
    rows = []
    for cls in range(25):
        for count in range(1, 18):
            row = bytearray(_WIDTH)
            shown = count
            if cls < 17:  # ddd.ddd
                shown = max(count, cls + 1)
                if count > cls + 1:
                    row[_FIRST + 1 + 2 * cls] = _FILL
            elif cls < 21:  # 0.000ddd
                row[1 : cls - 14] = b"0.000"[: cls - 15]
            else:  # d.ddde+XX
                if count > 1:
                    row[_FIRST + 1] = _FILL
                row[_E : _E + 2] = b"e+" if cls < 23 else b"e-"
                row[_EXP + cls % 2 : _SEP] = bytes([_FILL]) * (3 - cls % 2)
            row[_FIRST : _FIRST + 2 * shown : 2] = bytes([_FILL]) * shown
            rows += [row[:_SEP] + b",", row[:_SEP] + b"\n"]
    layouts = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, _WIDTH)
    return classes, layouts


_CLASS, _LAYOUTS = _layouts()


def _scaled(x: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of x * 10**(16 - X), to within 2**-47."""
    row = X - _X_MIN
    hi = _TEN_HI.take(row)
    a = x * hi
    c = x * _SPLIT
    x_head = c - (c - x)
    x_tail = x - x_head
    head, tail = _TEN_HEAD.take(row), _TEN_TAIL.take(row)
    b = ((x_head * head - a) + x_head * tail + x_tail * head) + x_tail * tail
    d = b + x * _TEN_LO.take(row)
    whole = np.floor(d)
    return a.astype(np.int64) + whole.astype(np.int64), d - whole


def _digits17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's 17 rounded digits as an integer, its exponent, and
    whether the kernel decided it."""
    good = (values >= _SAFE_MIN) & (values <= _SAFE_MAX)
    x = np.where(good, values, 1.0)
    X = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, X)
    off = (whole < _LOW).astype(np.int64) - (whole >= _HIGH)
    redo = np.flatnonzero(off)
    if redo.size:
        X[redo] -= off[redo]
        whole[redo], frac[redo] = _scaled(x[redo], X[redo])
        good[redo] &= (whole[redo] >= _LOW) & (whole[redo] < _HIGH)
    good &= np.abs(frac - 0.5) > _TIE_MARGIN
    whole += frac > 0.5
    carry = whole == _HIGH
    whole[carry] = _LOW
    X += carry
    return whole, X, good


def _text(block: np.ndarray) -> np.ndarray:
    """One row of _WIDTH bytes per value: its text, separator and zeros."""
    values = block.ravel()
    whole, X, good = _digits17(values)
    whole = whole.view(np.uint64)  # unsigned division is the faster
    upper = whole // 10**8
    first = upper // 10**8
    # the first digit, then the eight digit pairs
    pairs = [first]
    for half in (upper - first * 10**8, whole - upper * 10**8):
        half = half.astype(np.int32)
        top = half // 10**4
        for quad in (top, half - top * 10**4):
            top = quad // 100
            pairs += [top, quad - top * 100]

    # significant digits: 17 less the trailing zeros
    shown = 17 - (pairs[-1] % 10 == 0)
    ends = np.flatnonzero(pairs[-1] == 0)  # rarer: look left of a zero last pair
    if ends.size:
        count = np.full(ends.size, 15)
        trailing = np.ones(ends.size, dtype=bool)
        for pair in pairs[-2:0:-1]:  # the first digit is never 0
            pair = pair[ends]
            for digit in (pair % 10, pair // 10):
                trailing &= digit == 0
                count -= trailing
        shown[ends] = count

    newline = np.arange(values.size) % block.shape[1] == block.shape[1] - 1
    text = _LAYOUTS.take((_CLASS.take(X - _X_MIN) * 17 + shown - 1) * 2 + newline, axis=0)
    words = text.view(np.uint32)
    words[:, 1] &= _FIRSTS.take(first)
    for column, pair in enumerate(pairs[1:], start=2):
        words[:, column] &= _PAIRS.take(pair)
    words[:, _EXP // 4] &= _EXPONENTS.take(np.abs(X))
    for i in np.flatnonzero(~good):
        fallback = b"%.17g" % values[i]
        text[i, :_SEP] = 0
        text[i, : len(fallback)] = np.frombuffer(fallback, dtype=np.uint8)
    return text


def format_rows(block: np.ndarray) -> bytes:
    """The bytes np.savetxt(fmt="%.17g", delimiter=",") writes for the
    rows of a 2-D float64 block: each value as '%.17g', joined by ',',
    each row ended by a newline."""
    # the rows are freed before the copy without zero bytes is made
    return _text(block).tobytes().translate(None, b"\0")
