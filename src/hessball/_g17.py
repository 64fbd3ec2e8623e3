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

Bytes.  Every value gets one row of 32 bytes, laid out for all it could
print:
  2..6    the lead of 0.ddd to 0.000ddd: '0.' and up to three zeros
  6, 7    the first digit and a point, or the first digit at 7 after a lead
  8..23   digits 2 to 17 as four uint32 words, one table lookup for each
          four digits
  24, 25  'e' and the exponent's sign
  27      the point of a fixed-notation value with digits after it and
          X >= 1, which one gather moves to just after digit X + 1
  28..31  the three digits of |X|, then the separator, ',' or a newline
A row starts as its layout, chosen by exponent class, digit count and
separator: the bytes it prints of the text above, 0xFF where a digit goes
and 0 where it prints nothing.  The digit words are ANDed in, and the
writer deletes the zero bytes.
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

# byte columns of a row; see the module docstring
_WIDTH = 32
_E, _POINT, _EXP, _SEP = 24, 27, 28, 31
_FILL = 255  # a layout byte that a digit word fills in


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of four bytes as native uint32 words."""
    return np.asarray(rows, dtype=np.uint8).view(np.uint32).ravel()


def _digit_tables() -> tuple[np.ndarray, ...]:
    """The words of the first digit, of four digits and of the exponent,
    and the trailing zeros of each four digits.

    The first digit's word covers bytes 4..7: rows 0..9 put digit d at
    byte 6, rows 10..19 at byte 7, and the rest of the word keeps the
    layout.  Quad q is the ASCII of f"{q:04d}"; its trailing zeros are
    those of that text, 4 for q = 0.  Exponent e is its three ASCII
    digits and a byte that keeps the separator.
    """
    d = np.arange(10)
    first = np.full((20, 4), _FILL)
    first[d, 2] = 48 + d
    first[10 + d, 3] = 48 + d
    # int16 and in-place steps keep the temporaries under 100 kB: heap
    # memory freed at import may stay resident and raise a run's peak RSS
    q = np.arange(10**4, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)  # the thousands first
    quads = q // place
    quads %= 10
    quads += 48
    trailing = (q % (10 * place) == 0).sum(axis=1, dtype=np.int8)
    e = np.arange(_X_MAX + 1, dtype=np.int16)[:, None]
    exponents = np.hstack([48 + e // place[1:] % 10, np.full_like(e, _FILL)])
    return _words(first), _words(quads), trailing, _words(exponents)


_FIRSTS, _QUADS, _TRAILING, _EXPONENTS = _digit_tables()


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout class of each exponent X; the layout row of each
    (class, significant digits, separator) triple in that order; and the
    byte order that puts the point after digit X + 1 of class X.

    Classes: 0..16 are fixed notation with X = class; 17..20 are
    0.000ddd with X = 16 - class; 21..24 are exponent notation with
    '+' or '-' and two or three exponent digits.  A fixed row of class
    X >= 1 with more than X + 1 digits holds its point at byte _POINT;
    its byte order moves that point after digit X + 1, at byte 8 + X,
    and the digits after it one byte right.
    """
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    classes = np.where(
        exponents >= 0,
        np.where(exponents < 17, exponents, np.where(exponents < 100, 21, 22)),
        np.where(exponents >= -4, 16 - exponents, np.where(exponents > -100, 23, 24)),
    ).astype(np.int32)
    cls = np.arange(25, dtype=np.int8)[:, None, None]
    count = np.arange(1, 18, dtype=np.int8)[None, :, None]
    byte = np.arange(_WIDTH, dtype=np.int8)
    fixed, lead, power = cls < 17, (cls > 16) & (cls < 21), cls > 20
    shown = np.where(fixed, np.maximum(count, cls + 1), count)
    rows = np.select(
        [
            (byte == 6 + lead) | ((byte >= 8) & (byte < 7 + shown)),  # the digits
            (byte == 7) & (count > 1) & ((cls == 0) | power),  # d.ddd
            (byte == _POINT) & fixed & (cls > 0) & (count > cls + 1),  # for _INNER
            lead & (byte == 23 - cls),  # the point of 0.000ddd
            lead & (byte >= 22 - cls) & (byte < 7),  # its zeros
            power & (byte == _E),
            power & (byte == _E + 1),
            power & (byte >= _EXP + cls % 2) & (byte < _SEP),  # the exponent
        ],
        [np.uint8(c) for c in (_FILL, *b"...0e")]
        + [np.where(cls < 23, *b"+-").astype(np.uint8), np.uint8(_FILL)],
        np.uint8(0),
    )
    rows = np.repeat(rows[:, :, None], 2, axis=2)
    rows[..., _SEP] = [ord(","), ord("\n")]

    X = np.arange(17)[:, None]
    moves = X > 0
    order = np.select(
        [moves & (byte == 8 + X), moves & (byte > 8 + X) & (byte <= _E),
         moves & (byte == _POINT)],
        [_POINT, byte - 1, _POINT - 1],  # _POINT - 1 is 0 in every fixed row
        byte,
    ).astype(np.uint8)
    return classes, rows.reshape(-1, _WIDTH), order


_CLASS, _LAYOUTS, _INNER = _layouts()


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


def _fallback(x: float) -> bytes:
    """Python's '%.17g' % x, for a value the kernel does not decide."""
    return b"%.17g" % x


def _text(block: np.ndarray) -> np.ndarray:
    """One row of _WIDTH bytes per value: its text, separator and zeros."""
    values = block.ravel()
    whole, X, good = _digits17(values)
    whole = whole.view(np.uint64)  # unsigned division is the faster
    upper = whole // 10**8
    lower = (whole - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    first = upper // 10**8
    quads = []  # digits 2..5, 6..9, 10..13 and 14..17
    for half in (upper - first * 10**8, lower):
        top = half // 10**4
        quads += [top, half - top * 10**4]

    # significant digits: 17 less the trailing zeros
    shown = 17 - _TRAILING.take(quads[3])
    ends = np.flatnonzero(quads[3] == 0)  # rarer: look left of a zero last quad
    for quad in quads[2::-1]:  # the first digit is never 0
        quad = quad[ends]
        shown[ends] -= _TRAILING.take(quad)
        ends = ends[quad == 0]

    cls = _CLASS.take(X - _X_MIN)
    newline = np.arange(values.size) % block.shape[1] == block.shape[1] - 1
    text = _LAYOUTS.take((cls * 17 + shown - 1) * 2 + newline, axis=0)
    words = text.view(np.uint32)
    words[:, 1] &= _FIRSTS.take(first + 10 * ((cls > 16) & (cls < 21)))
    for column, quad in enumerate(quads, start=2):
        words[:, column] &= _QUADS.take(quad)
    words[:, _EXP // 4] &= _EXPONENTS.take(np.abs(X))
    inner = np.flatnonzero(text[:, _POINT])
    if inner.size:
        text[inner] = np.take_along_axis(text[inner], _INNER.take(X[inner], axis=0), axis=1)
    for i in np.flatnonzero(~good):
        fallback = _fallback(values[i])
        text[i, :_SEP] = 0
        text[i, : len(fallback)] = np.frombuffer(fallback, dtype=np.uint8)
    return text


def format_rows(block: np.ndarray) -> bytes:
    """The bytes np.savetxt(fmt="%.17g", delimiter=",") writes for the
    rows of a 2-D float64 block: each value as '%.17g', joined by ',',
    each row ended by a newline."""
    # the rows are freed before the copy without zero bytes is made
    return _text(block).tobytes().translate(None, b"\0")
