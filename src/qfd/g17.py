"""'%.17g' % float(v) for whole numpy arrays, byte for byte.

A double x with decimal exponent k (10^k <= |x| < 10^(k+1)) prints the 17
digits of N = round(|x| 10^(16-k)).  The product is formed as p + c:
p = fl(|x| T_hi) and c its exact error, by Dekker's (1971) split
two-product, plus |x| T_lo, where T_hi + T_lo is 10^(16-k) to 2^-105.
p >= 1e16 > 2^53 is an integer, so N = p + rint(c), and p + c is within
1e-14 of the exact product.  '%.17g' % v itself prints each cell whose
|c - rint(c)| lies within _MARGIN of 1/2 (exact ties among them), and
zeros, non-finite values and |x| outside [_MIN, _MAX), where Dekker's
split could overflow or its parts underflow.  The digits are then laid
out by the %g rules: fixed notation for -4 <= k < 17, d.ddde+XX
otherwise, trailing zeros and a bare point stripped.
"""

from __future__ import annotations

import itertools

import numpy as np

_CELL = 24  # the longest output: -1.2345678901234567e-100
_MIN, _MAX = 1e-280, 1e290
_MARGIN = 2.0**-30
# the table holds 10^p for p = 16 - k over the bounds' exponents, widened
# by one for the doubles next to each bound and one for log10's miss
_P0, _P1 = 16 - 292, 16 + 282
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
# a cell is gathered from its number's 28-byte source row: the first digit
# and the constants ".0-", the other 16 digits in four groups, "e+" and two
# spare bytes, and |k| as four digits
_SRC_DIGITS = (0, *range(4, 20))
_SRC_POINT, _SRC_ZERO, _SRC_MINUS, _SRC_E, _SRC_PLUS = 1, 2, 3, 20, 21
_SRC_EXP = (25, 26, 27)
_SRC_BYTES = 28
# a layout is fixed by the sign, the form (k + 4 for fixed notation, then
# 21 + 2 (k < 0) + (|k| >= 100) for d.ddde+XX) and the count of
# significant digits left after stripping trailing zeros
_FORMS = 25


def _layout(minus: bool, form: int, digits: int) -> list[int]:
    """Source-row offsets of one cell, by the %g rules."""
    d = _SRC_DIGITS[:digits]
    cell = [_SRC_MINUS] if minus else []
    if form < 21:
        k = form - 4
        if k < 0:
            return cell + [_SRC_ZERO, _SRC_POINT] + [_SRC_ZERO] * (-k - 1) + list(d)
        cell += _SRC_DIGITS[:k + 1]
        return cell + ([_SRC_POINT, *d[k + 1:]] if digits > k + 1 else [])
    cell += [d[0], _SRC_POINT, *d[1:]] if digits > 1 else [d[0]]
    wide = form in (22, 24)
    return cell + [_SRC_E, _SRC_MINUS if form >= 23 else _SRC_PLUS, *_SRC_EXP[1 - wide:]]


def _powers() -> tuple[np.ndarray, ...]:
    """10^p for p in [_P0, _P1] as T_hi + T_lo, with T_hi's Dekker halves."""
    hi, lo = [], []
    for p in range(_P0, _P1 + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi, lo = np.array(hi), np.array(lo)
    s = _SPLIT * hi
    hh = s - (s - hi)
    return hi, lo, hh, hi - hh


def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """Every four-digit group as a little-endian word of its digits, and
    the count of its digits up to the last nonzero one (far below any
    count for 0000)."""
    g = np.arange(10**4, dtype=np.uint32)
    groups = (g // 1000 | g // 100 % 10 << 8 | g // 10 % 10 << 16 | g % 10 << 24) + 0x30303030
    sig = (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)).astype(np.int8)
    sig[0] = -99
    return groups, sig


def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Every cell layout, indexed by (sign * _FORMS + form) * 17 + digits - 1,
    and its length."""
    specs = itertools.product((False, True), range(_FORMS), range(1, 18))
    cells = [_layout(*spec) for spec in specs]
    layout = np.frombuffer(b"".join(bytes(c).ljust(_CELL, b"\0") for c in cells), np.uint8)
    return layout.reshape(-1, _CELL), np.array([len(c) for c in cells])


# built at import, which csv_blocks defers to its first table
_HI, _LO, _HH, _HL = _powers()
_GROUPS, _SIG = _digit_groups()
_LAYOUT, _LENGTH = _layouts()


def _scaled(a, k):
    """a 10^(16-k) as p + c (see the module docstring)."""
    j = 16 - k - _P0
    p = a * _HI[j]
    s = _SPLIT * a
    ah = s - (s - a)
    al = a - ah
    bh, bl = _HH[j], _HL[j]
    return p, (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * _LO[j]


def _quot_rem(n, m):
    q = n // m
    return q, n - q * m


def g17_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of '%.17g' % float(v) for every v of x: (len(x), 24)
    uint8 cells and their lengths."""
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    fast = (a >= _MIN) & (a < _MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    p, c = _scaled(a, k)
    # log10 can miss k by one next to a power of ten: p + c then lies
    # below 1e16 (shift -1) or from 1e17 on (+1)
    shift = ((p - 1e17) + c >= 0).astype(np.int64) - ((p - 1e16) + c < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        p[moved], c[moved] = _scaled(a[moved], k[moved])
    r = np.rint(c)
    fast &= np.abs(c - r) < 0.5 - _MARGIN
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10**17  # rounded up to the next power of ten
    n[carry] = 10**16
    k += carry
    n, g4 = _quot_rem(n, 10**4)
    n, g3 = _quot_rem(n, 10**4)
    first, g2 = _quot_rem(n, 10**4)
    first, g1 = _quot_rem(first, 10**4)
    digits = np.maximum(np.maximum(13 + _SIG[g4], 9 + _SIG[g3]),
                        np.maximum(5 + _SIG[g2], np.maximum(1 + _SIG[g1], 1)))
    form = np.where((k >= -4) & (k < 17), k + 4, 21 + 2 * (k < 0) + (np.abs(k) >= 100))
    cls = ((x < 0) * _FORMS + form) * 17 + digits - 1
    src = np.empty((x.size, _SRC_BYTES // 4), "<u4")
    src[:, 0] = np.frombuffer(b"0.0-", "<u4")[0] + first
    src[:, 1] = _GROUPS[g1]
    src[:, 2] = _GROUPS[g2]
    src[:, 3] = _GROUPS[g3]
    src[:, 4] = _GROUPS[g4]
    src[:, 5] = np.frombuffer(b"e+\0\0", "<u4")[0]
    src[:, 6] = _GROUPS[np.abs(k)]
    index = _LAYOUT[cls] + np.arange(0, x.size * _SRC_BYTES, _SRC_BYTES)[:, None]
    cells = src.view(np.uint8).ravel()[index]
    length = _LENGTH[cls]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [("%.17g" % v).encode() for v in x[slow].tolist()]
        cells[slow] = np.array(text, f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
        length[slow] = [len(t) for t in text]
    return cells, length
