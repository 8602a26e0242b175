"""'%.17g' text of float64 tables, formatted in numpy with the bytes of Python's %.

A finite x != 0 is |x| = m*2^E with m an integer in [2^52, 2^53).  Its 17
significant digits are D = round(|x|*10^k), k = 16 - floor(log10|x|), so that
10^16 <= D < 10^17.  10^k is held as a double-double (h + l)*2^b, h in [1, 2),
rounded from exact Python ints on first use of each k and then cached, so
importing costs nothing.  Dekker's two-product gives m*h exactly, so the
scaled value T = m*(h + l)*2^(E+b) is known to within 2^-45 of a unit of D.
Its integer part and fraction f give D = floor(T) + (f > 1/2), and a D that
rounds up to 10^17 is 10^16 a decade higher.  A cell with f within 2^-36 of
one half (every exact decimal tie lands there) is decided exactly where
1 <= -E <= 64, so that k >= 1: T = m*10^k / 2^-E, and its fraction is the
residue r = m*10^k mod 2^-E, which uint64 products of m and 10^k mod 2^64
give exactly.  D rounds up when r is over 2^(-E-1), and at r = 2^(-E-1),
an exact tie, when floor(T) is odd: half to even, as %.  Every other such
cell, and a value that is not finite, is formatted by Python's % instead.

Each cell is spelled into a fixed template of _CELL = 46 bytes: a sign, the
'0.000' of a fixed-point value below 1, 17 digit slots each followed by a
'.' slot, 'e' with a signed three-digit exponent, and its separator.  The
bytes a cell does not keep are zero, and one bytes.translate drops them.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_TIE = 2.0 ** -36  # the certified margin around a fraction of one half
_D_MIN, _D_MAX = 10**16, 10**17
_DIGITS = 17
_SIGN, _LEAD, _DIG, _EXP, _SEP = 0, 1, 6, 6 + 2 * _DIGITS, 6 + 2 * _DIGITS + 5
_CELL = _SEP + 1
_ZERO, _DOT, _MINUS, _PLUS, _E = (ord(c) for c in "0.-+e")
# 10^k mod 2^64 for the k of an exactly decided cell: 1 <= -E <= 64 puts |x|
# in [2^-12, 2^52), so 1 <= k <= 20
_POW10_MOD64 = np.array([pow(10, k, 1 << 64) for k in range(21)], dtype=np.uint64)


@functools.lru_cache(maxsize=None)
def _pow10(k: int) -> tuple:
    """10^k as (h_hi, h_lo, l, b): 10^k = (h + l)*2^b with h in [1, 2) rounded,
    |l| <= ulp(h)/2, and h = h_hi + h_lo split into 26-bit halves; from ints."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    b = num.bit_length() - den.bit_length()
    if (num << max(-b, 0)) < (den << max(b, 0)):
        b -= 1
    num, den = num << max(-b, 0), den << max(b, 0)  # num/den in [1, 2)
    h = num / den  # int / int is correctly rounded
    rest = (num << 52) - int(h * 2.0**52) * den
    c = _SPLIT * h
    h_hi = c - (c - h)
    return h_hi, h - h_hi, rest / (den << 52), b


def _scaled(m, E, k):
    """floor(T) as int64 and its fraction, T = m*10^k*2^E to within 2^-45.

    Dekker's error term of m*h is summed in its usual order but in place, so
    that a block holds few arrays at a time."""
    lo = int(k.min())
    table = np.array([_pow10(j) for j in range(lo, int(k.max()) + 1)]).T
    h_hi, h_lo, l, b = (np.take(col, k - lo) for col in table)
    p = m * (h_hi + h_lo)  # the split is exact: h_hi + h_lo is h
    m_hi = _SPLIT * m
    m_lo = m_hi - m
    m_hi -= m_lo
    np.subtract(m, m_hi, out=m_lo)
    q = m_hi * h_hi  # ((m_hi h_hi - p) + m_hi h_lo + m_lo h_hi) + m_lo h_lo + m l
    q -= p
    term = m_hi * h_lo
    q += term
    for u, v in ((m_lo, h_hi), (m_lo, h_lo), (m, l)):
        np.multiply(u, v, out=term)
        q += term
    s = b.astype(np.int64)
    s += E
    s += 1023
    s <<= 52  # the bits of 2^(E+b), a small power of two
    # p*2^s is an integer wherever T >= 10^16, since then s >= 0 and p >= 2^52
    p *= s.view(np.float64)
    q *= s.view(np.float64)
    whole = np.floor(q)
    q -= whole
    return p.astype(np.int64) + whole.astype(np.int64), q


def _decimal(x):
    """D and X with '%.17g' % x spelling D*10^(X-16), and the cells whose
    rounding is not certified; D = 0 and X = 0 at x = 0."""
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a)
    np.copyto(a, 1.0, where=zero | ~finite)
    m, E = np.frexp(a)
    m *= 2.0**53
    E -= 53
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    whole, f = _scaled(m, E, k)
    for _ in range(2):  # log10 may miss floor(log10|x|) by one next to a power of ten
        low, high = whole < _D_MIN, whole >= _D_MAX
        bad = np.flatnonzero(low | high)
        if bad.size == 0:
            break
        k[bad] += low[bad].astype(np.int64) - high[bad]
        whole[bad], f[bad] = _scaled(m[bad], E[bad], k[bad])
    up = f > 0.5
    near = np.abs(f - 0.5) < _TIE
    if near.any():  # a table without near-ties pays nothing more
        cand = np.flatnonzero(near)
        exact = cand[(E[cand] < 0) & (E[cand] >= -64)]
        shift = (-E[exact]).astype(np.uint64)  # -E, the bits below the point of T
        r = m[exact].astype(np.uint64) * _POW10_MOD64[k[exact]]  # m*10^k mod 2^64
        r &= np.uint64(2**64 - 1) >> (np.uint64(64) - shift)
        half = np.uint64(1) << (shift - np.uint64(1))
        up[exact] = (r > half) | ((r == half) & (whole[exact] % 2 == 1))
        near[exact] = False
    fallback = np.flatnonzero(~finite | near | (whole < _D_MIN) | (whole >= _D_MAX))
    D = whole
    D += up
    carry = D == _D_MAX
    D[carry] = _D_MIN
    X = 16 - k + carry
    D[zero] = 0
    X[zero] = 0
    return D, X, fallback


def _spell(x):
    """The (_CELL, n) templates of the cells x but their separators: the kept
    bytes of each spell its %.17g text, every other byte is zero; and the
    cells left to Python's %."""
    D, X, fallback = _decimal(x)
    out = np.empty((_CELL, x.size), np.uint8)
    sci = (X < -4) | (X > 16)
    point = (X * ~sci).astype(np.int8)  # the digit the decimal point follows; < 0 when it leads
    out[_SIGN] = np.signbit(x) * np.uint8(_MINUS)
    lead = point < 0
    out[_LEAD] = lead * np.uint8(_ZERO)
    out[_LEAD + 1] = lead * np.uint8(_DOT)
    for j in range(3):
        out[_LEAD + 2 + j] = (point < -1 - j) * np.uint8(_ZERO)

    digit, dot = out[_DIG:_EXP:2], out[_DIG + 1:_EXP:2]
    hi = D // 10**9
    for half, first, count in (((D - hi * 10**9).astype(np.uint32), _DIGITS - 1, 9), (hi.astype(np.uint32), 7, 8)):
        for i in range(first, first - count, -1):
            q = half // 10
            digit[i] = half - q * 10
            half = q
    tail = digit.copy()  # nonzero where a nonzero digit is at or after digit i
    for i in range(_DIGITS - 2, -1, -1):
        tail[i] |= tail[i + 1]
    tail = tail != 0
    slot = np.arange(_DIGITS, dtype=np.int8)[:, None]
    digit += np.uint8(_ZERO)
    digit *= tail | (slot <= point)
    np.multiply((slot[:-1] == point) & tail[1:], np.uint8(_DOT), out=dot[:-1])
    dot[-1] = 0

    ex = np.abs(X).astype(np.uint16)
    hundreds = ex // 100
    out[_EXP] = sci * np.uint8(_E)
    out[_EXP + 1] = sci * ((X < 0) * np.uint8(_MINUS - _PLUS) + np.uint8(_PLUS))
    out[_EXP + 2] = (sci & (hundreds > 0)) * (hundreds + _ZERO)
    out[_EXP + 3] = sci * (ex // 10 - hundreds * 10 + _ZERO)
    out[_EXP + 4] = sci * (ex - ex // 10 * 10 + _ZERO)
    return out, fallback


def rows_text(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 block as CSV text: each cell '%.17g' % x,
    cells joined by ',' and each row ended by '\\n'; b"" for no rows."""
    rows, width = block.shape
    if rows == 0:
        return b""
    x = block.ravel()
    out, fallback = _spell(x)
    out[_SEP].reshape(rows, width)[:] = ord(",")
    out[_SEP].reshape(rows, width)[:, -1] = ord("\n")
    for i in fallback.tolist():
        text = ("%.17g" % x[i]).encode()
        out[:_SEP, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    return out.T.tobytes().translate(None, b"\0")
