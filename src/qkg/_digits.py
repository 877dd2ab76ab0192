"""Exact '%.17g' text of float arrays, rendered by numpy into byte fields.

render(x) gives one FIELD-byte row per value: its '%.17g' text with NUL
padding between and after the characters, so dropping every NUL byte of a
table of such rows leaves the text.  In the window 1e-4 <= |x| < 1e16,
where '%g' prints the fixed form, the digits come from integer arithmetic:
x = M 2^E with M < 2^53, and its 17 significant digits are

    D = round-half-even(M 5^k 2^(k + E)),   10^16 <= D < 10^17,

formed from the exact 128-bit product M 5^k of uint64 halves, with
k = 16 - floor(log10 |x|).  D's 4-digit groups are read from a table of
10,000 words, each digit followed by a free byte that can take the decimal
point, and the trailing zeros of the fraction become NUL.  Every other
value (0, -0, subnormals, |x| < 1e-4 or >= 1e16, inf, nan, and any D out
of its range, where log10 rounds across an integer or D rounds up to 10^17
next to a power of ten) is formatted by '%.17g' itself.
"""

from __future__ import annotations

import numpy as np

FIELD = 40      # bytes per value: sign, "0.000", then 17 digits each with a free byte

_WORD = np.dtype("<u8")
_ONE, _LOW32 = np.uint64(1), np.uint64(0xFFFFFFFF)
_D_MIN, _D_END = np.uint64(10 ** 16), np.uint64(10 ** 17)
_POW5 = np.array([5 ** k for k in range(23)], dtype=_WORD)   # 5^22 < 2^53

# group g as the bytes of "%04d" % g, each followed by a NUL (one word),
# and the number of trailing zeros in "%04d" % g
_GROUPS = np.full(10_000, 0x0030003000300030, _WORD)
_TRAILING = np.zeros(10_000, np.int64)
_g, _zeros = np.arange(10_000, dtype=_WORD), np.ones(10_000, bool)
for _shift in (48, 32, 16, 0):
    _digit = _g % 10
    _GROUPS |= _digit << _shift
    _zeros &= _digit == 0
    _TRAILING += _zeros
    _g //= 10
del _g, _zeros, _shift, _digit


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _digit_byte(j: int) -> tuple[int, int]:
    """(word, byte) of digit j: d0 sits in byte 6 of word 0, d1..d16 in the groups."""
    return (0, 6) if j == 0 else ((j + 3) // 4, 2 * ((j - 1) % 4))


# word 0 for decimal exponent X in [-4, 15]: a sign byte, then "0." and
# -X - 1 zeros when X < 0
_PREFIX = np.array([_word(b"\0" + (b"0." + b"0" * (-x - 1) if x < 0 else b""))
                    for x in range(-4, 16)], dtype=_WORD)
# (word, value) of the point after digit X >= 0, in that digit's free byte
_POINT = np.array([(w, 46 << 8 * (b + 1)) for w, b in map(_digit_byte, range(16))],
                  dtype=np.uint64)


def _kept(keep: int) -> list[int]:
    words = [2 ** 64 - 1] * 5
    for w, b in map(_digit_byte, range(keep, 17)):
        words[w] &= ~(0xFF << 8 * b)
    return words


# the mask that turns digits keep..16 into NUL
_KEEP = np.array([_kept(keep) for keep in range(18)], dtype=_WORD)


def _scaled(m, e, k):
    """round-half-even(m 5^k 2^(k + e)) for m < 2^53, k <= 22 and k + e >= -63,
    exact where it is below 2^60."""
    p = _POW5.take(k)
    m_lo, m_hi, p_lo, p_hi = m & _LOW32, m >> 32, p & _LOW32, p >> 32
    mid = m_hi * p_lo + m_lo * p_hi
    part = m_lo * p_lo
    lo = part + (mid << 32)     # the low word wraps where it falls below part
    hi = m_hi * p_hi + (mid >> 32) + (lo < part)
    shift = e + k
    r = np.maximum(-shift, 1).astype(np.uint64)
    q = (hi << (64 - r)) | (lo >> r)
    rest, half = lo & ((_ONE << r) - _ONE), _ONE << (r - _ONE)
    q += (rest > half) | ((rest == half) & (q & _ONE).astype(bool))
    return np.where(shift >= 0, lo << np.maximum(shift, 0).astype(np.uint64), q)


def render(x) -> np.ndarray:
    """'%.17g' % v for each v of the float array x, as an (x.size, FIELD) uint8
    array whose NUL bytes are padding."""
    x = np.asarray(x, dtype=float).ravel()
    size = np.abs(x)
    fixed = (size >= 1e-4) & (size < 1e16)
    size = np.where(fixed, size, 1.0)
    k = 16 - np.floor(np.log10(size)).astype(np.int64)
    mantissa, e = np.frexp(size)
    m, e = (mantissa * 2.0 ** 53).astype(_WORD), e - 53
    d = _scaled(m, e, k)
    point = 16 - k          # the decimal exponent
    fixed &= (point >= -4) & (point <= 15) & (d >= _D_MIN) & (d < _D_END)
    point[~fixed] = 0

    high, low = np.divmod(d, np.uint64(10 ** 8))
    d0, rest = np.divmod(high.astype(np.int64), 10 ** 8)
    g1, g2 = np.divmod(rest, 10 ** 4)
    g3, g4 = np.divmod(low.astype(np.int64), 10 ** 4)
    out = np.empty((x.size, 5), _WORD)
    out[:, 0] = (_PREFIX.take(point + 4) | (d0 + 48).astype(_WORD) << 48
                 | np.where(x < 0, np.uint64(45), np.uint64(0)))
    for j, g in enumerate((g1, g2, g3, g4), 1):
        out[:, j] = _GROUPS.take(g)
    zeros = _TRAILING.take
    trailing = zeros(g4) + (g4 == 0) * (zeros(g3) + (g3 == 0) * (
        zeros(g2) + (g2 == 0) * zeros(g1)))
    keep = np.maximum(17 - trailing, point + 1)
    out &= _KEEP.take(keep, axis=0)
    dotted = np.flatnonzero((keep > point + 1) & (point >= 0))
    word, value = _POINT[point[dotted]].T
    out.reshape(-1)[dotted * 5 + word.astype(np.intp)] |= value

    other = np.flatnonzero(~fixed)
    if other.size:
        text = ["%.17g" % v for v in x[other].tolist()]
        out[other] = np.array(text, dtype=f"S{FIELD}").view(_WORD).reshape(-1, 5)
    return out.view(np.uint8).reshape(x.size, FIELD)
