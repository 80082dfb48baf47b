"""CSV rows of float64 cells, each exactly as `'%.17g' % v`, made by numpy on
whole blocks of cells instead of one bignum `dtoa` call per cell.

For |v| in [1e-280, 1e280] the 17 significant digits are the integer
nearest y = |v| 10^(16-X), X = floor(log10 |v|). The product is formed
exactly (Dekker's error-free product, Numer. Math. 18, 1971) with 10^(16-X)
held as a double-double, so y = p + yl with p a double and an error below
1e-14; an X that log10 got wrong by one is retried at X -+ 1, and exact
ties are rounded half to even. Every cell this cannot certify is formatted
by Python itself, one cell at a time: nan, inf, |v| outside that range
(subnormals included), a y within 1e-6 of a tie that is not an exact tie,
and an exponent still wrong after the retry.

Each cell is laid out in a fixed 32-byte slot of four little-endian words,
left to right: sign and "0.000" prefix | digits with their point | exponent
and separator, padded with NUL bytes that one translate of the block drops.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells per call: enough to spread the cost of its hundred numpy calls, few
# enough that its temporaries (about 190 bytes a cell) stay near 1.5 MB.
# Writing the trajectory tables after a simulation, 8192 beat 4096 on both
# the 20 001 x 28 and the 2 001 x 1003 table, and 16384 on the first.
BLOCK_CELLS = 8192

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TINY, _HUGE = 1e-280, 1e280  # the range of |v| formatted by numpy
_TIE_GAP = 1e-6  # a y whose fraction is this close to 1/2 may be a tie
_K0 = -266  # smallest power of ten in the table; 16 - X spans [-265, 297]
_X0 = -300  # smallest exponent in the per-exponent tables
_FALLBACK = 1  # the byte a cell formatted by Python leaves in the output


def _word(text: bytes, at: int = 0) -> int:
    """The little-endian word whose bytes from `at` on are `text`."""
    return int.from_bytes(bytes(at) + text, "little")


@functools.cache
def _tables() -> dict:
    """Lookup tables, built on first use so that importing costs nothing."""
    # 10^k = hi + lo, hi split by Veltkamp into hh + hl of 26 bits each
    hi, lo = [], []
    for k in range(_K0, 299):
        if k >= 0:
            h = float(10**k)
            hi.append(h)
            lo.append(float(10**k - int(h)))
        else:
            den = 10**-k
            h = 1 / den  # int / int rounds correctly
            num, h_den = h.as_integer_ratio()
            hi.append(h)
            lo.append((h_den - num * den) / (h_den * den))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)

    # per 4-digit chunk: its ASCII digits as a word, and its trailing zeros
    d = np.arange(10000, dtype=np.uint64)
    chunk = (d // 1000 + 48) | (d // 100 % 10 + 48) << 8 | (d // 10 % 10 + 48) << 16 | (d % 10 + 48) << 24
    tz = sum((d % 10**j == 0).astype(np.uint8) for j in range(1, 5))

    # per exponent X: digits before the point (0: none, after a "0." prefix),
    # the sign-and-prefix word less its sign, and the exponent word
    xs = range(_X0, -_X0 + 1)
    point = np.array([1 if x < -4 or x >= 17 else max(x + 1, 0) for x in xs])
    prefix = np.array([_word(b"0." + b"0" * (-x - 1), 1) if -4 <= x < 0 else 0 for x in xs],
                      dtype=np.uint64)
    expo = np.array([_word(b"e%+03d" % x) if x < -4 or x >= 17 else 0 for x in xs],
                    dtype=np.uint64)

    # per (P, K), P digits before the point and K digits kept: three-word
    # masks over the 18-byte digits-with-point string of the bytes taken from
    # the digits, from the digits shifted one byte on, and the point itself
    masks = np.zeros((3, 3, 18 * 18), dtype=np.uint64)
    for p in range(18):
        for k in range(p, 18):
            keep = (1 << 8 * p) - 1
            shifted = (1 << 8 * (k + 1)) - (1 << 8 * (p + 1))
            dot = ord(".") << 8 * p if 0 < p < k else 0
            for m, value in enumerate((keep, shifted, dot)):
                masks[m, :, 18 * p + k] = [(value >> 64 * w) & (2**64 - 1) for w in range(3)]
    return {
        "hi": hi, "hh": hh, "hl": hi - hh, "lo": np.array(lo), "chunk": chunk, "tz": tz,
        "point": point, "prefix": prefix, "expo": expo, "masks": masks,
    }


def _scaled(a: np.ndarray, x: np.ndarray, t: dict) -> tuple:
    """y = a 10^(16-x) as p + yl: p = fl(a 10^(16-x)) and yl its error."""
    k = 16 - x - _K0
    hi, hh, hl = t["hi"].take(k), t["hh"].take(k), t["hl"].take(k)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * t["lo"].take(k)


def _step(p, yl) -> np.ndarray:
    """-1 where y = p + yl < 1e16 - 0.02, +1 where y >= 1e17 + 0.25, else 0.

    Between the thresholds both exponents give the same digits once the
    carry of a y that rounds to 1e17 is taken, so the margins only have to
    exceed the 1e-14 error of p + yl.
    """
    return ((p - 1e17) + yl >= 0.25).astype(np.int64) - ((p - 1e16) + yl < -0.02)


def _decimal(v: np.ndarray, t: dict) -> tuple:
    """|v| to 17 significant digits: the digits as an integer n in
    [1e16, 1e17) (0 for a zero), the decimal exponent x, and a mask of the
    cells whose n and x are not certified, to be formatted by Python."""
    a = np.abs(v)
    fast = (a >= _TINY) & (a <= _HUGE)
    zero = a == 0
    fallback = ~(fast | zero)
    a = np.where(fast, a, 1.0)

    x = np.floor(np.log10(a)).astype(np.int64)
    p, yl = _scaled(a, x, t)
    # a p strictly between 1e16 and 1e17 is 2 above and 16 below them or
    # more, with |yl| at most half that spacing: only p at the ends can miss
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    step = _step(p[edge], yl[edge])
    redo = edge[step != 0]
    if redo.size:
        x[redo] += step[step != 0]
        p[redo], yl[redo] = _scaled(a[redo], x[redo], t)
        fallback[redo[_step(p[redo], yl[redo]) != 0]] = True

    # n = p + round(yl), as p >= 1e16 - 1 is an integer
    yl += 0.5
    r = np.floor(yl)
    frac = yl - r
    n = p.astype(np.int64) + r.astype(np.int64)
    near = np.flatnonzero((frac < _TIE_GAP) | (frac > 1 - _TIE_GAP))
    if near.size:
        # With |v| = M 2^e, M odd, y = M 5^k 2^(e+k) for k = 16 - x >= 0,
        # so y is a tie exactly when e + k = -1. For k < 0, |v| >= 1e17 has
        # e > -1 - k and y no tie. Exact ties round half to even; any other
        # y this near one goes to Python.
        m, e = np.frexp(a[near])
        bits = (m * 2.0**53).astype(np.int64)
        e += np.frexp((bits & -bits).astype(np.float64))[1] - 54
        tie = e + 16 - x[near] == -1
        up = p[near].astype(np.int64) + np.rint(yl[near]).astype(np.int64)
        n[near[tie]] = (up - (up & 1))[tie]
        fallback[near[~tie]] = True
    carry = n == 10**17
    n[carry] = 10**16
    x += carry
    n[zero] = 0
    return n, x, fallback


def _digit_words(n: np.ndarray, point: np.ndarray, t: dict) -> list:
    """The 17 digits of each n with a point after `point` of them (none for
    0) and the zeros after the point dropped, as three little-endian words
    of ASCII bytes."""
    # n = c0 c1 c2 c3 c4: one digit, then four chunks of four
    upper = n // 10**8
    lower = n - upper * 10**8
    c0 = upper // 10**8
    upper -= c0 * 10**8
    c1 = upper // 10**4
    c2 = upper - c1 * 10**4
    c3 = lower // 10**4
    c4 = lower - c3 * 10**4
    # trailing zeros of the last 16 digits; past c4 only where c4 is 0
    tz = t["tz"]
    z = tz.take(c4)
    tail = np.flatnonzero(c4 == 0)
    if tail.size:
        zt = tz.take(c1[tail])
        for c in (c2, c3):
            zt = np.where(c[tail] == 0, zt + 4, tz.take(c[tail]))
        z[tail] += zt
    chunk = t["chunk"]
    w2, w4 = chunk.take(c2), chunk.take(c4)
    digits = (
        (c0 + 48).astype(np.uint64) | (chunk.take(c1) << 8) | (w2 << 40),
        (w2 >> 24) | (chunk.take(c3) << 8) | (w4 << 40),
        w4 >> 24,
    )
    # bytes below P stay, the rest move up one byte past the point, and only
    # the first max(17 - z, P) digits are kept
    pk = 18 * point + np.maximum(17 - z, point)
    keep, shifted, dot = t["masks"]
    words, spill = [], 0
    for w, d in enumerate(digits):
        words.append((d & keep[w].take(pk)) | (((d << 8) | spill) & shifted[w].take(pk)) | dot[w].take(pk))
        spill = d >> 56
    return words


def csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 block: every cell as `'%.17g' % v`,
    `,` between the cells of a row and CRLF after each row."""
    t = _tables()
    rows, cols = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n, x, fallback = _decimal(v, t)
    xi = x - _X0
    g = _digit_words(n, t["point"].take(xi), t)

    sep = np.full(cols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\r") | ord("\n") << 8
    slots = np.empty((rows, cols, 4), dtype="<u8")
    slots[..., 0] = (t["prefix"].take(xi) | (np.signbit(v) * np.uint64(ord("-")))
                     | (g[0] << 48)).reshape(rows, cols)
    slots[..., 1] = ((g[0] >> 16) | (g[1] << 48)).reshape(rows, cols)
    slots[..., 2] = ((g[1] >> 16) | (g[2] << 48)).reshape(rows, cols)
    slots[..., 3] = t["expo"].take(xi).reshape(rows, cols) | (sep << 40)
    if not fallback.any():
        return slots.tobytes().translate(None, b"\0")

    flat = slots.reshape(-1, 4)
    flat[fallback, :3] = [_FALLBACK, 0, 0]
    flat[fallback, 3] &= np.uint64(0xFFFF << 40)
    parts = slots.tobytes().translate(None, b"\0").split(bytes([_FALLBACK]))
    out = [b""] * (2 * len(parts) - 1)
    out[::2] = parts
    out[1::2] = [b"%.17g" % value for value in v[fallback].tolist()]
    return b"".join(out)
