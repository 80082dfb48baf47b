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
and an exponent still wrong after the retry. Its text, at most 24 bytes,
is written NUL-padded over bytes 0-30 of its slot.

Each cell is laid out in a fixed 32-byte slot of four little-endian words,
and each row ends in one more word holding its CRLF:

    byte  0       sign bit (1 for '-')
          1-5     "0." and the zeros after it, for |v| in [1e-4, 1)
          6       the first digit
          7-26    digits 1-16 as four 5-byte fields, one per 4-digit chunk
          26-30   exponent, "e-05" or "e+123"
          31      ','

A field holds its four digits with the point inserted where it falls, and
with the zeros that end the digits after the point dropped; the exponent
shares byte 26 with the fifth byte of the last field, as no cell needs
both. Empty bytes are NUL. One `translate` of the block drops the NULs and
maps byte 1 to '-'. A field is one lookup in a table of every variant of
every chunk, and each per-exponent value is one lookup in a table indexed
by the exponent itself.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells per call: enough to spread the fixed cost of its numpy calls (about
# 50 us a call), few enough that its temporaries (about 120 bytes a cell)
# stay near 1 MB. Inside `simulate` runs (4096, 8192 and 12288 in turn, one
# process each, six rounds, a 2-vCPU VM) the medians were 109, 93 and 104 ns
# a cell on the 20 001 x 28 table and 99, 91 and 88 on the 2 001 x 1003 one;
# at 12288 glibc also gave the freed temporaries back to the system after
# each block and faulted them in again, 200-420 times a table.
BLOCK_CELLS = 8192

_TINY, _HUGE = 1e-280, 1e280  # the range of |v| formatted by numpy
_TIE_GAP = 1e-6  # a y whose fraction is this close to 1/2 may be a tie
_XMAX = 282  # the tables cover exponents -282..282, the range the retry can reach
_MINUS = 1  # the byte of the sign bit, which translate maps to '-'
_CHUNK = 10**4  # entries of one field variant: one per 4-digit chunk
_PLAIN, _STRIP, _POINT, _POINT_STRIP = 0, 1, 2, 6  # field variants; + j for a point before digit j
_SEP = np.uint64(0xFF << 56)  # the separator byte of a slot's last word
_CRLF = int.from_bytes(b"\r\n", "little")  # the word that ends a row


def _word(text: bytes, at: int = 0) -> int:
    """The little-endian word whose bytes from `at` on are `text`."""
    return int.from_bytes(bytes(at) + text, "little")


def _high(a: np.ndarray) -> np.ndarray:
    """a rounded to its 26 leading bits, through its bit pattern: the high
    part of the split a = ah + al of Dekker's product, both of 26 bits."""
    ah = np.add(a.view(np.uint64), np.uint64(1 << 26))
    ah &= np.uint64(-1 << 27 & (1 << 64) - 1)
    return ah.view(np.float64)


def _variants(point: int, strip: bool) -> list:
    """The field variant of each of the four chunks, digits 1-4, 5-8, 9-12
    and 13-16, for a point before digit `point` (0: no point from the digits;
    17: none) and zeros dropped after the point in each field if `strip`."""
    out = []
    for start in (1, 5, 9, 13):
        j = point - start
        if 0 <= j < 4:
            out.append((_POINT_STRIP if strip else _POINT) + j)
        else:  # all before the point, or all after it
            out.append(_STRIP if strip and j < 0 else _PLAIN)
    return out


@functools.cache
def _tables() -> dict:
    """Lookup tables, built on first use so that importing costs nothing.

    The per-exponent tables are indexed by the exponent x itself, with
    mode="wrap": row x % len for x in [-_XMAX, _XMAX]."""
    xs = np.arange(2 * _XMAX + 1)
    xs = np.where(xs <= _XMAX, xs, xs - (2 * _XMAX + 1)).tolist()

    # 10^(16-x) = hi + lo, hi split into hh + hl of 26 bits each
    hi, lo = [], []
    for x in xs:
        k = 16 - x
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
    hh = _high(hi)
    scale = np.stack([hi, hh, hi - hh, np.array(lo)], axis=1)

    # per exponent: the first word less its digits and sign and the last word
    # less its digits; each field's variant as an offset into "field", two
    # to a word; and the offsets when every field drops its ending zeros. The
    # digits before the point are x + 1 for x in [0, 16], one in the exponent
    # form and none (after a "0." prefix) for x in [-4, -1]
    words, offsets, strip = [], [], []
    for x in xs:
        fixed = -4 <= x < 17
        prefix = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        expo = b"" if fixed else b"e%+03d" % x
        point = max(x + 1, 0) if fixed else 1
        words.append([_word(prefix, 1) | _word(b"0", 6), _word(expo, 2) | _word(b",", 7)])
        o = [v * _CHUNK for v in _variants(point, False)[:3] + _variants(point, True)[3:]]
        offsets.append([o[0] | o[1] << 32, o[2] | o[3] << 32])
        strip.append([v * _CHUNK for v in _variants(point, True)])

    # per variant and chunk: the chunk's four ASCII digits, the point inserted
    # before digit j, and with a strip the zeros that end the digits after the
    # point dropped, the point too if no digit follows it. Built byte by byte
    # in place, so that the tables' making peaks at little more than their size
    d = np.arange(_CHUNK)
    digits = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")).astype(np.uint8)
    zeros = np.cumprod(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1].astype(bool)  # to the end
    stripped = np.where(zeros, 0, digits).astype(np.uint8)
    field = np.zeros((_POINT_STRIP + 4, _CHUNK, 8), dtype=np.uint8)
    field[_PLAIN, :, :4] = digits
    field[_STRIP, :, :4] = stripped
    for j in range(4):
        for v, after in ((_POINT + j, digits), (_POINT_STRIP + j, stripped)):
            field[v, :, :j] = digits[:, :j]
            field[v, :, j] = np.where(after[:, j:].any(axis=1), ord("."), 0)
            field[v, :, j + 1 : 5] = after[:, j:]

    return {
        "scale": scale, "words": np.array(words, dtype="<u8"), "offsets": np.array(offsets, dtype="<u8"),
        "strip": np.array(strip, dtype=np.uint64), "field": field.view("<u8").ravel(),
        "bytes": bytes(range(256)).replace(bytes([_MINUS]), b"-"),
    }


def _scaled(a: np.ndarray, x: np.ndarray, t: dict) -> tuple:
    """y = a 10^(16-x) as p + yl: p = fl(a 10^(16-x)) and yl its error."""
    hi, hh, hl, lo = t["scale"].take(x, axis=0, mode="wrap").T
    ah = _high(a)
    al = a - ah
    p = a * hi
    yl = ah * hh
    yl -= p
    c = np.empty_like(a)
    for u, w in ((ah, hl), (al, hh), (al, hl), (a, lo)):
        yl += np.multiply(u, w, out=c)
    return p, yl


def _step(p, yl) -> np.ndarray:
    """-1 where y = p + yl < 1e16 - 0.02, +1 where y >= 1e17 + 0.25, else 0.

    Between the thresholds both exponents give the same digits once the
    carry of a y that rounds to 1e17 is taken, so the margins only have to
    exceed the 1e-14 error of p + yl.
    """
    return ((p - 1e17) + yl >= 0.25).astype(np.int64) - ((p - 1e16) + yl < -0.02)


def _settle(rare, a, x, p, yl, n, fallback, t):
    """Settle, in place, the cells `rare` whose p lies at the ends of
    [1e16, 1e17] or whose y is near a tie: their x, n and fallback."""
    pr = p[rare]
    edge = rare[(pr <= 1e16) | (pr >= 1e17)]
    if edge.size:
        step = _step(p[edge], yl[edge])
        moved = edge[step != 0]
        if moved.size:
            x[moved] += step[step != 0]
            p[moved], yl[moved] = _scaled(a[moved], x[moved], t)
            fallback[moved[_step(p[moved], yl[moved]) != 0]] = True
            n[moved] = p[moved].astype(np.int64) + np.rint(yl[moved]).astype(np.int64)
            pr = p[rare]
    yr = yl[rare]
    near = np.abs(yr - np.rint(yr)) > 0.5 - _TIE_GAP
    if near.any():
        # y = |v| 10^(16-x) is a tie exactly when 2y is an odd integer, that
        # is when |v| 2^(17-x) is one, 5^(16-x) being odd (and for x > 16
        # |v| >= 1e17 is a multiple of 2^4 at least). Exact ties round half
        # to even; any other y this near one goes to Python.
        up = pr[near].astype(np.int64) + np.rint(yr[near] + 0.5).astype(np.int64)
        near = rare[near]
        tie = np.fmod(np.ldexp(a[near], 17 - x[near]), 2.0) == 1.0
        n[near[tie]] = (up - (up & 1))[tie]
        fallback[near[~tie]] = True
    if edge.size:  # a y that rounds to 1e17
        carry = edge[n[edge] == 10**17]
        n[carry] = 10**16
        x[carry] += 1


def _decimal(v: np.ndarray, t: dict) -> tuple:
    """|v| to 17 significant digits: the digits as an integer n in
    [1e16, 1e17) (0 for a zero), the decimal exponent x, and a mask of the
    cells whose n and x are not certified, to be formatted by Python."""
    a = np.abs(v)
    clamped = np.fmax(np.fmin(a, _HUGE), _TINY)  # nan to _HUGE
    fallback = clamped != a
    a = clamped
    odd = fallback.nonzero()[0]

    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.int64)
    p, yl = _scaled(a, x, t)
    r = np.rint(yl)
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    # a p strictly between 1e16 and 1e17 is 2 above and 16 below them or
    # more, with |yl| at most half that spacing, so n = p + round(yl) has
    # the right exponent and no carry: only p at the ends, and a y near a
    # tie, need a closer look. A p at the ends gives an n within 8 of them.
    r -= yl
    rare = np.abs(r, out=r) > 0.5 - _TIE_GAP
    rare |= (n.view(np.uint64) - np.uint64(10**16 + 9)) > np.uint64(9 * 10**16 - 18)
    rare = rare.nonzero()[0]
    if rare.size:
        _settle(rare, a, x, p, yl, n, fallback, t)
    if odd.size:
        zero = odd[v[odd] == 0]
        n[zero] = x[zero] = 0
        fallback[zero] = False
    return n, x, fallback


def _chunks(n: np.ndarray) -> tuple:
    """The digits n = d0 c1 c2 c3 c4: the first digit, and the four chunks
    of four as the rows of a (4, cells) array (unsigned, which numpy divides
    faster)."""
    n = n.view(np.uint64)
    h = n // 10**8
    d0 = h // 10**8
    pair = np.empty((2, n.size), dtype=np.uint64)
    np.multiply(h, 10**8, out=pair[1])
    np.subtract(n, pair[1], out=pair[1])
    np.multiply(d0, 10**8, out=pair[0])
    np.subtract(h, pair[0], out=pair[0])
    c = np.empty((2, 2, n.size), dtype=np.uint64)
    np.floor_divide(pair, _CHUNK, out=c[:, 0])
    np.multiply(c[:, 0], _CHUNK, out=c[:, 1])
    np.subtract(pair, c[:, 1], out=c[:, 1])
    return d0, c.reshape(4, -1)


def _fill(slots: np.ndarray, v: np.ndarray, d0: np.ndarray, c: np.ndarray, x: np.ndarray, t: dict):
    """Lay out the cells in the (rows, 4 cols + 1) words `slots`, all but
    the last word of each row, from their first digits d0, chunks c and
    exponents x."""
    rows, cols = slots.shape[0], (slots.shape[1] - 1) // 4
    shape = rows, cols

    # each chunk's field: its variant's offset plus the chunk. The zeros that
    # end the digits are dropped in the last chunk; where it is 0 they reach
    # back into the chunks before it, which drop theirs too
    tail = (c[3] == 0).nonzero()[0]
    if tail.size:
        ct = c.take(tail, axis=1)
    np.add(c, t["offsets"].take(x, axis=0, mode="wrap").view("<u4").T, out=c)
    if tail.size:
        strip = ct + t["strip"].take(x[tail], axis=0, mode="wrap").T
        zero = ct[1:3] == 0  # where c2 and c3 are 0 too, fields 0 and 1 strip
        zero[0] &= zero[1]
        strip[:2] = np.where(zero, strip[:2], c[:2].take(tail, axis=1))
        c[:, tail] = strip

    # the words from the left, each store writing over the NUL bytes that end
    # the one before it: word 0, the fields at bytes 7, 12, 17 and 22, word 3
    words = slots[:, :-1].reshape(rows, cols, 4)
    fields = np.ndarray((rows, cols, 4), "<u8", slots, 7, (slots.strides[0], 32, 5))
    first, last = t["words"].take(x, axis=0, mode="wrap").T
    w = np.left_shift(d0, 48, out=d0)
    w |= first
    np.bitwise_or(w.reshape(shape), (v.view(np.uint64) >> 63).reshape(shape), out=words[..., 0])
    for k in range(4):
        f = t["field"].take(c[k])
        fields[..., k] = f.reshape(shape)
    np.right_shift(f, 16, out=f)
    np.bitwise_or(f.reshape(shape), last.reshape(shape), out=words[..., 3])


def csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 block: every cell as `'%.17g' % v`,
    `,` between the cells of a row and CRLF after each row."""
    rows, cols = block.shape
    if not block.size:
        return b"\r\n" * rows
    t = _tables()
    v = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n, x, fallback = _decimal(v, t)

    d0, c = _chunks(n)
    del n  # each array goes as soon as it is used: a block's peak is about 1 MB
    slots = np.empty((rows, 4 * cols + 1), dtype="<u8")
    _fill(slots, v, d0, c, x, t)
    del d0, c, x
    slots[:, -2] &= ~_SEP  # the last cell of a row ends in the row's CRLF
    slots[:, -1] = _CRLF
    odd = fallback.nonzero()[0]
    if odd.size:  # Python's text, at most 24 bytes, NUL-padded over bytes 0-30 of the slot
        text = np.array([b"%.17g" % value for value in v[odd].tolist()], dtype="S31")
        cells = slots[:, :-1].view(np.uint8).reshape(rows, cols, 32)
        cells[odd // cols, odd % cols, :31] = text.view(np.uint8).reshape(-1, 31)
    return slots.tobytes().translate(t["bytes"], b"\0")
