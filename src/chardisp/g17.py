"""Exact printf ``%.17g`` over whole float64 arrays: the CSV cell formatter.

``csv_text(table)`` returns, byte for byte and for every double, the text
that formatting each cell with ``"%.17g" % v``, joining a row's cells with
commas and ending each row with a newline, gives -- as ASCII bytes, ready
to be written, and without a Python call per cell.

* Cells with 1e-5 <= |v| < 1e17 are candidates for fixed notation.  With
  k = floor(log10 |v|) and q = 16 - k, 10**q is an exact double
  (0 <= q <= 22) and Dekker's two-product, with Veltkamp splitting so no
  FMA is needed, gives |v| * 10**q = p + e exactly.  On [1e16, 1e17) every
  double p is an even integer, so rounding p + e half to even is
  p + rint(e): the 17 significant digits N, exactly.  A product outside
  [1e16, 1e17) -- log10 can misjudge k next to a power of ten -- is redone
  with k -/+ 1, and N = 1e17 becomes 1e16 one decade up.  The candidates
  whose decimal exponent X then lies in [-4, 16] are the cells ``%g``
  prints in fixed notation.
* Every other cell -- zeros, subnormals, |v| < 1e-4, scientific notation,
  infinities and NaN -- is formatted by Python's own ``%`` and spliced in,
  so the reference formatter itself, not a second approximation, covers it.
* A table of fewer than ``SMALL_TABLE_CELLS`` (256) cells skips the arrays
  and goes through one ``%`` call on the whole table.  The array path's
  fixed cost is about 130 numpy calls, so below that measured crossover
  the reference formatter is also the faster one: a 21 x 2 table takes
  about 19 us through ``%`` against 85 us through the arrays (2-core Xeon).

The text is assembled in a (25, cells) byte array, one row per byte slot of
a cell, so every array operation runs along all cells at once: a sign, the
"0.000" that leads a fixed-notation number below 1, 18 body bytes (17
digits and a decimal point), then the comma or newline that ends the cell.
Slots a cell does not use hold spaces, which no cell's text contains and
which are deleted once the array is read out cell by cell.  The first 24
slots also hold the longest ``%.17g`` text, "-1.7976931348623157e+308".
"""
from __future__ import annotations

import numpy as np

SMALL_TABLE_CELLS = 256  # fewer cells: one ``%`` call (see above)

_WIDTH = 24
_SPACE = ord(" ")
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None] - np.uint8(_SPACE)
_LEAD_SLOTS = np.arange(1, 6, dtype=np.uint8)[:, None]
_BODY_SLOTS = np.arange(18, dtype=np.uint8)[:, None]

_POW10 = np.array([float(10**i) for i in range(23)])  # exact: 5**22 < 2**53
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(x):
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


_POW10_PARTS = np.stack([_POW10, *_split(_POW10)])  # 10**q and its two halves, by q

# q = 16 - clip(k, -5, 16) for the float32 guess k = floor(log10 a), indexed
# by k + 6; k lies in [-6, 17], and a take clipped to the table maps 17 to 16.
_Q_BY_K = 16 - np.maximum(np.arange(-6, 17), -5)

# Indexed by the decimal exponent x + 6, for x in [-6, 17]: whether %g
# prints fixed notation, the body slot after which the point follows (17
# for none), the lead's length ("0.000" cut to 1 - x bytes below 1), and,
# by x + 6 and the slot of the last nonzero digit, the body's length.
_X = np.arange(-6, 18)
_FIXED = (_X >= -4) & (_X <= 16)
_POINT_LEAD = np.stack([np.where(_X >= 0, np.minimum(_X, 17), 17),
                        np.where(_X < 0, 1 - _X, 0)]).astype(np.uint8)
_LAST = np.arange(17)
_BODY_LEN = np.where(_LAST > _X[:, None], _LAST + 1 + (_X[:, None] >= 0), _X[:, None] + 1).astype(np.uint8)


def _scaled(a, q):
    """(p, e) with p = fl(a * 10**q) and p + e = a * 10**q exactly."""
    t, sh, sl = _POW10_PARTS.take(q, axis=1)
    p = a * t
    ah, al = _split(a)
    e = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    return p, e


def _outside(p, e):
    """Whether the exact product p + e lies outside [1e16, 1e17]."""
    return (p < 1e16) | ((p == 1e16) & (e < 0)) | (p > 1e17) | ((p == 1e17) & (e > 0))


def _digits(n, out):
    """The 17 decimal digits of each n in [1e16, 1e17), most significant
    first, as values 0-9 into the rows of the (17, len(n)) uint8 array out."""
    hi = n // 10**8
    halves = np.empty((2, n.size), dtype=np.int64)  # digits 1-8 and 9-16
    np.subtract(n, hi * 10**8, out=halves[1])
    np.floor_divide(hi, 10**8, out=halves[0])
    out[0] = halves[0]
    np.subtract(hi, halves[0] * 10**8, out=halves[0])
    halves = halves.astype(np.uint32)
    quads = np.empty((4, n.size), dtype=np.uint32)
    np.floor_divide(halves, 10**4, out=quads[0::2])
    np.subtract(halves, quads[0::2] * np.uint32(10**4), out=quads[1::2])
    quads = quads.astype(np.uint16)
    pairs = np.empty((8, n.size), dtype=np.uint16)
    np.floor_divide(quads, 100, out=pairs[0::2])
    np.subtract(quads, pairs[0::2] * np.uint16(100), out=pairs[1::2])
    pairs = pairs.astype(np.uint8)
    np.floor_divide(pairs, 10, out=out[1::2])
    np.subtract(pairs, out[1::2] * np.uint8(10), out=out[2::2])


def csv_text(table: np.ndarray) -> bytes:
    """The rows of a 2-D float array as CSV lines in ASCII bytes, every cell
    exactly as ``"%.17g" % cell`` prints it."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).reshape(-1)
    if v.size < SMALL_TABLE_CELLS:
        return ((("%.17g," * (cols - 1) + "%.17g\n") * rows) % tuple(v.tolist())).encode("ascii")
    # Finite arithmetic for every cell: zeros, NaN and |v| < 1e-5 become
    # 1e-5, infinities and |v| >= 1e17 become 1e17, and the decimal exponent
    # of either (-5 or 17) sends the cell to the slow path below.
    a = np.fmin(np.fmax(np.abs(v), 1e-5), 1e17)
    k = np.floor(np.log10(a.astype(np.float32)))  # may be off by one; see redo
    q = _Q_BY_K.take(k.astype(np.intp) + 6, mode="clip")
    del k
    p, e = _scaled(a, q)
    # q starts in [0, 21]; a redo never lowers q = 0, whose product is a
    # itself, so q stays within the table of powers.
    redo = np.flatnonzero(_outside(p, e))
    if redo.size:
        q[redo] += 1 - 2 * (p[redo] > 1e16)
        p[redo], e[redo] = _scaled(a[redo], q[redo])
        redo = redo[_outside(p[redo], e[redo])]  # still outside: slow path
    # Each temporary is dropped at its last use, so that the peak holds as
    # few per-cell arrays at once as the steps allow.
    del a
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    del p, e
    rolled = n == 10**17
    n[rolled] = 10**16
    ix = 22 - q + rolled  # x + 6 for the decimal exponent x
    del q, rolled
    fast = _FIXED.take(ix)
    fast[redo] = False

    # Body byte j is digit j up to the point's slot, digit j - 1 after it,
    # computed as digit values, then as ASCII less a space.
    digits = np.empty((19, v.size), dtype=np.uint8)  # digit j - 1 in row j
    _digits(n, digits[1:18])
    del n
    last = (_BODY_SLOTS[:17] * (digits[1:18] != 0).view(np.uint8)).max(axis=0)
    point, lead_len = _POINT_LEAD.take(ix, axis=1)
    body_len = _BODY_LEN.take(ix * 17 + last)
    del ix, last

    buf = np.empty((_WIDTH + 1, v.size), dtype=np.uint8)
    np.multiply((v < 0).view(np.uint8), np.uint8(ord("-") - _SPACE), out=buf[0])
    np.multiply((_LEAD_SLOTS <= lead_len).view(np.uint8), _LEAD, out=buf[1:6])
    body = buf[6:24]
    left, right = digits[1:19], digits[0:18]  # garbage in rows 0 and 18 is
    np.subtract(left, right, out=body)  # multiplied away or lies past body_len
    body *= (_BODY_SLOTS <= point).view(np.uint8)
    body += right
    del digits, left, right
    body += np.uint8(ord("0") - _SPACE)
    is_point = (_BODY_SLOTS == point + np.uint8(1)).view(np.uint8)
    body += is_point * (np.uint8(ord(".") - _SPACE) - body)  # wraps mod 256
    del is_point
    body *= (_BODY_SLOTS < body_len).view(np.uint8)
    buf[:_WIDTH] += np.uint8(_SPACE)
    ends = buf[_WIDTH].reshape(rows, cols)
    ends[:, :-1] = ord(",")
    ends[:, -1] = ord("\n")

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (f"%-{_WIDTH}.17g" * slow.size) % tuple(v[slow].tolist())
        cells = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(slow.size, _WIDTH)
        buf[:_WIDTH, slow] = cells.T
    spaced = buf.T.tobytes()
    del buf, body, ends
    return spaced.translate(None, b" ")
