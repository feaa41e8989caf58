"""Uniform finite-difference grid on the square (-1/2, 1/2)^2.

Nodes sit at x_i = -1/2 + i*h, i = 0..M, h = 1/M, along both axes.
Homogeneous Neumann boundary conditions are realized through mirror
ghost nodes (f[-1] := f[1] and so on), which makes the discrete normal
derivative of every field vanish on the boundary.

Vector fields are (M+1, M+1, 3) float64 arrays, scalar fields are
(M+1, M+1); index [i, j] addresses the node (x_i, y_j), row-major with
the x index outermost.  Fields are treated as immutable values: every
operator allocates its result, unless given ``out``.

All global reductions (norms, integrals, energies) use numpy's pairwise
summation over the row-major node order.  That order is fixed by the
array shape alone, so repeated runs produce bit-identical numbers; the
rounding error stays within a few ulps of the sum of absolute terms.
The component sums of vector fields add x, y and z in that order.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Grid2D:
    """Uniform node-centered grid with M cells (M+1 nodes) per axis."""

    M: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"grid needs at least 2 cells per axis, got M={self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def shape(self):
        return (self.M + 1, self.M + 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(-0.5, 0.5, self.M + 1)

    def mesh(self):
        """Coordinate arrays X, Y of shape (M+1, M+1)."""
        x = self.nodes()
        return np.meshgrid(x, x, indexing="ij")


@functools.cache
def trapezoid_weights(g: Grid2D) -> np.ndarray:
    """Tensor-product trapezoid weights: 1 inside, 1/2 on edges, 1/4 at corners."""
    w1 = np.ones(g.M + 1)
    w1[0] = w1[-1] = 0.5
    w = np.outer(w1, w1)
    w.setflags(write=False)
    return w


def _sum(a: np.ndarray) -> float:
    # pairwise sum in a fixed (row-major) order: deterministic, not exact
    return float(np.add.reduce(a, axis=None))


def _sum3(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) for three components, bit for bit, without the reduction."""
    s = x[..., 0] + x[..., 1]
    s += x[..., 2]
    # numpy's sum starts from +0.0, which turns an all -0.0 sum into +0.0
    s += 0.0
    return s


def _mirror_pad(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f with one mirror ghost layer on each side, as np.pad(mode="reflect"),
    written into ``out`` when given."""
    fp = out
    if fp is None:
        fp = np.empty((f.shape[0] + 2, f.shape[1] + 2) + f.shape[2:], dtype=f.dtype)
    fp[1:-1, 1:-1] = f
    fp[0, 1:-1] = f[1]
    fp[-1, 1:-1] = f[-2]
    fp[:, 0] = fp[:, 2]
    fp[:, -1] = fp[:, -3]
    return fp


def _check_shape(f: np.ndarray, g: Grid2D):
    if f.shape[:2] != g.shape:
        raise ValueError(f"field shape {f.shape} does not match grid M={g.M}")


def laplacian(f: np.ndarray, g: Grid2D, out: np.ndarray | None = None,
              pad: np.ndarray | None = None) -> np.ndarray:
    """5-point Laplacian with mirror ghost nodes (Neumann boundary).

    The result goes to ``out`` and the padded copy of f to ``pad``, an
    (M+3, M+3, ...) scratch array; each is allocated when not given, and
    ``out`` must not overlap f.
    """
    _check_shape(f, g)
    fp = _mirror_pad(f, pad)
    if out is None:
        out = np.empty(f.shape)
    np.add(fp[2:, 1:-1], fp[:-2, 1:-1], out=out)
    out += fp[1:-1, 2:]
    out += fp[1:-1, :-2]
    centre = fp[1:-1, 1:-1]  # a copy of f; the padded copy is scratch from here
    centre *= 4.0
    out -= centre
    out /= g.h * g.h
    return out

def gradient(f: np.ndarray, g: Grid2D):
    """Centered-difference components (df/dx, df/dy), mirror ghosts at the boundary."""
    _check_shape(f, g)
    fp = _mirror_pad(f)
    s = 1.0 / (2.0 * g.h)
    fx = (fp[2:, 1:-1] - fp[:-2, 1:-1]) * s
    fy = (fp[1:-1, 2:] - fp[1:-1, :-2]) * s
    return fx, fy


def gradient_sq(f: np.ndarray, g: Grid2D) -> np.ndarray:
    """Node-wise |grad f|^2, summed over both axes and (for vector fields) components."""
    fx, fy = gradient(f, g)
    sq = fx * fx + fy * fy
    if f.ndim == 3:
        sq = _sum3(sq)
    return sq


def grad_magnitude(f: np.ndarray, g: Grid2D) -> np.ndarray:
    """Node-wise Frobenius norm of the centered-difference gradient."""
    return np.sqrt(gradient_sq(f, g))


def magnitude(f: np.ndarray) -> np.ndarray:
    """Node-wise Euclidean magnitude (abs for scalar fields)."""
    if f.ndim == 3:
        return np.sqrt(_sum3(f * f))
    return np.abs(f)


def lp_norm(f: np.ndarray, p: float, g: Grid2D) -> float:
    """Discrete L^p(Omega) norm with trapezoid quadrature; p = inf gives the node max."""
    _check_shape(f, g)
    m = magnitude(f)
    if p == math.inf:
        return float(m.max())
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    s = _sum(trapezoid_weights(g) * m**p) * g.h * g.h
    return s ** (1.0 / p)


def integrate(f: np.ndarray, g: Grid2D) -> float:
    """Trapezoid integral of a scalar field over the domain."""
    _check_shape(f, g)
    return _sum(trapezoid_weights(g) * f) * g.h * g.h


def dirichlet_form(f: np.ndarray, g: Grid2D) -> float:
    """Edge-based Dirichlet energy sum_edges h^2 * w |D+ f|^2.

    This is exactly -<laplacian(f), f> in the trapezoid-weighted inner
    product, i.e. the gradient part of the invariant that the midpoint
    scheme conserves.
    """
    _check_shape(f, g)
    w1 = np.ones(g.M + 1)
    w1[0] = w1[-1] = 0.5
    dx = f[1:, :] - f[:-1, :]
    dy = f[:, 1:] - f[:, :-1]
    sqx = dx * dx
    sqy = dy * dy
    if f.ndim == 3:
        sqx = _sum3(sqx)
        sqy = _sum3(sqy)
    return _sum(sqx * w1[None, :]) + _sum(sqy * w1[:, None])


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
          tmp: np.ndarray | None = None) -> np.ndarray:
    """Node-wise cross product of vector fields, bitwise equal to np.cross.

    The result goes to ``out``, which must not overlap a or b, and ``tmp``,
    a scalar field, holds one product at a time; each is allocated when
    not given.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    if tmp is None:
        tmp = np.empty(out.shape[:-1])
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        out_k = out[..., k]  # a_i * b_j - a_j * b_i
        np.multiply(a[..., i], b[..., j], out=out_k)
        np.multiply(a[..., j], b[..., i], out=tmp)
        out_k -= tmp
    return out


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _sum3(a * b)


def constant_field(g: Grid2D, v) -> np.ndarray:
    out = np.empty(g.shape + (3,))
    out[:] = np.asarray(v, dtype=float)
    return out


def unit_deviation(u: np.ndarray) -> float:
    """max over nodes of | |u| - 1 |."""
    return float(np.abs(magnitude(u) - 1.0).max())


def orthogonality_deviation(u: np.ndarray, w: np.ndarray) -> float:
    """max over nodes of |u . w|."""
    return float(np.abs(dot(u, w)).max())


# ---------------------------------------------------------------------------
# field I/O

_HEADER_PREFIX = "WMFIELD v1"


def write_field(path, f: np.ndarray):
    """Binary field dump: ASCII header line, then little-endian f64 triples."""
    if f.ndim != 3 or f.shape[0] != f.shape[1] or f.shape[2] != 3:
        raise ValueError(f"expected (M+1, M+1, 3) field, got shape {f.shape}")
    m = f.shape[0] - 1
    with open(path, "wb") as fh:
        fh.write(f"{_HEADER_PREFIX} M={m} comps=3\n".encode("ascii"))
        fh.write(np.ascontiguousarray(f, dtype="<f8").tobytes())


def read_field(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError(f"not a field dump: {header!r}")
        fields = dict(tok.split("=") for tok in header.split()[2:])
        if "M" not in fields or "comps" not in fields:
            raise ValueError(f"field dump header lacks M or comps: {header!r}")
        m = int(fields["M"])
        comps = int(fields["comps"])
        if m < 0:
            raise ValueError(f"negative grid size M={m}")
        if comps != 3:
            raise ValueError(f"unsupported component count {comps}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    expected = (m + 1) * (m + 1) * 3
    if data.size != expected:
        raise ValueError(f"truncated field dump: {data.size} values, expected {expected}")
    return data.reshape(m + 1, m + 1, 3).copy()


# "%.17g" in numpy.  CPython's conversion is correctly rounded (Gay 1990)
# and at 17 digits it leaves its fast path, at about 1 us per value.  The
# kernel below computes the same 17 digits from Dekker's exact product and
# hands every value it cannot certify back to "%.17g".

# node rows per block of the CSV writer: at M = 128 a block's arrays peak
# near 0.8 MB, where formatting the whole field at once takes about 10 MB
_CSV_BLOCK_ROWS = 8
_G17_WIDTH = 45  # sign, "0.000", 17 digit and point slots, "e+308"
_G17_TIE = 1e-9  # a fraction this close to 1/2 is not certified
_POW10_MIN = -292  # 10^k for k = 16 - E, E = -324..308 and one to spare
_POW10_MAX = 341


def _split(a):
    """Veltkamp split a = hi + lo into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _g17_tables():
    """Column c of the first table holds the 4 ASCII digits of c, for
    c < 10000.  The others give 10^k = m_k * 2^t_k for k = _POW10_MIN ..
    _POW10_MAX: m_k in [1, 2) as a double-double hi + lo with
    |hi + lo - m_k| <= 2^-106, hi's Veltkamp halves, and t_k.  They are
    built on first use, from exact integers."""
    place = np.array([[1000], [100], [10], [1]], dtype=np.uint16)
    chunks = (np.arange(10000, dtype=np.uint16) // place % 10 + 48).astype(np.uint8)
    hi, lo, shift = [], [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        t = num.bit_length() - den.bit_length()  # floor(log2(10^k)) or one more
        if num << max(-t, 0) < den << max(t, 0):
            t -= 1
        # s = m_k * 2^105 rounded to an integer: hi holds its top 53 bits and
        # lo the remainder (at most 2^52, so exact)
        a, b = (num << (105 - t), den) if t <= 105 else (num, den << (t - 105))
        s = (2 * a + b) // (2 * b)
        top = float(s)
        hi.append(math.ldexp(top, -105))
        lo.append(math.ldexp(float(s - int(top)), -105))
        shift.append(t)
    hi = np.array(hi)
    return chunks, hi, *_split(hi), np.array(lo), np.array(shift, dtype=np.int32)


def _g17(v: np.ndarray) -> np.ndarray:
    """Column i holds the ASCII bytes of "%.17g" % v[i], NUL-padded to
    _G17_WIDTH rows.

    For finite nonzero x with E = floor(log10|x|) (estimated from log10),
    V = |x| * 10^(16-E) is formed as xs * (hi + lo) with xs = |x| * 2^t
    exact: Dekker's TwoProduct gives xs*hi = p + err exactly, and r = err
    + xs*lo is added in double.  With V < 10^17 < 2^57: |err| <= ulp(p)/2
    <= 8, |xs*lo| <= 2^57 * 2^-53 = 16 (rounding error <= 2^-49), |r| < 25
    (rounding error <= 2^-49), and a 2^-104 relative error in m_k costs at
    most 2^57 * 2^-104 = 2^-47.  So |V - (p + r)| < 2^-46, about 1.4e-14.
    Since p >= 2^53 is an integer, floor(V) = p + floor(r) exactly, and
    rounding V to the nearest integer is certified unless frac(r) lies
    within _G17_TIE of 1/2 (every exact tie does), or floor(V) falls
    outside [10^16, 10^17 - 1) (E was off by one, or the rounding could
    carry into an 18th digit).  Uncertified values and non-finite ones go
    through "%.17g"; signed zeros become "0" / "-0".  The 17 digits are
    laid out as %g lays them out at precision 17: fixed notation for
    -4 <= E < 17, else d.ddde+XX, with trailing zeros and a bare point
    stripped.
    """
    chunks, p_hi, p_hi_a, p_hi_b, p_lo, p_shift = _g17_tables()
    a = np.abs(v)
    finite = np.isfinite(a)
    zero = a == 0.0
    np.copyto(a, 1.0, where=zero | ~finite)
    e = np.floor(np.log10(a)).astype(np.int32)
    k = 16 - _POW10_MIN - e
    xs = np.ldexp(a, p_shift[k])
    hi_a, hi_b = p_hi_a[k], p_hi_b[k]
    p = xs * p_hi[k]
    xs_a, xs_b = _split(xs)
    err = ((xs_a * hi_a - p) + xs_a * hi_b + xs_b * hi_a) + xs_b * hi_b
    r = err + xs * p_lo[k]
    fl = np.floor(r)
    frac = r - fl
    n = p.astype(np.int64) + fl.astype(np.int64)
    fallback = ~finite | (np.abs(frac - 0.5) < _G17_TIE) | (n < 10**16) | (n >= 10**17 - 1)
    n += frac > 0.5
    n[zero] = 0
    e[zero] = 0

    digits = np.empty((17, len(v)), dtype=np.uint8)
    for row in (13, 9, 5, 1):
        n, c = np.divmod(n, 10000)
        digits[row:row + 4] = np.take(chunks, c, axis=1)
    digits[0] = n + 48
    j = np.arange(17, dtype=np.uint8)[:, None]
    last = ((digits != 48) * j).max(axis=0)  # the last nonzero digit; 0 for zeros

    fixed = (e >= -4) & (e < 17)
    lead = fixed & (e < 0)  # "0.", then -E-1 zeros
    expo = ~fixed
    rec = np.zeros((_G17_WIDTH, len(v)), dtype=np.uint8)
    np.copyto(rec[0], ord("-"), where=np.signbit(v))
    np.copyto(rec[1], ord("0"), where=lead)
    np.copyto(rec[2], ord("."), where=lead)
    np.copyto(rec[3:6], ord("0"), where=lead & (np.arange(3)[:, None] < -1 - e))
    # digit j in row 6 + 2j, a point after it in row 7 + 2j; fixed notation
    # keeps the integer part
    keep = np.where(fixed & (e > last), e, last).astype(np.uint8)
    np.multiply(digits, j <= keep, out=rec[6:40:2])
    point = np.where(fixed, e, 0)
    dot = np.flatnonzero((last > point) & ~lead)
    rec[7 + 2 * point[dot], dot] = ord(".")
    ae = np.abs(e)
    np.copyto(rec[40], ord("e"), where=expo)
    rec[41] = np.where(expo, np.where(e < 0, ord("-"), ord("+")), 0)
    rec[42] = np.where(expo & (ae >= 100), 48 + ae // 100, 0)
    rec[43] = np.where(expo, 48 + ae // 10 % 10, 0)
    rec[44] = np.where(expo, 48 + ae % 10, 0)

    for i in np.flatnonzero(fallback & ~zero):
        text = ("%.17g" % v[i]).encode("ascii")
        rec[:, i] = 0
        rec[:len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return rec


@functools.cache
def _csv_coords(g: Grid2D) -> np.ndarray:
    """Row i holds "%.17g" % x_i and a comma, padded with NULs."""
    text = [("%.17g," % x).encode("ascii") for x in g.nodes()]
    c = np.zeros((g.M + 1, max(map(len, text))), dtype=np.uint8)
    for row, t in zip(c, text):
        row[:len(t)] = np.frombuffer(t, dtype=np.uint8)
    c.setflags(write=False)
    return c


def write_field_csv(path, f: np.ndarray, g: Grid2D):
    """Plain-text exporter (x, y, u1, u2, u3), row-major, for plotting.

    Every number is written exactly as "%.17g" writes it.  The values are
    formatted in numpy, in blocks of _CSV_BLOCK_ROWS node rows: 17
    correctly rounded digits from an exact product, certified unless the
    computed fraction lies within _G17_TIE = 1e-9 of 1/2 or the digits
    leave [10^16, 10^17 - 1).  Each uncertified or non-finite value falls
    back to "%.17g" itself, so exact ties round half-even as Python does.
    """
    if f.shape != g.shape + (3,):
        raise ValueError(f"expected a {g.shape + (3,)} field, got shape {f.shape}")
    coords = _csv_coords(g)
    cw = coords.shape[1]
    n = g.M + 1
    with open(path, "wb") as fh:
        fh.write(b"x,y,u1,u2,u3\n")
        for i0 in range(0, n, _CSV_BLOCK_ROWS):
            rows = np.asarray(f[i0:i0 + _CSV_BLOCK_ROWS], dtype=np.float64)
            nb = rows.shape[0]
            # each line: x, y, then every value followed by "," or "\n";
            # the NUL padding is dropped when the block is written
            block = np.empty((nb, n, 2 * cw + 3 * (_G17_WIDTH + 1)), dtype=np.uint8)
            block[:, :, :cw] = coords[i0:i0 + nb, None]
            block[:, :, cw:2 * cw] = coords
            vals = block[:, :, 2 * cw:].reshape(nb, n, 3, _G17_WIDTH + 1)
            vals[..., :-1] = _g17(rows.reshape(-1)).T.reshape(nb, n, 3, _G17_WIDTH)
            vals[..., :2, -1] = ord(",")
            vals[..., 2, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\0"))
