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


_WEIGHTS: dict[int, np.ndarray] = {}


def trapezoid_weights(g: Grid2D) -> np.ndarray:
    """Tensor-product trapezoid weights: 1 inside, 1/2 on edges, 1/4 at corners."""
    w = _WEIGHTS.get(g.M)
    if w is None:
        w1 = np.ones(g.M + 1)
        w1[0] = w1[-1] = 0.5
        w = np.outer(w1, w1)
        w.setflags(write=False)
        _WEIGHTS[g.M] = w
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


def write_field_csv(path, f: np.ndarray, g: Grid2D):
    """Plain-text exporter (x, y, u1, u2, u3), row-major, for plotting."""
    _check_shape(f, g)
    coords = ["%.17g" % v for v in g.nodes()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,u1,u2,u3\n")
        # one format call per node row, coordinates formatted once; a
        # whole-field list would cost megabytes
        for x, row in zip(coords, f):
            line = "".join(f"{x},{y},%.17g,%.17g,%.17g\n" for y in coords)
            fh.write(line % tuple(row.ravel().tolist()))
