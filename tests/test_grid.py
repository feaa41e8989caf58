import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wavemaps import Grid2D, RunConfig, cross, dirichlet_form, dot, gradient_sq, \
    initial_data, integrate, laplacian, lp_norm, magnitude, read_field, run, \
    write_field, write_field_csv
from wavemaps import grid as gr

from conftest import pow_lp_norm, smooth_scalar, smooth_vec


def vec_of(g, f_scalar, comp=0):
    v = np.zeros(g.shape + (3,))
    v[..., comp] = f_scalar
    return v


def test_grid_invariants():
    g = Grid2D(32)
    assert g.h == 1.0 / 32
    assert abs(g.h * g.M - 1.0) <= 4 * np.finfo(float).eps
    x = g.nodes()
    assert x[0] == -0.5 and x[-1] == 0.5
    with pytest.raises(ValueError):
        Grid2D(1)


def test_laplacian_annihilates_constants():
    g = Grid2D(16)
    f = gr.constant_field(g, (0.3, -1.2, 2.0))
    assert np.abs(laplacian(f, g)).max() == 0.0


def test_laplacian_exact_on_quadratic_interior():
    g = Grid2D(16)
    x, _ = g.mesh()
    f = vec_of(g, x * x)
    lap = laplacian(f, g)
    # exact for quadratics away from the ghost rows
    assert np.abs(lap[1:-1, :, 0] - 2.0).max() < 1e-12
    assert np.abs(lap[1:-1, :, 1:]).max() == 0.0


def test_laplacian_second_order_on_neumann_eigenfunction():
    # cos(2 pi x) cos(2 pi y) has zero normal derivative on the boundary,
    # so the mirror-ghost stencil is consistent up to the boundary
    errs = {}
    for M in (16, 32, 64):
        g = Grid2D(M)
        x, y = g.mesh()
        f = vec_of(g, np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y), comp=2)
        lap = laplacian(f, g)
        errs[M] = np.abs(lap + 8 * np.pi**2 * f).max()
    assert 3.4 < errs[16] / errs[32] < 4.6
    assert 3.4 < errs[32] / errs[64] < 4.6
    # Richardson: freeze the constant from the middle grid, check the finest
    C = errs[32] * 32**2
    assert errs[64] <= 1.25 * C / 64**2


def test_laplacian_interior_rate_without_boundary_compatibility():
    # cos(pi x) cos(pi y) violates the Neumann condition, so only interior
    # nodes (which never read a ghost) see the O(h^2) rate
    errs = {}
    for M in (32, 64):
        g = Grid2D(M)
        x, y = g.mesh()
        f = vec_of(g, np.cos(np.pi * x) * np.cos(np.pi * y))
        lap = laplacian(f, g)
        errs[M] = np.abs(lap + 2 * np.pi**2 * f)[1:-1, 1:-1].max()
    assert 3.4 < errs[32] / errs[64] < 4.6


def test_laplacian_matches_explicit_mirror_ghosts():
    g = Grid2D(8)
    rng = np.random.default_rng(3)
    f = smooth_vec(g, rng)
    big = np.empty((g.M + 3, g.M + 3, 3))
    big[1:-1, 1:-1] = f
    big[0, 1:-1] = f[1]
    big[-1, 1:-1] = f[-2]
    big[1:-1, 0] = f[:, 1]
    big[1:-1, -1] = f[:, -2]
    manual = (big[2:, 1:-1] + big[:-2, 1:-1] + big[1:-1, 2:] + big[1:-1, :-2]
              - 4.0 * f) / g.h**2
    assert np.abs(manual - laplacian(f, g)).max() < 1e-12


def test_lp_norm_zero_and_unit_constants():
    g = Grid2D(12)
    z = np.zeros(g.shape)
    one = np.ones(g.shape)
    for p in (1.0, 2.0, 3.5, math.inf):
        assert lp_norm(z, p, g) == 0.0
        assert abs(lp_norm(one, p, g) - 1.0) < 1e-14


def test_lp_norm_radius_field_against_integral():
    g = Grid2D(32)
    x, y = g.mesh()
    f = np.sqrt(x * x + y * y)
    exact = math.sqrt(1.0 / 6.0)  # integral of |x|^2 over the unit square
    assert abs(lp_norm(f, 2.0, g) - exact) <= g.h**2


def test_lp_norm_absolutely_homogeneous():
    g = Grid2D(10)
    rng = np.random.default_rng(5)
    f = smooth_vec(g, rng)
    for p in (1.0, 2.0, 4.0, math.inf):
        a = lp_norm(-2.7 * f, p, g)
        b = 2.7 * lp_norm(f, p, g)
        assert abs(a - b) <= 1e-13 * max(1.0, b)


def test_lp_norm_monotone_in_magnitude():
    g = Grid2D(10)
    rng = np.random.default_rng(6)
    f = np.abs(smooth_scalar(g, rng))
    h = f + np.abs(smooth_scalar(g, rng))
    for p in (1.0, 2.0, 4.0, math.inf):
        assert lp_norm(f, p, g) <= lp_norm(h, p, g) + 1e-15


def test_lp_norm_rejects_bad_exponent():
    g = Grid2D(4)
    with pytest.raises(ValueError):
        lp_norm(np.ones(g.shape), 0.5, g)


@pytest.mark.parametrize("p", (math.nan, 0.0, -math.inf))
def test_lp_norm_rejects_exponents_that_are_not_at_least_one(p):
    # a NaN exponent fails every comparison, so "p < 1" let it through
    g = Grid2D(4)
    for f in (np.ones(g.shape), np.arange(25.0).reshape(g.shape)):
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(f, p, g)


def test_gradient_sq_constants_and_linear():
    g = Grid2D(16)
    assert np.abs(gradient_sq(gr.constant_field(g, (1, 2, 3)), g)).max() == 0.0
    x, _ = g.mesh()
    f = vec_of(g, x)
    gsq = gradient_sq(f, g)
    assert np.abs(gsq[1:-1, :] - 1.0).max() < 1e-12  # exact for linears inside


def test_gradient_sq_second_order_convergence():
    errs = {}
    for M in (16, 32, 64):
        g = Grid2D(M)
        x, y = g.mesh()
        f = vec_of(g, np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
        exact = (2 * np.pi) ** 2 * (
            (np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)) ** 2
            + (np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)) ** 2
        )
        errs[M] = np.abs(gradient_sq(f, g) - exact).max()
    assert 3.2 < errs[16] / errs[32] < 4.8
    assert 3.2 < errs[32] / errs[64] < 4.8


def test_cross_dot_triple_product():
    g = Grid2D(8)
    rng = np.random.default_rng(7)
    e1 = gr.constant_field(g, (1, 0, 0))
    e2 = gr.constant_field(g, (0, 1, 0))
    e3 = gr.constant_field(g, (0, 0, 1))
    assert np.abs(cross(e1, e2) - e3).max() == 0.0
    a = smooth_vec(g, rng)
    b = smooth_vec(g, rng)
    assert np.abs(cross(a, a)).max() == 0.0
    triple = dot(cross(a, b), a)
    scale = magnitude(a).max() ** 2 * magnitude(b).max()
    assert np.abs(triple).max() <= 1e-14 * scale


def test_integrate_unit():
    g = Grid2D(9)
    assert abs(integrate(np.ones(g.shape), g) - 1.0) < 1e-14


@pytest.mark.parametrize("M, shape", ((2, (3, 3, 3)), (4, (5, 5, 3)), (4, (5, 6)), (4, (6, 5))))
def test_integrate_rejects_fields_of_other_shapes(M, shape):
    # at M = 2 the (3, 3) weights broadcast over the last two axes of a
    # (3, 3, 3) field and summed it to 3.0
    g = Grid2D(M)
    with pytest.raises(ValueError, match="scalar field"):
        integrate(np.ones(shape), g)


def test_dirichlet_form_is_laplacian_pairing():
    # -<lap f, f> in the weighted inner product equals the edge sum; this
    # pairing is why the scheme conserves the discrete energy exactly
    g = Grid2D(12)
    rng = np.random.default_rng(8)
    f = smooth_vec(g, rng)
    pairing = -integrate(dot(laplacian(f, g), f), g)
    edge = dirichlet_form(f, g)
    assert abs(pairing - edge) <= 1e-12 * max(1.0, edge)


def test_field_dump_roundtrip(tmp_path):
    g = Grid2D(6)
    rng = np.random.default_rng(9)
    f = smooth_vec(g, rng)
    path = tmp_path / "field.wmf"
    write_field(path, f)
    raw = path.read_bytes()
    assert raw.startswith(b"WMFIELD v1 M=6 comps=3\n")
    back = read_field(path)
    assert back.shape == f.shape
    assert np.array_equal(back, f)


def test_field_csv_export(tmp_path):
    g = Grid2D(3)
    f = gr.constant_field(g, (1.0, 0.0, -1.0))
    path = tmp_path / "field.csv"
    write_field_csv(path, f, g)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,u1,u2,u3"
    assert len(lines) == 1 + (g.M + 1) ** 2
    assert lines[1].startswith("-0.5,-0.5,1,")


def test_read_field_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wmf"
    path.write_bytes(b"not a field\n123")
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("header", [b"WMFIELD v1 comps=3", b"WMFIELD v1 M=2",
                                    b"WMFIELD v1 M=-1 comps=3"])
def test_read_field_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.wmf"
    path.write_bytes(header + b"\n")
    with pytest.raises(ValueError):
        read_field(path)


# ---------------------------------------------------------------------------
# the fast kernels against plain numpy reference versions


def bitwise_equal(a, b):
    """Same shape, dtype and bits: unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def ref_pad(f):
    return np.pad(f, ((1, 1), (1, 1)) + ((0, 0),) * (f.ndim - 2), mode="reflect")


def ref_laplacian(f, g):
    fp = ref_pad(f)
    out = fp[2:, 1:-1] + fp[:-2, 1:-1] + fp[1:-1, 2:] + fp[1:-1, :-2] - 4.0 * f
    out /= g.h * g.h
    return out


def ref_gradient(f, g):
    fp = ref_pad(f)
    s = 1.0 / (2.0 * g.h)
    return (fp[2:, 1:-1] - fp[:-2, 1:-1]) * s, (fp[1:-1, 2:] - fp[1:-1, :-2]) * s


def ref_gradient_sq(f, g):
    fx, fy = ref_gradient(f, g)
    sq = fx * fx + fy * fy
    return sq.sum(axis=-1) if f.ndim == 3 else sq


def signed_zero_field(rng, shape):
    """Random values with a share of exact -0.0 and 0.0 entries."""
    f = rng.normal(size=shape)
    f[rng.random(shape) < 0.2] = -0.0
    f[rng.random(shape) < 0.1] = 0.0
    return f


KERNEL_SIZES = (2, 3, 4, 8, 33)


@pytest.mark.parametrize("M", KERNEL_SIZES)
@pytest.mark.parametrize("vector", (False, True))
def test_stencils_match_np_pad_reference_bitwise(M, vector):
    g = Grid2D(M)
    rng = np.random.default_rng(M)
    f = signed_zero_field(rng, g.shape + ((3,) if vector else ()))
    assert bitwise_equal(laplacian(f, g), ref_laplacian(f, g))
    for got, want in zip(gr.gradient(f, g), ref_gradient(f, g)):
        assert bitwise_equal(got, want)
    assert bitwise_equal(gradient_sq(f, g), ref_gradient_sq(f, g))
    assert bitwise_equal(gr.grad_magnitude(f, g), np.sqrt(ref_gradient_sq(f, g)))
    want_mag = np.sqrt((f * f).sum(axis=-1)) if vector else np.abs(f)
    assert bitwise_equal(magnitude(f), want_mag)


@pytest.mark.parametrize("M", KERNEL_SIZES)
@pytest.mark.parametrize("vector", (False, True))
def test_laplacian_into_given_buffers_matches_allocating_call_bitwise(M, vector):
    g = Grid2D(M)
    rng = np.random.default_rng(200 + M)
    f = signed_zero_field(rng, g.shape + ((3,) if vector else ()))
    # stale contents, as in buffers reused from an earlier call
    out = np.full(f.shape, np.nan)
    tmp = np.full(f.shape, np.inf)
    f_before = f.copy()
    assert laplacian(f, g, out=out, tmp=tmp) is out
    assert bitwise_equal(out, laplacian(f, g))
    assert bitwise_equal(out, ref_laplacian(f, g))
    assert bitwise_equal(f, f_before)


@pytest.mark.parametrize("M", KERNEL_SIZES)
def test_stencils_of_noncontiguous_inputs_match_reference_bitwise(M):
    g = Grid2D(M)
    u = signed_zero_field(np.random.default_rng(500 + M), g.shape + (3,))
    for f in (u[..., 0], u[..., 2], np.asfortranarray(u), np.asfortranarray(u[..., 1])):
        out, tmp = np.full(f.shape, np.nan), np.full(f.shape, np.inf)
        assert bitwise_equal(laplacian(f, g, out=out, tmp=tmp), ref_laplacian(f, g))
        for got, want in zip(gr.gradient(f, g), ref_gradient(f, g)):
            assert bitwise_equal(got, want)
        assert bitwise_equal(gradient_sq(f, g), ref_gradient_sq(f, g))


@pytest.mark.parametrize("M", KERNEL_SIZES)
def test_stencils_refuse_buffers_without_a_flat_view(M):
    # a flat view of a strided or Fortran-ordered buffer would be a copy,
    # and writes into it would be lost
    g = Grid2D(M)
    f = signed_zero_field(np.random.default_rng(600 + M), g.shape + (3,))
    strided = np.empty(g.shape + (6,))[..., ::2]
    fortran = np.asfortranarray(np.empty(f.shape))
    for bad in (strided, fortran, np.empty(g.shape)):
        with pytest.raises(ValueError, match="C-contiguous"):
            laplacian(f, g, out=bad)
        with pytest.raises(ValueError, match="C-contiguous"):
            laplacian(f, g, tmp=bad)


@pytest.mark.parametrize("M", KERNEL_SIZES)
def test_cross_into_given_buffers_matches_allocating_call_bitwise(M):
    g = Grid2D(M)
    rng = np.random.default_rng(300 + M)
    a = signed_zero_field(rng, g.shape + (3,))
    b = signed_zero_field(rng, g.shape + (3,))
    out = np.full(a.shape, np.nan)
    tmp = np.full(g.shape, np.nan)
    for x, y in ((a, b), (b, a), (a, -a)):
        assert cross(x, y, out=out, tmp=tmp) is out
        assert bitwise_equal(out, cross(x, y))
        assert bitwise_equal(out, np.cross(x, y))


@pytest.mark.parametrize("M", KERNEL_SIZES)
def test_cross_and_dot_match_numpy_bitwise(M):
    g = Grid2D(M)
    rng = np.random.default_rng(100 + M)
    a = signed_zero_field(rng, g.shape + (3,))
    b = signed_zero_field(rng, g.shape + (3,))
    for x, y in ((a, b), (b, a), (a, -a), (-a, a)):
        assert bitwise_equal(cross(x, y), np.cross(x, y))
        assert bitwise_equal(dot(x, y), (x * y).sum(axis=-1))
    # an all -0.0 component sum is +0.0 in numpy's reduction
    z = np.full((2, 2, 3), -0.0)
    assert bitwise_equal(dot(z, np.ones((2, 2, 3))), np.zeros((2, 2)))


@pytest.mark.parametrize("M", KERNEL_SIZES)
def test_field_csv_bytes_match_per_node_loop(tmp_path, M):
    g = Grid2D(M)
    f = signed_zero_field(np.random.default_rng(200 + M), g.shape + (3,))
    f[0, 0] = (1e-300, -np.inf, np.nan)
    x = g.nodes()
    want = ["x,y,u1,u2,u3\n"]
    for i in range(g.M + 1):
        for j in range(g.M + 1):
            want.append("%.17g,%.17g,%.17g,%.17g,%.17g\n"
                        % (x[i], x[j], f[i, j, 0], f[i, j, 1], f[i, j, 2]))
    path = tmp_path / "field.csv"
    write_field_csv(path, f, g)
    assert path.read_bytes() == "".join(want).encode("ascii")


@pytest.mark.parametrize("M", KERNEL_SIZES + (128,))
@pytest.mark.parametrize("vector", (False, True))
def test_reductions_close_to_exact_sum_and_repeatable(M, vector):
    g = Grid2D(M)
    rng = np.random.default_rng(300 + M)
    f = signed_zero_field(rng, g.shape + ((3,) if vector else ()))
    f *= np.exp(3.0 * rng.normal(size=f.shape))  # spread the magnitudes
    wts = gr.trapezoid_weights(g)
    hh = g.h * g.h

    def check(fn, terms, scale):
        got = fn()
        exact = math.fsum(terms) * scale
        assert abs(got - exact) <= 1e-14 * math.fsum(map(abs, terms)) * scale
        assert fn() == got  # a fixed summation order: reruns agree exactly

    s = f[..., 0] if vector else f
    check(lambda: integrate(s, g), (wts * s).ravel().tolist(), hh)
    w1 = wts[0] * 2.0  # 1 inside, 1/2 at both ends
    sqx = np.diff(f, axis=0) ** 2
    sqy = np.diff(f, axis=1) ** 2
    if vector:
        sqx, sqy = sqx.sum(axis=-1), sqy.sum(axis=-1)
    edges = (sqx * w1[None, :]).ravel().tolist() + (sqy * w1[:, None]).ravel().tolist()
    check(lambda: dirichlet_form(f, g), edges, 1.0)
    m = magnitude(f)
    for p in (1.0, 2.0, 4.0, 8.0):
        check(lambda p=p: lp_norm(f, p, g) ** p, (wts * m**p).ravel().tolist(), hh)


@pytest.mark.parametrize("M", (4, 33, 128))
@pytest.mark.parametrize("vector", (False, True))
def test_squared_norms_close_to_exact_sum_across_underflow(M, vector):
    # node magnitudes log-uniform in [1e-60, 1e3], some zero: every 8th
    # power below about 1e-39 leaves the normal range
    g = Grid2D(M)
    rng = np.random.default_rng(700 + M)
    mag = 10.0 ** rng.uniform(-60.0, 3.0, size=g.shape)
    mag[rng.random(g.shape) < 0.05] = 0.0
    direction = rng.normal(size=g.shape + ((3,) if vector else ()))
    if vector:
        direction /= np.sqrt((direction * direction).sum(axis=-1))[..., None]
        f = mag[..., None] * direction
        mags = [math.hypot(*v) for v in f.reshape(-1, 3)]
    else:
        f = np.sign(direction) * mag
        mags = mag.ravel().tolist()
    assert sum(m**8 < 2.2250738585072014e-308 for m in mags) > 0.2 * len(mags)
    wts = gr.trapezoid_weights(g).ravel().tolist()
    hh = g.h * g.h
    for p in (4.0, 8.0):
        terms = [w * m**p for w, m in zip(wts, mags)]
        got = lp_norm(f, p, g) ** p
        exact = math.fsum(terms) * hh
        assert abs(got - exact) <= 1e-14 * exact


@pytest.mark.parametrize("M", KERNEL_SIZES + (128,))
@pytest.mark.parametrize("vector", (False, True))
def test_l2_norm_keeps_the_bits_of_the_pow_formula(M, vector):
    # |f| * |f| (f * f on a scalar field) is what |f| ** 2.0 computes
    g = Grid2D(M)
    rng = np.random.default_rng(800 + M)
    f = signed_zero_field(rng, g.shape + ((3,) if vector else ()))
    f *= np.exp(3.0 * rng.normal(size=f.shape))
    assert lp_norm(f, 2.0, g) == pow_lp_norm(f, 2.0, g)


@pytest.mark.parametrize("M", KERNEL_SIZES + (128,))
def test_energy_parts_and_constraint_checks_match_allocating_formulas_bitwise(M):
    g = Grid2D(M)
    rng = np.random.default_rng(900 + M)
    u, w = signed_zero_field(rng, g.shape + (3,)), signed_zero_field(rng, g.shape + (3,))
    w1 = np.ones(g.M + 1)
    w1[0] = w1[-1] = 0.5
    for f in (u, u[..., 1]):
        dx, dy = np.diff(f, axis=0), np.diff(f, axis=1)
        sqx, sqy = dx * dx, dy * dy
        if f.ndim == 3:
            sqx, sqy = gr._sum3(sqx), gr._sum3(sqy)
        want = gr._sum(sqx * w1[None, :]) + gr._sum(sqy * w1[:, None])
        assert dirichlet_form(f, g) == want
    assert gr.unit_deviation(u) == float(np.abs(magnitude(u) - 1.0).max())
    assert gr.orthogonality_deviation(u, w) == float(np.abs(gr._sum3(u * w)).max())
    assert dot(u, w).tobytes() == (gr._sum3(u * w) + 0.0).tobytes()


def g17_texts(values):
    """What the numpy "%.17g" kernel writes for each value."""
    rec = gr._g17(np.asarray(values, dtype=np.float64))
    return [col[col != 0].tobytes().decode("ascii") for col in rec.T]


def per_node_csv(f, g):
    """The reference rendering: one "%.17g" call per number."""
    x = g.nodes()
    lines = ["x,y,u1,u2,u3\n"]
    for i in range(g.M + 1):
        for j in range(g.M + 1):
            lines.append("%.17g,%.17g,%.17g,%.17g,%.17g\n"
                         % (x[i], x[j], f[i, j, 0], f[i, j, 1], f[i, j, 2]))
    return "".join(lines).encode("ascii")


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(2**-25)  # exact ties: 18 significant digits ending in 5
@example(1 + 2**-17)
@example(1 + 3 * 2**-17)
@example(1e-06)  # the edges of fixed notation
@example(1e-05)
@example(1e16)
@example(1e17)
@example(9.999999999999999e16)
@example(1e300)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_g17_kernel_matches_percent_format(v):
    assert g17_texts([v]) == ["%.17g" % v]


def test_g17_kernel_matches_percent_format_on_bit_patterns_and_dyadics():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=10000, dtype=np.uint64).view(np.float64)
    mant = rng.integers(1, 2**20, size=10000).astype(np.float64)
    dyadic = np.ldexp(mant, rng.integers(-1074, 1004, size=10000))
    dyadic[::2] *= -1.0
    values = np.concatenate([bits, dyadic])
    assert g17_texts(values) == ["%.17g" % v for v in values.tolist()]


def test_field_csv_of_problem_data_matches_per_node_loop(tmp_path):
    g = Grid2D(128)
    u, _ = initial_data(g)
    path = tmp_path / "u.csv"
    write_field_csv(path, u, g)
    assert path.read_bytes() == per_node_csv(u, g)


def test_snapshot_csvs_render_their_field_dumps(tmp_path):
    run(RunConfig(M=16, mode="fixed", tau=2.0**-8, t_end=2.0**-5, out_dir=str(tmp_path)))
    g = Grid2D(16)
    dumps = sorted(tmp_path.glob("snap_*_u.wmf"))
    assert len(dumps) == 8
    for dump in dumps:
        csv = dump.with_suffix(".csv")
        assert csv.read_bytes() == per_node_csv(read_field(dump), g), csv.name


def test_field_csv_writer_memory_is_bounded_by_its_block():
    g = Grid2D(128)
    u, _ = initial_data(g)
    write_field_csv(os.devnull, u, g)  # builds the tables and coordinates once
    tracemalloc.start()
    try:
        write_field_csv(os.devnull, u, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-field version peaks near 10 MB; one block of node rows stays small
    assert peak <= 1.5e6


def test_grid_caches_start_empty_and_hold_read_only_arrays():
    # a fresh interpreter: importing the package builds no table
    src = os.path.dirname(os.path.dirname(gr.__file__))
    probe = ("import wavemaps; from wavemaps import grid as gr; print(*(f.cache_info().currsize "
             "for f in (gr.trapezoid_weights, gr._csv_coords, gr._g17_tables)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["0", "0", "0"]
    for cached in (gr.trapezoid_weights, gr._csv_coords):
        a = cached(Grid2D(12))
        assert cached(Grid2D(12)) is a  # equal grids share one entry
        assert not a.flags.writeable
