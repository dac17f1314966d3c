"""The graded rescaling sweeps evaluate their whole t grid (or sample set),
and a batch of base points, in one array pass.  Each must give the traces of
the per-point, per-t loop it replaced bit for bit, raise the loop's error at
the loop's first failing point and t, and rest on the `per_map` rule: a
single map, or each map of a stack, given (T, k, n) points multiplies each
(k, n) block as its own product.

The reference loops below are the loop bodies the sweeps had before they
were batched; they run on today's maps, whose one-point and (k, n) calls
round as they always did."""

import sys
from pathlib import Path

import numpy as np
import pytest

from heisgeom.approx import diffeo_expansion_check, displacement_map, graded_part
from heisgeom.coords import heisenberg_map, sample_box
from heisgeom.fields import FrameError, tangent_blocks
from heisgeom.group import GradedShear, TangentGroup, bilinear_mul, dilate, dilate_inv, shear_homomorphism_residual
from heisgeom.groupoid import (
    GroupoidChart,
    composition_limit_check,
    continuity_chart_independence,
    continuity_check,
    psi_composition_check,
)
from heisgeom.jets import PolyMap
from heisgeom.manifests import Manifest, load_doc
from heisgeom.suites import SuiteRunner

from conftest import TS, heisenberg_frame

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from workloads import scale_h7_doc  # noqa: E402

# ---- the per-t loops the sweeps replaced -------------------------------------


def transition_loop(src, dst, phi, x, X, ts):
    hm_src = src.eps(x)
    hm_dst = dst.eps(phi.eval(x))
    target = graded_part(tangent_blocks(phi, src.frame, dst.frame, x), x) @ X
    phi_disp = displacement_map(phi, x)
    residuals = []
    for t in ts:
        pre = hm_src.inverse_displacement(dilate(t, X)[None, :])
        if not src.frame.domain.contains(x + pre[0]):
            raise FrameError(f"sample leaves the source domain at t={t}")
        img = phi_disp.eval_many(pre)
        Xp = dilate_inv(t, hm_dst.forward_from_displacement(img)[0])
        residuals.append(float(np.max(np.abs(Xp - target))))
    return residuals


def composition_loop(chart, x, X, Y, ts):
    hm_x = chart.eps(x)
    target = TangentGroup(hm_x.levi).mul(X, Y)
    residuals = []
    for t in ts:
        disp_z = hm_x.inverse_displacement(dilate(t, X))
        z = x + disp_z
        if not chart.frame.domain.contains(z):
            raise FrameError(f"middle point leaves the domain at t={t}; shrink the grid")
        disp_q = chart.eps(z).inverse_displacement(dilate(t, Y))
        if not chart.frame.domain.contains(z + disp_q):
            raise FrameError(f"endpoint leaves the domain at t={t}; shrink the grid")
        expr = dilate_inv(t, hm_x.forward_from_displacement(disp_z + disp_q))
        residuals.append(float(np.max(np.abs(expr - target))))
    return residuals


def psi_loop(chart, u, v, w, ts):
    hm_u = chart.eps(u)
    target = bilinear_mul(hm_u.b, v, w)
    Bt_u = np.linalg.inv(hm_u.A)
    residuals = []
    for t in ts:
        disp_z = dilate(t, v) @ Bt_u.T
        z = u + disp_z
        if not chart.frame.domain.contains(z):
            raise FrameError(f"middle point leaves the domain at t={t}; shrink the grid")
        hm_z = chart.eps(z)
        disp_q = dilate(t, w) @ np.linalg.inv(hm_z.A).T
        expr = dilate_inv(t, (disp_z + disp_q) @ hm_u.A.T)
        residuals.append(float(np.max(np.abs(expr - target))))
    return residuals


def continuity_loop(hm, X, ts):
    """The continuity residuals, with the loop-built sequence q_n = eps^-1(t_n . X)."""
    qs = [hm.inverse(dilate(t, X)) for t in ts]
    return [float(np.max(np.abs(dilate_inv(t, hm.forward(q)) - X))) for q, t in zip(qs, ts)]


def chart_independence_loop(src, dst, phi, p, X, ts):
    hm = src.eps(p)
    mapped = [phi.eval(hm.inverse(dilate(t, X))) for t in ts]
    target = graded_part(tangent_blocks(phi, src.frame, dst.frame, p), p) @ X
    hm_dst = dst.eps(phi.eval(p))
    return [float(np.max(np.abs(dilate_inv(t, hm_dst.forward(q)) - target))) for q, t in zip(mapped, ts)]


def expansion_loop(phi, frame_src, frame_dst, m, ts, pts=None):
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))
    tangent = graded_part(tangent_blocks(phi, frame_src, frame_dst, m), m)
    pts = sample_box(0.6, 3, frame_src.dim) if pts is None else pts
    target = pts @ tangent.T
    phi_disp = displacement_map(phi, m)
    residuals = []
    for t in ts:
        pre_disp = hm_src.inverse_displacement(dilate(t, pts))
        if not np.all(frame_src.domain.contains(m + pre_disp)):
            raise FrameError(f"sample leaves the source domain at t={t}")
        img_disp = phi_disp.eval_many(pre_disp)
        expr = dilate_inv(t, hm_dst.forward_from_displacement(img_disp))
        residuals.append(float(np.max(np.abs(expr - target))))
    return residuals


def roundtrip_loop(chart, x, X, t):
    worst = 0.0
    for xi, Xi, ti in zip(x, X, t):
        x2, X2, t2 = chart.gamma_inv(chart.gamma(xi, Xi, ti))
        worst = max(worst, float(np.max(np.abs(x2 - xi))), float(np.max(np.abs(X2 - Xi))), abs(t2 - ti))
        _, X2, _ = chart.gamma_inv(chart.gamma(xi, Xi, 0.0))
        worst = max(worst, float(np.max(np.abs(X2 - Xi))))
    return worst


def roundtrip_batch(chart, x, X, t):
    """The chart-roundtrip check body: interior and boundary rows in one batch."""
    x, X, t = np.concatenate([x, x]), np.concatenate([X, X]), np.concatenate([t, 0.0 * t])
    back = chart.gamma_inv(chart.gamma(x, X, t))
    return max(float(np.max(np.abs(got - want))) for got, want in zip(back, (x, X, t)))


def same_traces(batched, loop):
    """One trace per base point, equal to the loop's bit for bit."""
    return len(batched) == len(loop) and np.array(batched).tobytes() == np.array(loop).tobytes()


def shear_residual_loop(shear, b, pairs):
    bc = shear.transport(b)
    worst = 0.0
    for x, y in pairs:
        lhs = shear.apply(bilinear_mul(b, x, y))
        rhs = bilinear_mul(bc, shear.apply(x), shear.apply(y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---- the charts ----------------------------------------------------------------


def _chart(doc, name):
    return GroupoidChart(Manifest.from_dict(doc).chart(name).frame)


def _affine_phi(dim, order, rng):
    """A generic invertible affine map near the identity."""
    return PolyMap.affine(np.eye(dim) + 0.05 * rng.uniform(-1, 1, (dim, dim)), 0.05 * rng.uniform(-1, 1, dim), order)


# charts on which every product rounds the same batched or not: zero shear
# (heisenberg3, heisenberg5), or a nonzero shear with d = 4 and d = 6
BIT_CHARTS = {
    "hb3": lambda: _chart(load_doc("heisenberg3"), "hb3"),
    "hb5": lambda: _chart(load_doc("heisenberg5"), "hb5"),
    "deg": lambda: _chart(load_doc("degenerate-rank2"), "deg"),
    "c7": lambda: _chart(scale_h7_doc(42), "c7"),
}


def _samples(chart, rng, n=3):
    """Base points in the middle of the chart's domain, and fibre vectors."""
    box = chart.frame.domain.shrunk(0.1)
    x = box.lo + (box.hi - box.lo) * rng.uniform(0, 1, (n, chart.dim))
    return x, rng.uniform(-1, 1, (n, chart.dim)), rng.uniform(-1, 1, (n, chart.dim))


def _traces(chart, phi, seed):
    """Every sweep's batched trace and its loop reference, on one chart."""
    rng = np.random.default_rng(seed)
    xs, Xs, Ys = _samples(chart, rng)
    out = []
    for x, X, Y in zip(xs, Xs, Ys):
        out.append((composition_limit_check(chart, x, X, Y, TS), composition_loop(chart, x, X, Y, TS)))
        out.append((psi_composition_check(chart, x, X, Y, TS), psi_loop(chart, x, X, Y, TS)))
        frame = chart.frame
        out.append((diffeo_expansion_check(phi, frame, frame, x, X[None], TS), transition_loop(chart, chart, phi, x, X, TS)))
        box = sample_box(0.6, 3, chart.dim)
        out.append((diffeo_expansion_check(phi, frame, frame, x, box, TS), expansion_loop(phi, frame, frame, x, TS)))
        hm = chart.eps(x)
        ts = TS[1:]
        qs = hm.inverse(dilate(ts[:, None], X))
        out.append((continuity_check(hm, qs, ts, X), continuity_loop(hm, X, ts)))
        batched = continuity_chart_independence(chart, chart, phi, x, qs, ts, X)
        out.append((batched, chart_independence_loop(chart, chart, phi, x, X, ts)))
    t = rng.uniform(0.05, 0.5, len(xs))
    out.append(([roundtrip_batch(chart, xs, Xs, t)], [roundtrip_loop(chart, xs, Xs, t)]))
    return out


@pytest.mark.parametrize("name", sorted(BIT_CHARTS))
def test_batched_sweeps_equal_their_loops_bit_for_bit(name):
    chart = BIT_CHARTS[name]()
    rng = np.random.default_rng(7)
    phi = _affine_phi(chart.dim, chart.frame.order, rng)
    for batched, loop in _traces(chart, phi, seed=11):
        assert np.array_equal(batched, loop)


def test_heisenberg3_diffeos_sweep_bit_for_bit():
    manifest = Manifest.from_dict(load_doc("heisenberg3"))
    chart = GroupoidChart(manifest.chart("hb3").frame)
    for spec in manifest.diffeos:
        x = np.array([0.2, -0.3, 0.1])
        X = np.array([0.5, -1.0, 0.7])
        assert np.array_equal(
            diffeo_expansion_check(spec.fwd, chart.frame, chart.frame, x, X[None], TS),
            transition_loop(chart, chart, spec.fwd, x, X, TS),
        )
        assert np.array_equal(
            diffeo_expansion_check(spec.fwd, chart.frame, chart.frame, x, sample_box(0.6, 3, 3), TS),
            expansion_loop(spec.fwd, chart.frame, chart.frame, x, TS),
        )


# ---- a batch of base points: one sweep call, one trace per point --------------


def _darboux1():
    return _chart(load_doc("contact-darboux"), "darboux1")


def _point_batches(chart, phi, seed):
    """Each sweep over a batch of 3 base points, and the loop over the points."""
    rng = np.random.default_rng(seed)
    xs, Xs, Ys = _samples(chart, rng)
    frame, box = chart.frame, sample_box(0.6, 3, chart.dim)
    own = rng.uniform(-0.6, 0.6, (len(xs), 4, chart.dim))  # 4 samples of each point

    def expansion(pts):
        return diffeo_expansion_check(phi, frame, frame, xs, pts, TS)

    return [
        (composition_limit_check(chart, xs, Xs, Ys, TS), [composition_loop(chart, *a, TS) for a in zip(xs, Xs, Ys)]),
        (psi_composition_check(chart, xs, Xs, Ys, TS), [psi_loop(chart, *a, TS) for a in zip(xs, Xs, Ys)]),
        (expansion(Xs[:, None]), [transition_loop(chart, chart, phi, x, X, TS) for x, X in zip(xs, Xs)]),
        (expansion(box), [expansion_loop(phi, frame, frame, x, TS) for x in xs]),
        (expansion(own), [expansion_loop(phi, frame, frame, x, TS, pts) for x, pts in zip(xs, own)]),
    ]


@pytest.mark.parametrize("name", sorted(BIT_CHARTS) + ["darboux1"])
def test_a_batch_of_base_points_equals_the_loop_over_points(name):
    chart = _darboux1() if name == "darboux1" else BIT_CHARTS[name]()
    phi = _affine_phi(chart.dim, chart.frame.order, np.random.default_rng(8))
    for batched, loop in _point_batches(chart, phi, seed=13):
        assert same_traces(batched, loop)


@pytest.mark.parametrize("name", ["heisenberg3", "contact-darboux"])
def test_builtin_diffeo_sweeps_at_the_checks_base_points_equal_the_loop(name):
    # the inputs of diffeo/*/rate, uniformity and groupoid/*/transition-limit
    runner = SuiteRunner(Manifest.from_dict(load_doc(name), seed=42))
    preserving = [s for s in runner.manifest.diffeos if runner.preserving_residual(s) < runner.tol["preserve"]]
    assert preserving
    for spec in preserving:
        src, dst = (runner.charts[c] for c in (spec.source, spec.target))
        base = runner.base_points(spec.source, limit=4, shrink=0.15)
        batched = diffeo_expansion_check(spec.fwd, src.frame, dst.frame, base, sample_box(0.6, 3, src.dim), TS)
        assert same_traces(batched, [expansion_loop(spec.fwd, src.frame, dst.frame, m, TS) for m in base])
        base = runner.base_points(spec.source, limit=3, shrink=0.1)
        Xs = np.random.default_rng(2).uniform(-1, 1, base.shape)
        batched = diffeo_expansion_check(spec.fwd, src.frame, dst.frame, base, Xs[:, None], TS)
        assert same_traces(batched, [transition_loop(src, dst, spec.fwd, x, X, TS) for x, X in zip(base, Xs)])


# On darboux1 (d = 2, nonzero shear) the batched and the one-point calls of
# `GradedShear.apply` can add the d^2 = 4 terms c_jk x_j x_k of its quadratic
# form in different orders: np.einsum adds them pairwise, (t_11 + t_12) +
# (t_21 + t_22), for one point and left to right for a batch.  Two orders of 4
# terms may differ by up to 2 gamma_3 = 6u / (1 - 3u), u = eps / 2, times the
# sum of the terms' magnitudes, and the sweeps then divide slot 0 by t^2.
# But darboux1's shear has c_22 = 0 at every point, so t_22 = +-0 and both
# orders add the same three terms in the same order: the derived bound is 0,
# and the traces must agree exactly.  (A random d = 2 shear, as in
# group/*/shear-transport, does move the last bits.)
def test_darboux1_sweeps_agree_with_loops_exactly_because_c22_vanishes():
    manifest = Manifest.from_dict(load_doc("contact-darboux"))
    chart = GroupoidChart(manifest.chart("darboux1").frame)
    grid = chart.frame.domain.shrunk(0.3).grid(5)
    assert np.all(chart.eps(grid).shear.c[:, 1, 1] == 0.0)
    phi = _affine_phi(3, chart.frame.order, np.random.default_rng(3))
    for batched, loop in _traces(chart, phi, seed=5):
        assert np.array_equal(batched, loop)
    darboux0 = GroupoidChart(manifest.chart("darboux0").frame)
    (spec,) = manifest.diffeos
    phi, src, dst = spec.fwd, darboux0.frame, chart.frame
    X = np.array([0.3, -0.8, 0.6])
    for x in src.domain.shrunk(0.1).grid(3, limit=3):
        batched = diffeo_expansion_check(phi, src, dst, x, X[None], TS)
        assert np.array_equal(batched, transition_loop(darboux0, chart, phi, x, X, TS))
        batched = diffeo_expansion_check(phi, src, dst, x, sample_box(0.6, 3, 3), TS)
        assert np.array_equal(batched, expansion_loop(phi, src, dst, x, TS))


def test_shear_residual_equals_its_loop_for_d_other_than_2():
    for d in (1, 3, 4, 6):
        rng = np.random.default_rng(d)
        b = rng.uniform(-1, 1, (d, d))
        c = rng.uniform(-1, 1, (d, d))
        shear = GradedShear((c + c.T) / 2)
        pairs = rng.uniform(-2, 2, (100, 2, d + 1))
        assert shear_homomorphism_residual(shear, b, pairs) == shear_residual_loop(shear, b, pairs)
        # a list of (x, y) pairs is the same batch
        assert shear_homomorphism_residual(shear, b, [tuple(p) for p in pairs]) == shear_residual_loop(shear, b, pairs)


# ---- errors: the loop's message at the loop's first failing t -----------------


def _message(fn, *args):
    with pytest.raises(FrameError) as info:
        fn(*args)
    return str(info.value)


SMALL = GroupoidChart(heisenberg_frame(half=0.5))
# an increasing grid, so that the first failing t is not the grid's first
GROW = 2.0 ** -np.arange(8, 0, -1)
ZERO = np.zeros(3)
E1, E2 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])


def test_transition_leaves_the_domain_at_the_loops_first_t():
    phi = PolyMap.identity(3, 3)
    want = _message(transition_loop, SMALL, SMALL, phi, ZERO, 6 * E1, GROW)
    assert "t=0.125" in want
    assert _message(diffeo_expansion_check, phi, SMALL.frame, SMALL.frame, ZERO, (6 * E1)[None], GROW) == want


def test_expansion_leaves_the_domain_at_the_loops_first_t():
    frame = heisenberg_frame(half=0.05)
    phi = PolyMap.identity(3, 3)
    want = _message(expansion_loop, phi, frame, frame, ZERO, GROW)
    assert "t=0.125" in want
    assert _message(diffeo_expansion_check, phi, frame, frame, ZERO, sample_box(0.6, 3, 3), GROW) == want


@pytest.mark.parametrize(
    "X, Y, kind, t",
    [
        (6 * E1, ZERO, "middle point", 0.125),
        (ZERO, 6 * E1, "endpoint", 0.125),
        # both leave first at t = 1/8: the middle point is tested first
        (6 * E1, 3 * E2, "middle point", 0.125),
        # the endpoint leaves at t = 1/8, before the middle point at t = 1/4
        (3 * E1, 6 * E2, "endpoint", 0.125),
    ],
)
def test_composition_leaves_the_domain_at_the_loops_first_t(X, Y, kind, t):
    want = _message(composition_loop, SMALL, ZERO, X, Y, GROW)
    assert want.startswith(kind) and f"t={t}" in want
    assert _message(composition_limit_check, SMALL, ZERO, X, Y, GROW) == want


def test_psi_middle_point_leaves_at_the_loops_first_t():
    want = _message(psi_loop, SMALL, ZERO, 6 * E1, ZERO, GROW)
    assert "middle point" in want and "t=0.125" in want
    assert _message(psi_composition_check, SMALL, ZERO, 6 * E1, ZERO, GROW) == want


def _loop_message(loop, *per_point):
    """The error of the loop over base points: that of the first to raise."""

    def over_points():
        for args in zip(*per_point):
            loop(*args)

    return _message(over_points)


TWO = np.array([ZERO, ZERO])


def test_a_batch_raises_the_loop_error_when_only_the_second_point_leaves():
    phi = PolyMap.identity(3, 3)
    Xs = np.array([0.5 * E1, 6 * E1])
    want = _loop_message(lambda x, X: transition_loop(SMALL, SMALL, phi, x, X, GROW), TWO, Xs)
    diffeo_expansion_check(phi, SMALL.frame, SMALL.frame, ZERO, Xs[:1], GROW)  # the first point stays inside
    assert "t=0.125" in want
    assert _message(diffeo_expansion_check, phi, SMALL.frame, SMALL.frame, TWO, Xs[:, None], GROW) == want

    frame, ts = heisenberg_frame(half=0.05), GROW[:4]
    xs = np.array([ZERO, 0.04 * E1])
    diffeo_expansion_check(phi, frame, frame, ZERO, sample_box(0.6, 3, 3), ts)  # the first point stays inside
    want = _loop_message(lambda m: expansion_loop(phi, frame, frame, m, ts), xs)
    assert "sample leaves" in want
    assert _message(diffeo_expansion_check, phi, frame, frame, xs, sample_box(0.6, 3, 3), ts) == want

    for check, loop in ((composition_limit_check, composition_loop), (psi_composition_check, psi_loop)):
        X, Y = np.array([E1, 6 * E1]), np.zeros((2, 3))
        check(SMALL, ZERO, E1, ZERO, GROW)  # the first point stays inside
        want = _loop_message(lambda *a: loop(SMALL, *a, GROW), TWO, X, Y)
        assert want.startswith("middle point") and "t=0.125" in want
        assert _message(check, SMALL, TWO, X, Y, GROW) == want


@pytest.mark.parametrize(
    "X, Y, kind, t",
    [
        # the first point's endpoint leaves at t = 1/8, the second's middle
        # point at t = 1/32: the loop stops at the first point
        ([ZERO, 20 * E1], [6 * E1, ZERO], "endpoint", 0.125),
        ([6 * E1, ZERO], [ZERO, 20 * E1], "middle point", 0.125),
    ],
)
def test_a_composition_batch_raises_the_first_points_error(X, Y, kind, t):
    X, Y = np.array(X), np.array(Y)
    want = _loop_message(lambda *a: composition_loop(SMALL, *a, GROW), TWO, X, Y)
    assert want.startswith(kind) and f"t={t}" in want
    assert _message(composition_limit_check, SMALL, TWO, X, Y, GROW) == want


# ---- the per_map rule -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BIT_CHARTS))
def test_single_map_multiplies_each_trailing_block_as_one_product(name):
    chart = BIT_CHARTS[name]()
    rng = np.random.default_rng(4)
    hm = chart.eps(chart.frame.domain.center() + 0.1 * rng.uniform(-1, 1, chart.dim))
    one_per_t = dilate(TS[:, None], rng.uniform(-1, 1, chart.dim))  # (T, 1, dim), as the sweeps stack t.X
    grid_per_t = dilate(TS[:, None], sample_box(0.6, 3, chart.dim))  # (T, 3^dim, dim)
    for f in (hm.forward, hm.inverse, hm.inverse_displacement, hm.forward_from_displacement):
        # T one-point calls; one (T, dim) product would round differently
        assert np.array_equal(f(one_per_t), np.stack([f(p) for p in one_per_t[:, 0]])[:, None])
        assert np.array_equal(f(grid_per_t), np.stack([f(block) for block in grid_per_t]))
    # a stack of maps follows the same rule: each map's points (T, k, dim)
    # are one product per t, as one map per base point and t would take them
    xs = chart.frame.domain.center() + 0.1 * rng.uniform(-1, 1, (3, chart.dim))
    stack = chart.eps(xs)
    for k in (1, 4):
        pts = dilate(TS[:, None], rng.uniform(-1, 1, (3, 1, k, chart.dim)))  # (3, T, k, dim)
        for name in ("inverse_displacement", "forward_from_displacement"):
            want = np.stack([[getattr(chart.eps(x), name)(block) for block in per_t] for x, per_t in zip(xs, pts)])
            assert getattr(stack, name)(pts).tobytes() == want.tobytes()


def test_eval_takes_each_point_of_a_batch_alone():
    # the sweeps evaluate phi at their base points through `eval`, one point
    # per product; `eval_many` takes a (P, dim) batch as one block, which
    # BLAS may round differently (one gemv), and is kept for sample blocks
    c7 = BIT_CHARTS["c7"]().frame.stacked  # a cubic map of 49 rows
    maps = [_affine_phi(dim, 3, np.random.default_rng(dim)) for dim in (3, 5, 7)] + [c7]
    for phi in maps:
        xs = np.random.default_rng(1).uniform(-1, 1, (6, phi.dim_in))
        alone = np.array([[phi.monomials(x) @ row for row in phi.coeffs] for x in xs])  # a dot product each
        assert phi.eval(xs).tobytes() == alone.tobytes()
        assert phi.eval(xs[0]).tobytes() == alone[0].tobytes()
