import numpy as np
import pytest

from heisgeom.groupoid import (
    CompositionError,
    GroupoidChart,
    GroupoidMorphism,
    composition_limit_check,
    continuity_chart_independence,
    continuity_check,
    psi_composition_check,
    tangent_matrix,
    transition_rate_check,
)
from heisgeom.fields import FrameError
from heisgeom.group import TangentGroup, dilate, dilate_inv
from heisgeom.jets import PolyMap

from conftest import (
    TS,
    degenerate_frame,
    fit_rate,
    flat_frame,
    heisenberg_frame,
    left_translation,
    vertical_shear_diffeo,
)

H3_CHART = GroupoidChart(heisenberg_frame(half=6.0))
FLAT_CHART = GroupoidChart(flat_frame(half=6.0))
DEG_CHART = GroupoidChart(degenerate_frame(half=6.0))


def pair(p, q, t):
    """The element (p, q, t), t > 0, of the pair groupoid."""
    return np.asarray(p, dtype=float), np.asarray(q, dtype=float), np.asarray(t, dtype=float)


def fibre(p, X):
    """The element (p, X) of the tangent group bundle, at t = 0."""
    return np.asarray(p, dtype=float), np.asarray(X, dtype=float), np.asarray(0.0)


def stack(elements):
    """One batch of the elements given as (p, v, t) triples."""
    return tuple(np.stack(parts) for parts in zip(*elements))


def unit_close(u1, u2, tol=1e-12):
    (m1, t1), (m2, t2) = u1, u2
    return np.array_equal(t1, t2) and np.max(np.abs(m1 - m2)) <= tol


def elements_close(e1, e2, tol=1e-12):
    (p1, v1, t1), (p2, v2, t2) = e1, e2
    return np.array_equal(t1, t2) and np.max(np.abs(p1 - p2)) <= tol and np.max(np.abs(v1 - v2)) <= tol


def group_at(chart, p) -> TangentGroup:
    return TangentGroup(chart.eps(p).levi)


def transition(src, dst, phi, x, X, t: float):
    """Reference chart change (x, X, t) -> (phi(x), X'(t), t), one point at a
    time; at t = 0 the fiber acts through the graded tangent matrix."""
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    xp = phi.eval(x)
    if t == 0:
        return xp, tangent_matrix(src, dst, phi, x) @ X, 0.0
    q = src.eps(x).inverse(dilate(t, X))
    return xp, dilate_inv(t, dst.eps(xp).forward(phi.eval(q))), t


# ---- range / source / units -------------------------------------------------


def test_range_source_interior():
    p, q = np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])
    e = pair(p, q, 3.0)
    assert unit_close(H3_CHART.range_of(e), (p, 3.0))
    assert unit_close(H3_CHART.source_of(e), (q, 3.0))


def test_range_source_boundary():
    e = fibre([0.1, 0.0, -0.2], [1.0, 2.0, 3.0])
    assert unit_close(H3_CHART.range_of(e), (e[0], 0.0))
    assert unit_close(H3_CHART.source_of(e), (e[0], 0.0))


def test_iota_units():
    m = np.array([0.3, -0.1, 0.2])
    e = H3_CHART.iota(m, 2.0)
    assert e[2] == 2.0 and np.array_equal(e[1], m) and unit_close(H3_CHART.range_of(e), (m, 2.0))
    b = H3_CHART.iota(m, 0.0)
    assert b[2] == 0.0 and np.all(b[1] == 0.0)
    with pytest.raises(ValueError):
        H3_CHART.iota(m, -1.0)
    batch = H3_CHART.iota(np.stack([m, 2 * m]), np.array([2.0, 0.0]))
    assert elements_close(batch, stack([e, H3_CHART.iota(2 * m, 0.0)]), tol=0)


# ---- composition ------------------------------------------------------------


def test_compose_interior():
    p, m, q = (np.array(v) for v in ([0.0, 0.1, 0.2], [0.3, 0.4, 0.5], [0.6, 0.7, 0.8]))
    e = H3_CHART.compose(pair(p, m, 0.5), pair(m, q, 0.5))
    assert elements_close(e, pair(p, q, 0.5))


def test_compose_boundary_uses_group_law():
    p = np.zeros(3)
    e = H3_CHART.compose(fibre(p, [0.0, 1.0, 0.0]), fibre(p, [0.0, 0.0, 1.0]))
    np.testing.assert_allclose(e[1], [-1.0, 1.0, 1.0], atol=1e-14)


def test_compose_inverse_gives_unit():
    p = np.array([0.2, -0.3, 0.4])
    X = np.array([0.5, 1.0, -2.0])
    e = fibre(p, X)
    out = H3_CHART.compose(e, H3_CHART.inverse(e))
    assert elements_close(out, H3_CHART.iota(p, 0.0), tol=1e-13)
    i = pair(p, p + 0.1, 0.25)
    np.testing.assert_allclose(H3_CHART.compose(i, H3_CHART.inverse(i))[1], p, atol=0)


def test_compose_errors():
    p, q = np.zeros(3), np.ones(3)
    with pytest.raises(CompositionError):
        H3_CHART.compose(pair(p, q, 0.5), pair(q, p, 0.25))
    with pytest.raises(CompositionError):
        H3_CHART.compose(pair(p, q, 0.5), pair(q + 1e-3, p, 0.5))
    with pytest.raises(CompositionError):
        H3_CHART.compose(pair(p, q, 0.5), fibre(q, p))
    with pytest.raises(CompositionError):
        H3_CHART.compose(fibre(p, q), fibre(q, p))
    # one mismatched row fails the whole batch
    good = pair(p, q, 0.5)
    with pytest.raises(CompositionError):
        H3_CHART.compose(stack([good, good]), stack([pair(q, p, 0.5), fibre(q, p)]))


def random_tuples(rng, n=200):
    """Composable triples as in the groupoid axioms: pairs or fibre points."""
    out = []
    for _ in range(n):
        if rng.uniform() < 0.5:
            p, m, q, r2 = rng.uniform(-1, 1, (4, 3))
            t = float(rng.uniform(0.1, 2.0))
            out.append((pair(p, m, t), pair(m, q, t), pair(q, r2, t)))
        else:
            p = rng.uniform(-1, 1, 3)
            X, Y, Z = rng.uniform(-1, 1, (3, 3))
            out.append((fibre(p, X), fibre(p, Y), fibre(p, Z)))
    return out


def check_axioms(ch, g1, g2, g3):
    # (i) source/range of a composition
    assert unit_close(ch.source_of(ch.compose(g1, g2)), ch.source_of(g2))
    assert unit_close(ch.range_of(ch.compose(g1, g2)), ch.range_of(g1))
    # (ii) units are their own range and source
    u = ch.range_of(g1)
    iu = ch.iota(*u)
    assert unit_close(ch.range_of(iu), u) and unit_close(ch.source_of(iu), u)
    # (iii) unit laws
    s_unit = ch.source_of(g1)
    r_unit = ch.range_of(g1)
    assert elements_close(ch.compose(g1, ch.iota(*s_unit)), g1, tol=1e-13)
    assert elements_close(ch.compose(ch.iota(*r_unit), g1), g1, tol=1e-13)
    # (iv) associativity
    lhs = ch.compose(ch.compose(g1, g2), g3)
    rhs = ch.compose(g1, ch.compose(g2, g3))
    assert elements_close(lhs, rhs, tol=1e-12)
    # (v) two-sided inverses
    assert elements_close(ch.compose(g1, ch.inverse(g1)), ch.iota(*r_unit), tol=1e-12)
    assert elements_close(ch.compose(ch.inverse(g1), g1), ch.iota(*s_unit), tol=1e-12)


def test_groupoid_axioms_random():
    for g1, g2, g3 in random_tuples(np.random.default_rng(101)):
        check_axioms(H3_CHART, g1, g2, g3)


def test_groupoid_axioms_on_a_batch():
    tuples = random_tuples(np.random.default_rng(102))
    g1, g2, g3 = (stack(col) for col in zip(*tuples))
    check_axioms(H3_CHART, g1, g2, g3)
    # a batch composes as its rows do
    got = H3_CHART.compose(g1, g2)
    for i, (a, b, _) in enumerate(tuples):
        assert elements_close(tuple(part[i] for part in got), H3_CHART.compose(a, b), tol=1e-15)


# ---- boundary chart ----------------------------------------------------------


def test_gamma_flat_chart():
    x = np.array([0.2, -0.1, 0.3])
    X = np.array([1.0, 0.5, -0.5])
    e = FLAT_CHART.gamma(x, X, 0.5)
    np.testing.assert_allclose(e[1], x + dilate(0.5, X), atol=1e-14)


def test_gamma_boundary_identity():
    x, X = np.zeros(3), np.array([0.3, 1.0, 2.0])
    e = H3_CHART.gamma(x, X, 0.0)
    assert e[2] == 0.0
    np.testing.assert_array_equal(e[1], X)


def test_gamma_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(-0.5, 0.5, 3)
        X = rng.uniform(-1, 1, 3)
        t = float(rng.uniform(0.05, 0.5))
        for chart in (H3_CHART, FLAT_CHART):
            e = chart.gamma(x, X, t)
            x2, X2, t2 = chart.gamma_inv(e)
            assert t2 == t
            np.testing.assert_allclose(x2, x, atol=1e-10)
            np.testing.assert_allclose(X2, X, atol=1e-10)
        b = H3_CHART.gamma(x, X, 0.0)
        x2, X2, t2 = H3_CHART.gamma_inv(b)
        assert t2 == 0.0
        np.testing.assert_allclose(X2, X, atol=0)


def test_gamma_batch_matches_points():
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, (30, 5))
    X = rng.uniform(-1, 1, (30, 5))
    t = np.where(np.arange(30) % 3 == 0, 0.0, rng.uniform(0.05, 0.5, 30))
    e = DEG_CHART.gamma(x, X, t)
    back = DEG_CHART.gamma_inv(e)
    for i in range(30):
        one = DEG_CHART.gamma(x[i], X[i], t[i])
        assert elements_close(tuple(part[i] for part in e), one, tol=1e-15)
        assert elements_close(tuple(part[i] for part in back), DEG_CHART.gamma_inv(one), tol=1e-14)
    np.testing.assert_allclose(back[1], X, atol=1e-10)


def test_gamma_domain_guard():
    with pytest.raises(FrameError):
        H3_CHART.gamma(np.array([100.0, 0.0, 0.0]), np.zeros(3), 0.5)


def test_rs_jacobians_invertible():
    rng = np.random.default_rng(11)
    for chart in (H3_CHART, DEG_CHART):
        dim = chart.dim
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, dim)
            X = rng.uniform(-1, 1, dim)
            t = float(rng.uniform(0.1, 1.0))
            Jr, Js = chart.rs_jacobians(x, X, t)
            assert abs(np.linalg.det(Jr)) > 1e-6
            assert abs(np.linalg.det(Js)) > 1e-8


# ---- transitions --------------------------------------------------------------


def test_transition_identity_chart():
    ident = PolyMap.identity(3, 3)
    x, X = np.array([0.2, 0.1, -0.3]), np.array([0.4, -1.0, 0.7])
    for t in (0.0, 0.25, 1.0):
        xp, Xp, tp = transition(H3_CHART, H3_CHART, ident, x, X, t)
        np.testing.assert_allclose(xp, x, atol=0)
        np.testing.assert_allclose(Xp, X, atol=1e-11)


def test_transition_darboux_boundary_blocks():
    fwd, inv, pushed = vertical_shear_diffeo({(0, 1, 1): 1.0, (0, 3, 0): 0.4}, target_half=40.0)
    src = GroupoidChart(heisenberg_frame(half=6.0))
    dst = GroupoidChart(pushed)
    x = np.array([0.2, 0.3, -0.1])
    T = tangent_matrix(src, dst, fwd, x)
    # graded block structure: no horizontal-to-transverse mixing
    np.testing.assert_allclose(T[0, 1:], 0.0, atol=0)
    np.testing.assert_allclose(T[1:, 0], 0.0, atol=0)
    # inverse morphism gives the inverse matrix
    Tinv = tangent_matrix(dst, src, inv, fwd.eval(x))
    np.testing.assert_allclose(T @ Tinv, np.eye(3), atol=1e-11)
    # a batch of points gives one matrix per point
    pts = np.stack([x, -x, 0.5 * x])
    Ts = tangent_matrix(src, dst, fwd, pts)
    for i, p in enumerate(pts):
        np.testing.assert_allclose(Ts[i], tangent_matrix(src, dst, fwd, p), rtol=1e-15, atol=1e-15)


def test_transition_rate_to_boundary():
    fwd, inv, pushed = vertical_shear_diffeo({(0, 1, 1): 1.0, (0, 3, 0): 0.4}, target_half=40.0)
    src = GroupoidChart(heisenberg_frame(half=6.0))
    dst = GroupoidChart(pushed)
    x = np.array([0.2, 0.3, -0.1])
    X = np.array([0.5, 1.0, -0.6])
    rep = fit_rate(transition_rate_check(src, dst, fwd, x, X, TS))
    assert rep.passed
    if not rep.exact:
        assert rep.slope >= 0.85
    # the measured limit agrees with the block-matrix action
    xp, Xp, _ = transition(src, dst, fwd, x, X, 2.0**-14)
    np.testing.assert_allclose(Xp, tangent_matrix(src, dst, fwd, x) @ X, atol=1e-3)


def test_transition_left_translation_exact():
    fwd, _ = left_translation([0.0, 1.0, 0.0])
    x, X = np.array([0.1, -0.2, 0.3]), np.array([0.7, 0.4, -0.5])
    assert fit_rate(transition_rate_check(H3_CHART, H3_CHART, fwd, x, X, TS)).exact
    np.testing.assert_allclose(tangent_matrix(H3_CHART, H3_CHART, fwd, x) @ X, X, atol=1e-12)


# ---- continuity ----------------------------------------------------------------


def seq_from_fiber(chart, p, X, ks=range(2, 11)):
    """eps_p, and the points q_n = eps_p^-1(t_n . X) at t_n = 2^-k."""
    hm = chart.eps(p)
    ts = [2.0**-k for k in ks]
    return hm, [hm.inverse(dilate(t, X)) for t in ts], ts


def test_continuity_constructed_sequence():
    p = np.array([0.2, -0.4, 0.3])
    X = np.array([0.5, 1.0, -0.7])
    rep = continuity_check(*seq_from_fiber(H3_CHART, p, X), X)
    assert rep.converged and not rep.diverged


def test_continuity_constant_sequence():
    p = np.array([0.1, 0.2, 0.3])
    ts = [2.0**-k for k in range(2, 11)]
    rep = continuity_check(H3_CHART.eps(p), [p] * len(ts), ts, np.zeros(3))
    assert rep.converged


def test_continuity_euclidean_scaling_diverges():
    p = np.array([0.1, -0.1, 0.2])
    v = np.array([1.0, 0.5, 0.5])
    hm = H3_CHART.eps(p)
    ts = [2.0**-k for k in range(2, 11)]
    qs = [hm.inverse(t * v) for t in ts]  # linear, not graded, scaling
    rep = continuity_check(hm, qs, ts, v)
    assert rep.diverged and not rep.converged
    # transverse residual grows like 1/t
    assert rep.residuals[-1] > 50.0


def test_continuity_chart_independence():
    fwd, inv, pushed = vertical_shear_diffeo({(0, 1, 1): 1.0, (0, 3, 0): 0.4}, target_half=40.0)
    src = GroupoidChart(heisenberg_frame(half=6.0))
    dst = GroupoidChart(pushed)
    p = np.array([0.15, 0.3, -0.2])
    X = np.array([0.4, 0.8, -0.5])
    hm, qs, ts = seq_from_fiber(src, p, X, ks=range(3, 12))
    assert continuity_check(hm, qs, ts, X).converged
    rep2 = continuity_chart_independence(src, dst, fwd, p, qs, ts, X, tol=1e-2)
    assert rep2.converged


# ---- composition limit ----------------------------------------------------------


def test_composition_limit_flat_exact():
    x = np.array([0.3, -0.2, 0.5])
    X, Y = np.array([0.4, 1.0, -0.3]), np.array([-0.2, 0.6, 0.8])
    rep = fit_rate(composition_limit_check(FLAT_CHART, x, X, Y, TS))
    assert rep.exact
    assert rep.max_residual == 0.0  # displacement arithmetic is exact here
    np.testing.assert_allclose(group_at(FLAT_CHART, x).mul(X, Y), X + Y, atol=0)


def test_composition_limit_h3_golden():
    X, Y = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(group_at(H3_CHART, np.zeros(3)).mul(X, Y), [-1.0, 1.0, 1.0], atol=1e-14)
    # left-invariant normalization makes expr(t) constant
    assert fit_rate(composition_limit_check(H3_CHART, np.zeros(3), X, Y, TS)).exact


def test_composition_limit_degenerate_slope():
    x = np.array([0.1, 0.2, -0.1, 0.4, 0.3])
    X = np.array([0.5, 0.8, -0.4, 0.6, -0.2])
    Y = np.array([-0.3, 0.5, 0.7, -0.5, 0.4])
    rep = fit_rate(composition_limit_check(DEG_CHART, x, X, Y, TS))
    assert not rep.exact
    assert rep.slope >= 0.85
    assert rep.passed


def test_composition_limit_domain_guard():
    small = GroupoidChart(heisenberg_frame(half=0.5))
    with pytest.raises(FrameError):
        composition_limit_check(small, np.zeros(3), np.array([0.0, 8.0, 0.0]), np.zeros(3), [0.25, 0.125, 0.0625, 0.03125])


def test_psi_composition_claim():
    # Heisenberg chart: exact; degenerate chart: O(t)
    rep = fit_rate(psi_composition_check(H3_CHART, np.array([0.2, 0.1, -0.3]), np.array([0.4, 1.0, -0.2]), np.array([0.1, -0.5, 0.6]), TS))
    assert rep.exact
    x = np.array([0.1, 0.2, -0.1, 0.4, 0.3])
    rep2 = fit_rate(psi_composition_check(DEG_CHART, x, np.array([0.5, 0.8, -0.4, 0.6, -0.2]), np.array([-0.3, 0.5, 0.7, -0.5, 0.4]), TS))
    assert rep2.passed


# ---- functoriality ---------------------------------------------------------------


def test_functor_identity():
    ident = PolyMap.identity(3, 3)
    morph = GroupoidMorphism(ident, ident, H3_CHART, H3_CHART)
    e = fibre([0.2, 0.1, 0.0], [1.0, -0.5, 0.3])
    assert elements_close(morph.apply(e), e, tol=1e-12)
    i = pair(np.zeros(3), np.ones(3) * 0.3, 0.5)
    assert elements_close(morph.apply(i), i, tol=0)


def test_functor_left_translation_fiber_isomorphism():
    fwd, inv = left_translation([0.0, 1.0, 0.0])
    morph = GroupoidMorphism(fwd, inv, H3_CHART, H3_CHART)
    p = np.array([0.2, -0.3, 0.4])
    T = morph.tangent(p)
    G = group_at(H3_CHART, p)
    Gp = group_at(H3_CHART, fwd.eval(p))
    rng = np.random.default_rng(3)
    for _ in range(50):
        X, Y = rng.uniform(-1, 1, (2, 3))
        np.testing.assert_allclose(T @ G.mul(X, Y), Gp.mul(T @ X, T @ Y), atol=1e-11)


def sheared_morphism():
    fwd, inv, pushed = vertical_shear_diffeo({(0, 1, 1): 1.0, (0, 3, 0): 0.4}, target_half=40.0)
    src = GroupoidChart(heisenberg_frame(half=6.0))
    dst = GroupoidChart(pushed)
    return GroupoidMorphism(fwd, inv, src, dst)


def test_functor_intertwines_structure():
    morph = sheared_morphism()
    src, dst = morph.src, morph.dst
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(25):
        if rng.uniform() < 0.5:
            p, m, q = rng.uniform(-0.6, 0.6, (3, 3))
            t = float(rng.uniform(0.1, 1.5))
            g1, g2 = pair(p, m, t), pair(m, q, t)
        else:
            p = rng.uniform(-0.6, 0.6, 3)
            X, Y = rng.uniform(-1, 1, (2, 3))
            g1, g2 = fibre(p, X), fibre(p, Y)
        rows.append((g1, g2))
        # r and s intertwine
        assert unit_close(morph.apply_unit(src.range_of(g1)), dst.range_of(morph.apply(g1)), tol=1e-12)
        assert unit_close(morph.apply_unit(src.source_of(g1)), dst.source_of(morph.apply(g1)), tol=1e-12)
        # composition intertwines
        lhs = morph.apply(src.compose(g1, g2))
        rhs = dst.compose(morph.apply(g1), morph.apply(g2))
        assert elements_close(lhs, rhs, tol=1e-10)
    # the same tuples as one batch
    g1, g2 = (stack(col) for col in zip(*rows))
    image = morph.apply(g1)
    for i, (a, _) in enumerate(rows):
        assert elements_close(tuple(part[i] for part in image), morph.apply(a), tol=1e-14)
    assert elements_close(morph.apply(src.compose(g1, g2)), dst.compose(image, morph.apply(g2)), tol=1e-10)


def test_functor_chart_conjugation_identity():
    # gamma_kappa^-1 . Phi_H . gamma_{kappa.phi} = id on (x, X, t)
    morph = sheared_morphism()
    dst = morph.dst
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        X = rng.uniform(-1, 1, 3)
        for t in (0.0, 0.125, 0.5):
            e = morph.gamma_precomposed(x, X, t)
            image = morph.apply(e)
            x2, X2, t2 = dst.gamma_inv(image)
            assert t2 == t
            np.testing.assert_allclose(x2, x, atol=1e-10)
            np.testing.assert_allclose(X2, X, atol=1e-9)
    x = rng.uniform(-0.5, 0.5, (12, 3))
    X = rng.uniform(-1, 1, (12, 3))
    t = np.tile([0.0, 0.125, 0.5], 4)
    x2, X2, t2 = dst.gamma_inv(morph.apply(morph.gamma_precomposed(x, X, t)))
    np.testing.assert_array_equal(t2, t)
    np.testing.assert_allclose(x2, x, atol=1e-10)
    np.testing.assert_allclose(X2, X, atol=1e-9)
