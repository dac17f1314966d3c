import math

import numpy as np
import pytest

from heisgeom.approx import (
    ApproxError,
    TangentMapH,
    conjugated_jets,
    diffeo_expansion_check,
    horizontal_quadratic,
    tangent_map_H,
)
from heisgeom.fields import pushforward_field, pushforward_preserves_H
from heisgeom.group import TangentGroup, bilinear_mul
from heisgeom.jets import Jet, PolyMap, jet_space
from heisgeom.rates import RateError, RateReport, fit_report, rate_fit
from heisgeom.coords import heisenberg_map

from conftest import TS, fit_rate, heisenberg_frame, left_translation, vertical_shear_diffeo

H3 = heisenberg_frame(half=8.0)
DARBOUX_Q = {(0, 1, 1): 1.0, (0, 3, 0): 0.4}


def expansion_fit(phi, src, dst, m):
    return fit_rate(diffeo_expansion_check(phi, src, dst, m, TS))


def quad_max(phi, src, dst, m):
    """Largest horizontal quadratic coefficient of the conjugated transverse component."""
    return float(np.max(np.abs(horizontal_quadratic(conjugated_jets(phi, src, dst, m)))))


# ---- rate fitting ----------------------------------------------------------


def test_rate_fit_linear():
    ts = 2.0 ** -np.arange(2, 9)
    assert rate_fit(ts, 3.7 * ts, 1e-13, 0.85) == pytest.approx(1.0, abs=1e-6)


def test_rate_fit_quadratic():
    ts = 2.0 ** -np.arange(2, 9)
    assert rate_fit(ts, 0.2 * ts**2, 1e-13, 0.85) == pytest.approx(2.0, abs=1e-6)


def test_rate_fit_constant_fails_verdict():
    ts = 2.0 ** -np.arange(2, 9)
    rep = fit_report(ts, np.full(len(ts), 0.3), slope_min=0.85, zero_floor=1e-13)
    assert rep.slope == pytest.approx(0.0, abs=1e-9)
    assert not rep.passed


def test_rate_fit_exact_short_circuit():
    ts = 2.0 ** -np.arange(2, 9)
    assert math.isinf(rate_fit(ts, np.zeros(len(ts)), 1e-13, 0.85))


def test_rate_fit_too_few_points():
    with pytest.raises(RateError):
        rate_fit([0.5, 0.25, 0.125], [1.0, 0.5, 0.25], 1e-13, 0.85)
    # under the floor too: three positive residuals are too few to fit
    with pytest.raises(RateError, match="3 positive residuals"):
        rate_fit([0.5, 0.25, 0.125], [2e-10, 1e-11, 5e-12], 1e-10, 0.85)


def test_rate_fit_rejects_a_nonfinite_trace():
    # an all-NaN trace is no exact decay (slope +inf); it cannot be fitted
    ts = 2.0 ** -np.arange(2, 13)
    with pytest.raises(RateError, match="not finite"):
        fit_report(ts, [np.nan] * 11, 0.85, 1e-10)
    with pytest.raises(RateError, match="not finite"):
        rate_fit(ts, np.where(ts == 0.125, np.inf, 3.7 * ts), 1e-10, 0.85)


def test_rate_fit_decay_that_crosses_the_floor_is_fitted():
    # the shape of the seed-2 darboux-change transition trace: a clean O(t)
    # decay from 1.3e-10 down to 1.3e-13, one point above the 1e-10 floor
    r = 1.3e-10 * TS / TS[0]
    assert np.sum(r > 1e-10) == 1
    rep = fit_rate(r)
    assert rep.slope == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_rate_fit_flat_noise_under_the_floor_fails():
    # two points above the floor, then rounding noise that stays flat
    r = np.full(len(TS), 1e-15)
    r[:2] = [3e-10, 2e-10]
    rep = fit_rate(r)
    assert rep.slope == pytest.approx(0.0, abs=1e-9)
    assert not rep.passed


def test_rate_fit_rejects_nonpositive_t():
    with pytest.raises(RateError, match="positive"):
        rate_fit([0.5, 0.25, 0.125, -0.0625], [1.0, 0.5, 0.25, 0.125], 1e-13, 0.85)


def test_rate_fit_sqrt_trace_fails():
    rep = fit_rate(0.3 * TS**0.5)
    assert rep.slope == pytest.approx(0.5, abs=1e-9)
    assert not rep.passed


def test_rate_fit_rising_noise_trace_fails():
    # rounding noise of O(eps / t) rises as t falls: every local slope is -1
    rep = fit_rate(1e-9 / TS)
    assert rep.slope == pytest.approx(-1.0, abs=1e-9)
    assert not rep.passed


def test_rate_fit_takes_small_t_end_past_a_bump():
    # the first 3 points rise before the O(t) decay sets in; a fit over the
    # whole grid is pulled below slope_min by them, the small-t suffix is not
    r = 0.3 * TS
    r[:3] = r[3] * np.array([0.5, 0.8, 1.2])
    assert np.polyfit(np.log(TS), np.log(r), 1)[0] < 0.85
    rep = fit_rate(r)
    assert rep.slope == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_rate_fit_passes_a_dip_before_linear_decay():
    # the shape of the seed-8 composition-limit trace: a residual that nearly
    # vanishes at t = 1/8 by cancellation, then decays as O(t)
    r = 0.3 * TS
    r[1] *= 1e-4
    assert TS[1] == 0.125
    rep = fit_rate(r)
    assert rep.slope == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_rate_fit_clean_trace_fits_the_whole_grid():
    r = 0.3 * TS * (1 + 2 * TS) + 1e-3 * TS**2
    assert np.all(np.diff(np.log(r)) / np.diff(np.log(TS)) >= 0.85)
    assert rate_fit(TS, r, 1e-10, 0.85) == np.polyfit(np.log(TS), np.log(r), 1)[0]


def test_rate_report_requires_decreasing_grid():
    with pytest.raises(RateError):
        RateReport((0.25, 0.5), (1.0, 1.0), 1.0, 0.85)


# ---- tangent maps ----------------------------------------------------------


def test_tangent_map_identity():
    T = tangent_map_H(PolyMap.identity(3, 3), H3, H3, np.array([0.2, -0.1, 0.4]))
    assert T.a00 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(T.A_par, np.eye(2), atol=1e-12)
    assert T.upper_residual < 1e-12


def test_tangent_map_dilation():
    s = 0.5
    delta = PolyMap.affine(np.diag([s**2, s, s]), np.zeros(3), 3)
    T = tangent_map_H(delta, H3, H3, np.zeros(3))
    assert T.a00 == pytest.approx(s**2, abs=1e-12)
    np.testing.assert_allclose(T.A_par, s * np.eye(2), atol=1e-12)


def test_tangent_map_left_translation_trivial():
    fwd, _ = left_translation([0.0, 1.0, 0.0])
    T = tangent_map_H(fwd, H3, H3, np.array([0.3, 0.2, -0.5]))
    assert T.a00 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(T.A_par, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(T.off_col, 0.0, atol=1e-12)


def test_tangent_map_rejects_non_preserving():
    swap = PolyMap.affine(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3), 3)
    with pytest.raises(ApproxError):
        tangent_map_H(swap, H3, H3, np.array([0.1, 0.2, 0.3]))


def test_tangent_map_functoriality():
    fwd, _ = left_translation([0.2, -0.4, 0.7])
    s = 0.5
    delta = PolyMap.affine(np.diag([s**2, s, s]), np.zeros(3), 3)
    composite = fwd.compose(delta, exact=True)
    m = np.array([0.4, 0.6, -0.2])
    T_delta = tangent_map_H(delta, H3, H3, m)
    T_fwd = tangent_map_H(fwd, H3, H3, delta.eval(m))
    T_comp = tangent_map_H(composite, H3, H3, m)
    np.testing.assert_allclose(T_comp.matrix(), T_fwd.matrix() @ T_delta.matrix(), atol=1e-11)


def test_tangent_map_is_group_homomorphism():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    m = np.array([0.1, -0.3, 0.4])
    T = tangent_map_H(fwd, heisenberg_frame(), pushed, m)
    L_src = heisenberg_map(heisenberg_frame(), m).levi
    L_dst = heisenberg_map(pushed, fwd.eval(m)).levi
    G1, G2 = TangentGroup(L_src), TangentGroup(L_dst)
    rng = np.random.default_rng(21)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, (2, 3))
        np.testing.assert_allclose(T.apply(G1.mul(x, y)), G2.mul(T.apply(x), T.apply(y)), atol=1e-10)


def test_tangent_map_a00_zero_rejected():
    with pytest.raises(ApproxError):
        TangentMapH(0.0, np.eye(2), np.zeros(2), 0.0)


# ---- expansion checks ------------------------------------------------------


def test_expansion_identity_exact():
    assert quad_max(PolyMap.identity(3, 3), H3, H3, np.zeros(3)) == 0.0
    rep = expansion_fit(PolyMap.identity(3, 3), H3, H3, np.zeros(3))
    assert rep.exact and rep.passed


def test_expansion_left_translation_exact():
    fwd, _ = left_translation([0.0, 1.0, 0.0])
    m = np.array([0.2, 0.1, -0.3])
    assert quad_max(fwd, H3, H3, m) < 1e-12
    rep = expansion_fit(fwd, H3, H3, m)
    assert rep.exact and rep.passed


def test_expansion_rotation_exact():
    th = 0.7
    R = np.array(
        [[1.0, 0.0, 0.0], [0.0, np.cos(th), -np.sin(th)], [0.0, np.sin(th), np.cos(th)]]
    )
    rot = PolyMap.affine(R, np.zeros(3), 3)
    m = np.array([0.1, 0.4, 0.2])
    assert quad_max(rot, H3, H3, m) < 1e-12
    assert expansion_fit(rot, H3, H3, m).exact
    np.testing.assert_allclose(tangent_map_H(rot, H3, H3, m).A_par, R[1:, 1:], atol=1e-12)


def test_darboux_shear_pushforward_closed_form():
    # pushed frame has X_1' = d_1 + (2 x_2 + 1.2 x_1^2) d_0 and X_2' = d_2
    _, _, pushed = vertical_shear_diffeo(DARBOUX_Q)
    comp0 = pushed[1].components.components[0] if isinstance(pushed, tuple) else None
    f1 = pushed.fields[1].components.components
    assert f1[0].terms() == pytest.approx({(0, 0, 1): 2.0, (0, 2, 0): 1.2})
    assert f1[1].terms() == {(0, 0, 0): 1.0}
    f2 = pushed.fields[2].components.components
    assert f2[0].terms() == {}
    assert f2[2].terms() == {(0, 0, 0): 1.0}


def test_darboux_shear_is_heisenberg_map():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    rep = pushforward_preserves_H(fwd, src, pushed, src.domain.shrunk(0.2).grid(3))
    assert rep.max_residual < 1e-10


def test_expansion_darboux_quadratic_vanishes_and_slope_one():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    for m in [np.zeros(3), np.array([0.3, 0.25, -0.2]), np.array([-0.2, -0.4, 0.35])]:
        assert quad_max(fwd, src, pushed, m) < 1e-10
        rep = expansion_fit(fwd, src, pushed, m)
        assert not rep.exact
        assert 0.85 <= rep.slope <= 1.35
        assert rep.passed


def test_expansion_uniformity_across_base_points():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    slopes = []
    for m in [np.array([0.0, 0.2, 0.1]), np.array([0.1, -0.3, 0.2]), np.array([-0.2, 0.4, -0.1]), np.array([0.25, 0.1, 0.3])]:
        slopes.append(expansion_fit(fwd, src, pushed, m).slope)
    assert max(slopes) - min(slopes) < 0.1


def test_expansion_negative_control_fails_quadratic():
    s = jet_space(3, 3)
    comp0 = Jet.coordinate(s, 0) + Jet.from_terms(s, {(0, 1, 1): 1.0})
    bad = PolyMap((comp0, Jet.coordinate(s, 1), Jet.coordinate(s, 2)))
    rep_pres = pushforward_preserves_H(bad, H3, H3, H3.domain.shrunk(0.1).grid(3))
    assert rep_pres.max_residual > 1e-3  # genuinely not H-preserving
    assert quad_max(bad, H3, H3, np.zeros(3)) > 0.5


def test_conjugated_jets_constant_vanishes():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    conj = conjugated_jets(fwd, heisenberg_frame(), pushed, np.array([0.2, -0.1, 0.3]))
    np.testing.assert_allclose(conj.constant(), 0.0, atol=1e-12)


def test_horizontal_quadratic_extraction():
    s = jet_space(3, 3)
    comp0 = Jet.from_terms(s, {(1, 0, 0): 1.0, (0, 2, 0): 1.5, (0, 1, 1): -0.5})
    pm = PolyMap((comp0, Jet.coordinate(s, 1), Jet.coordinate(s, 2)))
    c = horizontal_quadratic(pm)
    np.testing.assert_allclose(c, [[3.0, -0.5], [-0.5, 0.0]], atol=1e-14)


def test_privileged_coordinates_not_group_morphism():
    # diagnostic for the privileged-vs-Heisenberg remark: with a nonzero
    # symmetric part the plain b-law differs from the tangent-group law, so
    # the identity is a Lie-algebra but not a group identification
    b = np.array([[1.0]])
    L = b.T - b
    G = TangentGroup(L)
    x, y = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    diff = np.max(np.abs(bilinear_mul(b, x, y) - G.mul(x, y)))
    assert diff > 0.5
