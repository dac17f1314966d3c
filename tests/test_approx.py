import math

import numpy as np
import pytest

from heisgeom.approx import conjugated_jets, diffeo_expansion_check, graded_part, horizontal_quadratic
from heisgeom.fields import FrameError, pushforward_field, pushforward_preserves_H, tangent_blocks
from heisgeom.group import TangentGroup, bilinear_mul
from heisgeom.jets import Jet, PolyMap, jet_space
from heisgeom.rates import RateError, rate_fit
from heisgeom.coords import heisenberg_map, sample_box
from heisgeom.manifests import load_manifest
from heisgeom.suites import SuiteRunner

from conftest import SLOPE_MIN, TS, fit_rate, heisenberg_frame, left_translation, vertical_shear_diffeo

H3 = heisenberg_frame(half=8.0)
DARBOUX_Q = {(0, 1, 1): 1.0, (0, 3, 0): 0.4}


def expansion_fit(phi, src, dst, m) -> float:
    return fit_rate(diffeo_expansion_check(phi, src, dst, m, sample_box(0.6, 3, src.dim), TS))


def quad_max(phi, src, dst, m):
    """Largest horizontal quadratic coefficient of the conjugated transverse component."""
    return float(np.max(np.abs(horizontal_quadratic(conjugated_jets(phi, src, dst, m, 3)))))


# ---- rate fitting ----------------------------------------------------------


def test_rate_fit_linear():
    ts = 2.0 ** -np.arange(2, 9)
    assert rate_fit(ts, 3.7 * ts, 1e-13, 0.85) == pytest.approx(1.0, abs=1e-6)


def test_rate_fit_quadratic():
    ts = 2.0 ** -np.arange(2, 9)
    assert rate_fit(ts, 0.2 * ts**2, 1e-13, 0.85) == pytest.approx(2.0, abs=1e-6)


def test_rate_fit_constant_fails_verdict():
    ts = 2.0 ** -np.arange(2, 9)
    slope = rate_fit(ts, np.full(len(ts), 0.3), 1e-13, 0.85)
    assert slope == pytest.approx(0.0, abs=1e-9)
    assert slope < 0.85


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
        rate_fit(ts, [np.nan] * 11, 1e-10, 0.85)
    with pytest.raises(RateError, match="not finite"):
        rate_fit(ts, np.where(ts == 0.125, np.inf, 3.7 * ts), 1e-10, 0.85)


def test_rate_fit_decay_that_crosses_the_floor_is_fitted():
    # the shape of the seed-2 darboux-change transition trace: a clean O(t)
    # decay from 1.3e-10 down to 1.3e-13, one point above the 1e-10 floor
    r = 1.3e-10 * TS / TS[0]
    assert np.sum(r > 1e-10) == 1
    slope = fit_rate(r)
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert slope >= SLOPE_MIN


def test_rate_fit_flat_noise_under_the_floor_fails():
    # two points above the floor, then rounding noise that stays flat
    r = np.full(len(TS), 1e-15)
    r[:2] = [3e-10, 2e-10]
    slope = fit_rate(r)
    assert slope == pytest.approx(0.0, abs=1e-9)
    assert slope < SLOPE_MIN


def test_rate_fit_rejects_nonpositive_t():
    with pytest.raises(RateError, match="positive"):
        rate_fit([0.5, 0.25, 0.125, -0.0625], [1.0, 0.5, 0.25, 0.125], 1e-13, 0.85)


def test_rate_fit_rejects_a_grid_ending_in_zero():
    with pytest.raises(RateError, match="positive"):
        rate_fit([0.5, 0.25, 0.125, 0.0], [1.0, 0.5, 0.25, 0.125], 1e-13, 0.85)


def test_rate_fit_takes_exactly_four_positive_residuals():
    # the fewest that fit: all four above the floor
    assert rate_fit([0.5, 0.25, 0.125, 0.0625], [1.0, 0.5, 0.25, 0.125], 1e-13, 0.85) == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_sqrt_trace_fails():
    slope = fit_rate(0.3 * TS**0.5)
    assert slope == pytest.approx(0.5, abs=1e-9)
    assert slope < SLOPE_MIN


def test_rate_fit_rising_noise_trace_fails():
    # rounding noise of O(eps / t) rises as t falls: every local slope is -1
    slope = fit_rate(1e-9 / TS)
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert slope < SLOPE_MIN


def test_rate_fit_takes_small_t_end_past_a_bump():
    # the first 3 points rise before the O(t) decay sets in; a fit over the
    # whole grid is pulled below slope_min by them, the small-t suffix is not
    r = 0.3 * TS
    r[:3] = r[3] * np.array([0.5, 0.8, 1.2])
    assert np.polyfit(np.log(TS), np.log(r), 1)[0] < 0.85
    slope = fit_rate(r)
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert slope >= SLOPE_MIN


def test_rate_fit_passes_a_dip_before_linear_decay():
    # the shape of the seed-8 composition-limit trace: a residual that nearly
    # vanishes at t = 1/8 by cancellation, then decays as O(t)
    r = 0.3 * TS
    r[1] *= 1e-4
    assert TS[1] == 0.125
    slope = fit_rate(r)
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert slope >= SLOPE_MIN


def test_rate_fit_clean_trace_fits_the_whole_grid():
    r = 0.3 * TS * (1 + 2 * TS) + 1e-3 * TS**2
    assert np.all(np.diff(np.log(r)) / np.diff(np.log(TS)) >= 0.85)
    assert rate_fit(TS, r, 1e-10, 0.85) == np.polyfit(np.log(TS), np.log(r), 1)[0]


def test_rate_fit_requires_decreasing_grid():
    with pytest.raises(RateError, match="strictly decreasing"):
        rate_fit([0.25, 0.5, 0.125, 0.0625], [1.0, 1.0, 0.5, 0.25], 1e-13, 0.85)
    with pytest.raises(RateError, match="strictly decreasing"):
        rate_fit([0.5, 0.25, 0.25, 0.125], [1.0, 0.5, 0.5, 0.25], 1e-13, 0.85)


# ---- tangent blocks and graded tangent maps ----------------------------------


def graded_tangent(phi, src, dst, m):
    return graded_part(tangent_blocks(phi, src, dst, m), m)


def test_tangent_map_identity():
    C = tangent_blocks(PolyMap.identity(3, 3), H3, H3, np.array([0.2, -0.1, 0.4]))
    np.testing.assert_allclose(C, np.eye(3), atol=1e-12)


def test_tangent_map_dilation():
    s = 0.5
    delta = PolyMap.affine(np.diag([s**2, s, s]), np.zeros(3), 3)
    T = graded_tangent(delta, H3, H3, np.zeros(3))
    np.testing.assert_allclose(T, np.diag([s**2, s, s]), atol=1e-12)


def test_tangent_map_left_translation_trivial():
    # a00 = 1, A_par = I, and the transverse column C[1:, 0] vanishes too
    fwd, _ = left_translation([0.0, 1.0, 0.0])
    C = tangent_blocks(fwd, H3, H3, np.array([0.3, 0.2, -0.5]))
    np.testing.assert_allclose(C, np.eye(3), atol=1e-12)


def test_tangent_map_functoriality():
    # T(psi . phi)(m) = T(psi)(phi m) T(phi)(m), for the whole block and its graded part
    fwd, _ = left_translation([0.2, -0.4, 0.7])
    s = 0.5
    delta = PolyMap.affine(np.diag([s**2, s, s]), np.zeros(3), 3)
    composite = fwd.compose(delta)
    m = np.array([0.4, 0.6, -0.2])
    C_delta = tangent_blocks(delta, H3, H3, m)
    C_fwd = tangent_blocks(fwd, H3, H3, delta.eval(m))
    C_comp = tangent_blocks(composite, H3, H3, m)
    np.testing.assert_allclose(C_comp, C_fwd @ C_delta, atol=1e-11)
    np.testing.assert_allclose(
        graded_part(C_comp, m), graded_part(C_fwd, delta.eval(m)) @ graded_part(C_delta, m), atol=1e-11
    )


def test_tangent_map_is_group_homomorphism():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    m = np.array([0.1, -0.3, 0.4])
    T = graded_tangent(fwd, heisenberg_frame(), pushed, m)
    G1 = TangentGroup(heisenberg_map(heisenberg_frame(), m).levi)
    G2 = TangentGroup(heisenberg_map(pushed, fwd.eval(m)).levi)
    x, y = np.random.default_rng(21).uniform(-2, 2, (2, 50, 3))
    np.testing.assert_allclose(G1.mul(x, y) @ T.T, G2.mul(x @ T.T, y @ T.T), atol=1e-10)


def test_tangent_blocks_are_the_conjugated_differential():
    # C is the linear part at 0 of eps'_{phi m} . phi . eps_m^-1
    fwd, _, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    for m in [np.zeros(3), np.array([0.3, 0.25, -0.2])]:
        conj = conjugated_jets(fwd, src, pushed, m, 3)
        np.testing.assert_allclose(tangent_blocks(fwd, src, pushed, m), conj.linear(), atol=1e-12)


def test_tangent_blocks_batch_equals_single_points():
    fwd, _, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    pts = src.domain.shrunk(0.2).grid(3)
    C = tangent_blocks(fwd, src, pushed, pts)
    assert C.shape == (len(pts), 3, 3)
    for Ci, x in zip(C, pts):
        np.testing.assert_array_equal(Ci, tangent_blocks(fwd, src, pushed, x))


def test_graded_part_rejects_a_degenerate_block_naming_its_point():
    # a00 = 0 and a singular A_par fail the one determinant guard alike
    x = np.array([0.5, 0.0, 0.0])
    for C in (np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0])):
        with pytest.raises(FrameError, match=r"graded tangent map nearly singular at \[0\.5 0\.  0\. \]"):
            graded_part(C, x)
    # one degenerate block in a batch is enough, and the first one is named
    pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.75, 0.0, 0.0]])
    with pytest.raises(FrameError, match=r"at \[0\.25 0\.   0\.  \]"):
        graded_part(np.stack([np.eye(3), np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 1.0])]), pts)


def test_graded_part_bound_is_a_relative_determinant_of_1e_8(monkeypatch):
    # the top row and the transverse column are dropped, and the guard reads
    # det(diag(a00, A_par) / max|.|), which must exceed 1e-8 strictly
    C = 2.0 * np.diag([1.0, 1.0, 1e-8])
    C[0, 1:] = C[1:, 0] = 7.0
    seen = []
    det = np.linalg.det
    # LAPACK's determinant of diag(1, 1, r) is never exactly 1e-8, so the value it returns is set
    for value, ok in ((1e-8, False), (np.nextafter(1e-8, np.inf), True)):
        monkeypatch.setattr(np.linalg, "det", lambda M, v=value: seen.append(M) or np.full(M.shape[:-2], v))
        if ok:
            np.testing.assert_array_equal(graded_part(C, np.zeros(3)), 2.0 * np.diag([1.0, 1.0, 1e-8]))
        else:
            with pytest.raises(FrameError, match=r"det\(phi'_H/max\|phi'_H\|\)=1\.000e-08"):
                graded_part(C, np.zeros(3))
    np.testing.assert_array_equal(seen, [np.diag([1.0, 1.0, 1e-8])] * 2)
    monkeypatch.setattr(np.linalg, "det", det)
    # scale-free: the graded tangent map of the dilation by 1e-4 in dimension 5 passes
    tiny = np.diag([1e-8, 1e-4, 1e-4, 1e-4, 1e-4])
    np.testing.assert_array_equal(graded_part(tiny, np.zeros(5)), tiny)


# ---- expansion checks ------------------------------------------------------


def test_expansion_identity_exact():
    assert quad_max(PolyMap.identity(3, 3), H3, H3, np.zeros(3)) == 0.0
    slope = expansion_fit(PolyMap.identity(3, 3), H3, H3, np.zeros(3))
    assert math.isinf(slope)


def test_expansion_left_translation_exact():
    fwd, _ = left_translation([0.0, 1.0, 0.0])
    m = np.array([0.2, 0.1, -0.3])
    assert quad_max(fwd, H3, H3, m) < 1e-12
    slope = expansion_fit(fwd, H3, H3, m)
    assert math.isinf(slope)


def test_expansion_rotation_exact():
    th = 0.7
    R = np.array(
        [[1.0, 0.0, 0.0], [0.0, np.cos(th), -np.sin(th)], [0.0, np.sin(th), np.cos(th)]]
    )
    rot = PolyMap.affine(R, np.zeros(3), 3)
    m = np.array([0.1, 0.4, 0.2])
    assert quad_max(rot, H3, H3, m) < 1e-12
    assert math.isinf(expansion_fit(rot, H3, H3, m))
    np.testing.assert_allclose(graded_tangent(rot, H3, H3, m), R, atol=1e-12)


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
    assert pushforward_preserves_H(fwd, src, pushed, src.domain.shrunk(0.2).grid(3)) < 1e-10


def test_expansion_darboux_quadratic_vanishes_and_slope_one():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    for m in [np.zeros(3), np.array([0.3, 0.25, -0.2]), np.array([-0.2, -0.4, 0.35])]:
        assert quad_max(fwd, src, pushed, m) < 1e-10
        slope = expansion_fit(fwd, src, pushed, m)
        assert SLOPE_MIN <= slope <= 1.35


def test_expansion_uniformity_across_base_points():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    src = heisenberg_frame()
    slopes = []
    for m in [np.array([0.0, 0.2, 0.1]), np.array([0.1, -0.3, 0.2]), np.array([-0.2, 0.4, -0.1]), np.array([0.25, 0.1, 0.3])]:
        slopes.append(expansion_fit(fwd, src, pushed, m))
    assert max(slopes) - min(slopes) < 0.1


def test_expansion_negative_control_fails_quadratic():
    s = jet_space(3, 3)
    comp0 = Jet.coordinate(s, 0) + Jet.from_terms(s, {(0, 1, 1): 1.0})
    bad = PolyMap((comp0, Jet.coordinate(s, 1), Jet.coordinate(s, 2)))
    assert pushforward_preserves_H(bad, H3, H3, H3.domain.shrunk(0.1).grid(3)) > 1e-3  # genuinely not H-preserving
    assert quad_max(bad, H3, H3, np.zeros(3)) > 0.5


def test_conjugated_jets_constant_vanishes():
    fwd, inv, pushed = vertical_shear_diffeo(DARBOUX_Q)
    conj = conjugated_jets(fwd, heisenberg_frame(), pushed, np.array([0.2, -0.1, 0.3]), 3)
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


@pytest.mark.parametrize("name", ["heisenberg3", "contact-darboux"])
def test_horizontal_quadratic_batch_equals_the_loop_over_base_points(name):
    # the quadratic-vanishing check conjugates every base point in one call;
    # the loop over points is the check body it replaced
    runner = SuiteRunner(load_manifest(name, seed=42))
    order = runner.manifest.jet_order
    for spec in runner.manifest.diffeos:
        src, dst = runner.manifest.chart(spec.source).frame, runner.manifest.chart(spec.target).frame
        base = runner.base_points(spec.source, limit=4, shrink=0.15)
        loop = np.stack([horizontal_quadratic(conjugated_jets(spec.fwd, src, dst, m, order)) for m in base])
        got = horizontal_quadratic(conjugated_jets(spec.fwd, src, dst, base, order))
        assert got.shape == loop.shape and got.tobytes() == loop.tobytes(), spec.name
