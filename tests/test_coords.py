import math

import numpy as np
import pytest

from heisgeom import coords
from heisgeom.coords import (
    dilation_limit_check,
    graded_weight_violation,
    heisenberg_map,
    model_field,
    privileged_frame,
)
from heisgeom.fields import FrameError, LeviForm, bracket
from heisgeom.jets import Jet, PolyMap
from heisgeom.manifests import builtin_names, load_manifest
from heisgeom.suites import SuiteRunner

from conftest import SLOPE_MIN, TS, degenerate_frame, fit_rate, flat_frame, heisenberg_frame, shear1d_frame

CORPUS = {
    "heisenberg3": heisenberg_frame(),
    "heisenberg5": heisenberg_frame(n=2),
    "flat": flat_frame(),
    "degenerate": degenerate_frame(),
    "shear1d": shear1d_frame(),
}


def b_matrix(frame, u) -> np.ndarray:
    """Reference b_jk = d_k a_j0(0), read from the degree-1 jets of the frame
    pushed into privileged coordinates at u."""
    return np.array([X.components.linear()[0, 1:] for X in privileged_frame(frame, u)[1:]])


def loop_privileged_tables(frame, u) -> list:
    """The pushed frame's coefficient tables by a hand-written loop: each
    field composed with psi_u^-1(y) = u + B(u)^t y, then row i of the table
    summed as A_ik times row k over the nonzero A_ik, in k order."""
    B = frame.matrix_at(u)
    A = np.linalg.inv(B.T)
    inner = PolyMap.affine(B.T, u, frame.order)
    tables = []
    for f in frame.fields:
        composed = f.components.with_order(frame.order).compose(inner, exact=True)
        table = np.zeros(composed.coeffs.shape)
        for k, row in enumerate(composed.coeffs):
            rows = np.flatnonzero(A[:, k])
            table[rows] += A[rows, k, None] * row
        tables.append(table)
    return tables


@pytest.mark.parametrize("name", builtin_names())
def test_privileged_frame_equals_the_loop_on_every_builtin_chart(name):
    manifest = load_manifest(name)
    runner = SuiteRunner(manifest)
    for chart in manifest.charts:
        for u in runner.base_points(chart.name, limit=8):
            got = [X.components.coeffs for X in privileged_frame(chart.frame, u)]
            for table, want in zip(got, loop_privileged_tables(chart.frame, u)):
                assert table.tobytes() == want.tobytes()


def test_privileged_flat_identity():
    frame = flat_frame()
    for j, f in enumerate(privileged_frame(frame, np.zeros(3))):
        want = np.zeros(3)
        want[j] = 1.0
        np.testing.assert_array_equal(f(np.array([0.4, -0.2, 0.9])), want)


def test_privileged_h3_at_origin_identity():
    # psi_0 is the identity, so every field keeps its table
    frame = heisenberg_frame()
    for pushed, f in zip(privileged_frame(frame, np.zeros(3)), frame.fields):
        np.testing.assert_array_equal(pushed.components.coeffs, f.components.coeffs)


def test_privileged_h3_off_origin_matches_inverse_oracle():
    frame = heisenberg_frame()
    u = np.array([0.0, 1.0, 0.0])
    A = heisenberg_map(frame, u).A
    np.testing.assert_allclose(A, np.linalg.inv(frame.matrix_at(u).T), atol=1e-14)
    np.testing.assert_allclose(A, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-14)
    # normalization: the pushed frame equals the coordinate frame at 0
    for j, f in enumerate(privileged_frame(frame, u)):
        want = np.zeros(3)
        want[j] = 1.0
        np.testing.assert_allclose(f(np.zeros(3)), want, atol=1e-12)


def test_privileged_pushed_frame_vanishing_offsets():
    # a_jk(0) = 0: at 0 the pushed components reduce to the coordinate frame
    for frame in CORPUS.values():
        for u in frame.domain.shrunk(0.4).grid(2, limit=8):
            for j, f in enumerate(privileged_frame(frame, u)):
                a0 = f(np.zeros(frame.dim))
                a0[j] -= 1.0
                np.testing.assert_allclose(a0, 0.0, atol=1e-11)


def test_privileged_frame_is_the_pushforward():
    # (psi_u)_* X at psi_u(x) = A (x - u) is A X(x)
    frame = degenerate_frame()
    u = np.array([0.1, -0.3, 0.5, 0.7, -0.2])
    A = np.linalg.inv(frame.matrix_at(u).T)
    x = np.array([0.3, 0.2, -0.1, 0.4, 0.6])
    for pushed, f in zip(privileged_frame(frame, u), frame.fields):
        np.testing.assert_allclose(pushed(A @ (x - u)), A @ f(x), atol=1e-12)


def test_privileged_out_of_domain():
    with pytest.raises(FrameError):
        privileged_frame(heisenberg_frame(half=1.0), np.array([3.0, 0.0, 0.0]))


def test_b_matrix_h3():
    np.testing.assert_allclose(b_matrix(heisenberg_frame(), np.zeros(3)), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)


def test_b_matrix_flat():
    np.testing.assert_allclose(b_matrix(flat_frame(), np.array([0.2, 0.5, -0.1])), 0.0, atol=1e-14)


def test_b_matrix_h5_block_pattern():
    b = b_matrix(heisenberg_frame(n=2), np.zeros(5))
    want = np.zeros((4, 4))
    want[0, 2] = want[1, 3] = 1.0
    want[2, 0] = want[3, 1] = -1.0
    np.testing.assert_allclose(b, want, atol=1e-14)


def test_b_jet_route_matches_jacobian_route():
    for frame in CORPUS.values():
        for u in frame.domain.shrunk(0.4).grid(2, limit=6):
            np.testing.assert_allclose(b_matrix(frame, u), heisenberg_map(frame, u).b, atol=1e-11)


def test_levi_equals_bt_minus_b():
    for name, frame in CORPUS.items():
        lf = LeviForm(frame)
        pts = frame.domain.shrunk(0.5).grid(3, limit=30)
        assert len(pts) >= 25 or frame.dim == 2
        for u in pts:
            b = heisenberg_map(frame, u).b
            np.testing.assert_allclose(b.T - b, lf.matrix(u), atol=1e-10, err_msg=name)


def test_heisenberg_map_h3_is_affine():
    frame = heisenberg_frame()
    hm = heisenberg_map(frame, np.array([0.2, -0.4, 0.6]))
    np.testing.assert_allclose(hm.shear.c, 0.0, atol=1e-14)  # antisymmetric b
    x = np.array([0.5, 0.1, -0.3])
    np.testing.assert_allclose(hm.forward(x), (x - hm.u) @ hm.A.T, atol=1e-13)


def test_heisenberg_map_quadratic_correction():
    # frame with symmetric part: phi_u adds -1/2 sum s_jk x_j x_k to x_0
    frame = shear1d_frame()
    hm = heisenberg_map(frame, np.zeros(2))
    np.testing.assert_allclose(hm.b, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(hm.shear.c, [[-1.0]], atol=1e-14)
    pm = hm.as_polymap(3)
    assert pm.components[0].coefficient((0, 2)) == pytest.approx(-0.5, abs=1e-13)


def test_heisenberg_map_flat_affine():
    hm = heisenberg_map(flat_frame(), np.array([0.3, 0.2, 0.1]))
    np.testing.assert_allclose(hm.shear.c, 0.0, atol=0)
    pm = hm.as_polymap(2)
    for comp in pm.components:
        assert comp.degree() <= 1


def test_heisenberg_roundtrip_and_center():
    for frame in (degenerate_frame(), shear1d_frame()):
        u = 0.3 * np.ones(frame.dim)
        hm = heisenberg_map(frame, u)
        np.testing.assert_allclose(hm.forward(u), np.zeros(frame.dim), atol=0)
        x = 0.1 * np.arange(frame.dim) - 0.2
        np.testing.assert_allclose(hm.inverse(hm.forward(x)), x, atol=1e-12)
        # polymap versions agree with the closed forms
        pts = frame.domain.shrunk(0.3).grid(2, limit=4)
        np.testing.assert_allclose(hm.as_polymap(3).eval_many(pts), hm.forward(pts), atol=1e-12)
        np.testing.assert_allclose(hm.inverse_polymap(3).eval_many(pts), hm.inverse(pts), atol=1e-12)


def test_shear_map_commutes_with_dilations():
    for frame in CORPUS.values():
        u = 0.25 * np.ones(frame.dim)
        hm = heisenberg_map(frame, u)
        assert graded_weight_violation(hm.shear.as_polymap(2)) == 0.0


def test_pushed_model_fields_equal_model_formula():
    for name, frame in CORPUS.items():
        for u in frame.domain.shrunk(0.4).grid(2, limit=6):
            hm = heisenberg_map(frame, u)
            assert hm.pushed_model_residual() < 1e-10, name


def test_model_frame_structure_constants():
    # [X_j^(u), X_k^(u)] = L_jk X_0^(u), exactly on jets
    for frame in (heisenberg_frame(), degenerate_frame()):
        u = 0.35 * np.ones(frame.dim)
        hm = heisenberg_map(frame, u)
        fields = hm.dilation_model_frame(3)
        L = hm.levi
        for j in range(1, frame.dim):
            for k in range(1, frame.dim):
                br = bracket(fields[j], fields[k])
                got0 = br.components.components[0]
                const = got0.coefficient((0,) * frame.dim)
                assert const == pytest.approx(L[j - 1, k - 1], abs=1e-12)
                rest = got0.coeffs.copy()
                rest[0] = 0.0
                np.testing.assert_allclose(rest, 0.0, atol=1e-12)
                for c in br.components.components[1:]:
                    np.testing.assert_allclose(c.coeffs, 0.0, atol=1e-12)


def test_model_field_cases():
    frame = heisenberg_frame()
    m = np.zeros(3)
    s = frame.fields[0].components.space

    hm = heisenberg_map(frame, m)
    mf0 = model_field(frame.fields[0], frame, hm)
    assert mf0.weight == 2 and not mf0.flagged
    f0 = mf0.as_field(3)
    assert f0.components.components[0].terms() == {(0, 0, 0): 1.0}
    assert f0.components.components[1].terms() == {}

    mf1 = model_field(frame.fields[1], frame, hm)
    assert mf1.weight == 1
    f1 = mf1.as_field(3)
    # d_1 + x_2 d_0 since -L_12/2 = 1
    assert f1.components.components[0].terms() == {(0, 0, 1): 1.0}
    assert f1.components.components[1].terms() == {(0, 0, 0): 1.0}

    vanishing = frame.fields[1].scaled_by_jet(Jet.coordinate(s, 0))
    mfv = model_field(vanishing, frame, hm)
    assert mfv.weight == 1
    fv = mfv.as_field(3)
    for c in fv.components.components:
        np.testing.assert_array_equal(c.coeffs, 0.0)


def test_model_field_threshold_flagging():
    frame = heisenberg_frame()
    # X = 3e-10 X_0 + X_1 sits inside the flag band around the 1e-9 cutoff
    X = frame.fields[1] + 3e-10 * frame.fields[0]
    mf = model_field(X, frame, heisenberg_map(frame, np.zeros(3)))
    assert mf.flagged


def test_dilation_limit_check_reports_the_model_field_flag():
    frame = heisenberg_frame()
    near = frame.fields[1] + 3e-10 * frame.fields[0]
    assert dilation_limit_check(near, frame, np.zeros(3), TS)[1]
    assert not dilation_limit_check(frame.fields[1], frame, np.zeros(3), TS)[1]


def test_dilation_records_read_flagged_for_a_near_threshold_model_field(monkeypatch):
    # each model field is computed as if for X + 3e-10 X_0: for X_1 that keeps
    # weight 1 and its coefficients but sits in the flag band; the perturbed
    # field X_1 + x_1^2 X_0 has weight 2 at the base point, far from the band
    real = coords.model_field
    monkeypatch.setattr(coords, "model_field", lambda X, frame, hm: real(X + 3e-10 * frame.fields[0], frame, hm))
    records = SuiteRunner(load_manifest("heisenberg3")).run(["coords"])
    verdicts = {rec.check_id.split("/")[-1]: rec.verdict for rec in records}
    assert verdicts.pop("dilation-exact") == "flagged"
    assert set(verdicts.values()) == {"pass"}


def test_dilation_limit_exact_for_frame_field():
    frame = heisenberg_frame()
    slope = fit_rate(dilation_limit_check(frame.fields[1], frame, np.zeros(3), TS)[0])
    assert math.isinf(slope)


def test_dilation_limit_exact_flat():
    frame = flat_frame()
    slope = fit_rate(dilation_limit_check(frame.fields[1], frame, np.array([0.1, 0.0, -0.2]), TS)[0])
    assert math.isinf(slope)


def test_dilation_limit_perturbed_slope_one():
    frame = heisenberg_frame()
    s = frame.fields[0].components.space
    x1sq = Jet.from_terms(s, {(0, 2, 0): 1.0})
    X = frame.fields[1] + frame.fields[0].scaled_by_jet(x1sq)
    slope = fit_rate(dilation_limit_check(X, frame, np.zeros(3), TS)[0])
    assert not math.isinf(slope)
    assert slope == pytest.approx(1.0, abs=0.1)
    assert slope >= SLOPE_MIN


def test_dilation_limit_weight2_branch():
    frame = heisenberg_frame()
    s = frame.fields[0].components.space
    x1sq = Jet.from_terms(s, {(0, 2, 0): 1.0})
    X = frame.fields[1] + frame.fields[0].scaled_by_jet(x1sq)
    m = np.array([0.0, 0.5, 0.0])  # here a_0(m) = 0.25 != 0 -> weight 2
    mf = model_field(X, frame, heisenberg_map(frame, m))
    assert mf.weight == 2
    slope = fit_rate(dilation_limit_check(X, frame, m, TS)[0])
    assert slope >= SLOPE_MIN


def test_frame_degree():
    assert heisenberg_frame().stacked.degree() == 1
    assert degenerate_frame().stacked.degree() == 2


BUILTIN_CHARTS = [(name, chart) for name in builtin_names() for chart in load_manifest(name).charts]


@pytest.mark.parametrize("name,chart", BUILTIN_CHARTS, ids=[f"{n}-{c.name}" for n, c in BUILTIN_CHARTS])
def test_heisenberg_map_batch_equals_single_calls(name, chart):
    frame = chart.frame
    rng = np.random.default_rng(17)
    box = frame.domain.shrunk(0.1)  # where the groupoid sweeps sample
    pts = box.lo + (box.hi - box.lo) * rng.uniform(size=(300, frame.dim))
    batch = heisenberg_map(frame, pts)
    assert batch.A.shape == (300, frame.dim, frame.dim) and batch.b.shape == (300, frame.d, frame.d)
    for i, u in enumerate(pts):
        one = heisenberg_map(frame, u)
        assert np.array_equal(batch.A[i], one.A) and np.array_equal(batch.b[i], one.b)
        assert np.array_equal(batch.levi[i], one.levi)
    # a batch of maps takes one point per map, as one map per point would
    w = rng.uniform(-0.1, 0.1, pts.shape)
    got = batch.inverse_displacement(w)
    for i in (0, 150, 299):
        np.testing.assert_allclose(got[i], heisenberg_map(frame, pts[i]).inverse_displacement(w[i]), rtol=1e-13, atol=1e-16)
    empty = heisenberg_map(frame, np.zeros((0, frame.dim)))
    assert empty.A.shape == (0, frame.dim, frame.dim) and empty.b.shape == (0, frame.d, frame.d)


def test_heisenberg_map_batch_names_first_bad_point():
    frame = heisenberg_frame(half=1.0)
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [5.0, 0.0, 0.0]])
    with pytest.raises(FrameError, match=r"base point \[0\. 3\. 0\.\] outside"):
        heisenberg_map(frame, pts)
