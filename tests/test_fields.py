import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisgeom.fields import (
    Box,
    FrameError,
    HFrame,
    LeviForm,
    VectorField,
    bracket,
    pushforward_field,
    pushforward_preserves_H,
)
from heisgeom.group import TangentGroup
from heisgeom.jets import Jet, JetError, PolyMap, jet_space
from heisgeom.manifests import Manifest, builtin_names, load_doc
from heisgeom.suites import SuiteRunner, run_suites

from conftest import (
    degenerate_frame,
    flat_frame,
    heisenberg_frame,
    left_translation,
    poly_field,
    shear1d_frame,
    sym_box,
    unit_exp,
)
from test_jets import (
    random_jet,
    random_map,
    reference_compose,
    reference_jet_compose,
    reference_mul,
    reference_partial,
    reference_rebased,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from workloads import H7_NAME, REFERENCE_SEED, scale_h7_doc  # noqa: E402


def fd_bracket(X, Y, m, h=1e-5):
    """Finite-difference oracle: [X,Y](m) = DY(m) X(m) - DX(m) Y(m)."""
    m = np.asarray(m, dtype=float)
    dim = X.dim

    def jac(F):
        J = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            J[:, j] = (F(m + e) - F(m - e)) / (2 * h)
        return J

    return jac(Y) @ X(m) - jac(X) @ Y(m)


def random_poly_field(rng, dim, order, max_degree):
    s = jet_space(dim, order)
    comps = {}
    for i in range(dim):
        terms = {}
        for pos, e in enumerate(s.exponents):
            if s.degrees[pos] <= max_degree and rng.uniform() < 0.5:
                terms[tuple(e)] = rng.uniform(-1, 1)
        comps[i] = terms
    return poly_field(dim, order, comps)


def test_bracket_heisenberg_relation():
    frame = heisenberg_frame()
    br = bracket(frame.fields[1], frame.fields[2])
    assert br.components.components[0].terms() == {(0, 0, 0): -2.0}
    assert br.components.components[1].terms() == {}
    assert br.components.components[2].terms() == {}


def test_bracket_self_vanishes():
    rng = np.random.default_rng(5)
    X = random_poly_field(rng, 3, 4, 2)
    br = bracket(X, X)
    for c in br.components.components:
        np.testing.assert_allclose(c.coeffs, 0.0, atol=1e-12)


def test_bracket_flat_frame_vanishes():
    frame = flat_frame()
    br = bracket(frame.fields[1], frame.fields[2])
    for c in br.components.components:
        assert c.terms() == {}


def test_bracket_of_constant_fields_is_float64():
    # coords/*/model-structure subtracts L in place from such a table
    frame = flat_frame()
    got = bracket(frame.fields[1], frame.fields[2]).components.coeffs.copy()
    assert got.dtype == np.float64
    got[0, 0] -= 0.7
    assert got[0, 0] == -0.7


def test_bracket_dimension_mismatch():
    with pytest.raises(Exception):
        bracket(flat_frame(3).fields[0], flat_frame(4, order=3).fields[0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_jacobi_identity(seed):
    # degree <= 2 fields at order 6 keep every double bracket exact
    rng = np.random.default_rng(seed)
    X, Y, Z = (random_poly_field(rng, 3, 6, 2) for _ in range(3))
    total = (
        bracket(bracket(X, Y), Z)
        + bracket(bracket(Y, Z), X)
        + bracket(bracket(Z, X), Y)
    )
    for c in total.components.components:
        np.testing.assert_allclose(c.coeffs, 0.0, atol=1e-10)


def levi_matrix(frame: HFrame, m) -> np.ndarray:
    """The Levi matrix of the frame at m, through a fresh LeviForm."""
    return LeviForm(frame).matrix(m)


def test_levi_heisenberg3():
    frame = heisenberg_frame()
    for m in [np.zeros(3), np.array([0.3, -0.4, 0.9]), np.array([-1.0, 1.0, 0.5])]:
        L = levi_matrix(frame, m)
        np.testing.assert_allclose(L, [[0.0, -2.0], [2.0, 0.0]], atol=1e-12)


def test_levi_flat_foliation_vanishes():
    frame = flat_frame()
    L = levi_matrix(frame, np.array([0.1, 0.2, -0.3]))
    np.testing.assert_allclose(L, 0.0, atol=1e-14)


def test_levi_heisenberg5_pattern():
    frame = heisenberg_frame(n=2)
    L = levi_matrix(frame, np.array([0.2, -0.1, 0.4, 0.05, -0.3]))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = -2.0
    expected[2, 0] = expected[3, 1] = 2.0
    np.testing.assert_allclose(L, expected, atol=1e-12)


def test_levi_antisymmetry_across_corpus():
    for frame in [heisenberg_frame(), heisenberg_frame(n=2), flat_frame(), degenerate_frame(), shear1d_frame()]:
        lf = LeviForm(frame)
        for m in frame.domain.shrunk(0.5).grid(3, limit=20):
            raw = lf.raw_matrix(m)
            assert np.max(np.abs(raw + raw.T), initial=0.0) < 1e-10


def test_levi_bilinearity_under_row_scaling():
    frame = heisenberg_frame()
    c1, c2 = 2.5, -0.5
    scaled = HFrame(
        (frame.fields[0], c1 * frame.fields[1], c2 * frame.fields[2]),
        frame.domain,
    )
    m = np.array([0.2, 0.1, -0.6])
    L = levi_matrix(frame, m)
    Ls = levi_matrix(scaled, m)
    np.testing.assert_allclose(Ls, np.diag([c1, c2]) @ L @ np.diag([c1, c2]), atol=1e-12)


def test_levi_matches_finite_difference_oracle():
    for frame in [heisenberg_frame(), degenerate_frame()]:
        m = 0.3 * np.ones(frame.dim)
        L = levi_matrix(frame, m)
        basis = frame.basis_at(m)
        for j in range(1, frame.dim):
            for k in range(j + 1, frame.dim):
                v = fd_bracket(frame.fields[j], frame.fields[k], m)
                omega = np.linalg.solve(basis, v)
                assert L[j - 1, k - 1] == pytest.approx(omega[0], abs=1e-6)


def test_levi_out_of_domain():
    frame = heisenberg_frame(half=1.0)
    with pytest.raises(FrameError):
        levi_matrix(frame, np.array([5.0, 0.0, 0.0]))


def test_structure_constants_validation():
    with pytest.raises(ValueError, match="antisymmetric"):
        TangentGroup(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        TangentGroup(np.zeros((2, 3)))
    # a NaN or an infinity fails the antisymmetry test instead of slipping past it
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite and antisymmetric"), np.errstate(invalid="ignore"):
            TangentGroup(np.array([[0.0, bad], [-bad, 0.0]]))


LEVI_CHARTS = [
    (name, chart.name)
    for name, doc in [*((n, load_doc(n)) for n in builtin_names()), (H7_NAME, scale_h7_doc(REFERENCE_SEED))]
    for chart in Manifest.from_dict(doc).charts
]


@pytest.mark.parametrize("name,cname", LEVI_CHARTS, ids=[f"{n}-{c}" for n, c in LEVI_CHARTS])
def test_levi_batch_equals_single_points(name, cname):
    doc = scale_h7_doc(REFERENCE_SEED) if name == H7_NAME else load_doc(name)
    manifest = Manifest.from_dict(doc, seed=REFERENCE_SEED)
    lf, pts = LeviForm(manifest.chart(cname).frame), SuiteRunner(manifest).base_points(cname)
    d = lf.frame.d
    L, raw = lf.matrix(pts), lf.raw_matrix(pts)
    assert L.shape == raw.shape == (len(pts), d, d)
    for i, m in enumerate(pts):
        assert np.array_equal(L[i], lf.matrix(m)) and np.array_equal(raw[i], lf.raw_matrix(m))
    # a (k, n, dim) batch gives (k, n, d, d)
    np.testing.assert_array_equal(lf.matrix(pts[:6].reshape(2, 3, -1)), L[:6].reshape(2, 3, d, d))


@pytest.mark.parametrize(
    "make", [heisenberg_frame, lambda: heisenberg_frame(n=2), flat_frame, degenerate_frame, shear1d_frame]
)
def test_matrix_at_matches_per_field_evaluation(make):
    frame = make()
    rng = np.random.default_rng(frame.dim)
    for x in rng.uniform(-1.5, 1.5, (6, frame.dim)):
        B = frame.matrix_at(x)
        np.testing.assert_allclose(B, np.stack([f(x) for f in frame.fields]), rtol=0, atol=1e-14)
        B2, DX = frame.matrix_and_jacobians(x)
        np.testing.assert_array_equal(B2, B)
        want = np.stack([f.components.jacobian(x) for f in frame.fields])
        np.testing.assert_allclose(DX, want, rtol=0, atol=1e-14)


def test_frame_fields_must_share_space_and_base():
    frame = heisenberg_frame(order=3)
    with pytest.raises(JetError):
        HFrame((frame.fields[0].with_order(2),) + frame.fields[1:], frame.domain)
    s = jet_space(3, 3)
    moved = VectorField(PolyMap(tuple(Jet.constant(s, 1.0 if i == 0 else 0.0, base=np.ones(3)) for i in range(3))))
    with pytest.raises(JetError):
        HFrame((moved,) + frame.fields[1:], frame.domain)


def test_frame_singular_guard():
    dim, order = 2, 2
    zero = (0, 0)
    # X_1 = (1 - x_1) d/dx_1 degenerates on the line x_1 = 1
    fields = (
        poly_field(dim, order, {0: {zero: 1.0}}),
        poly_field(dim, order, {1: {zero: 1.0, unit_exp(dim, 1): -1.0}}),
    )
    frame = HFrame(fields, sym_box(dim))
    with pytest.raises(FrameError):
        frame.check_invertible(np.array([0.0, 1.0]))
    frame.check_invertible(np.zeros(2))
    # a batch is guarded point by point, and the error names the first singular point
    pts = np.array([[0.0, 0.0], [0.3, 1.0], [0.0, 1.0]])
    with pytest.raises(FrameError, match=r"singular at \[0\.3 1\. \]"):
        frame.check_invertible(pts)
    np.testing.assert_array_equal(frame.check_invertible(pts[:1]), [np.linalg.det(frame.matrix_at(pts[0]))])


def test_frame_singular_guard_rejects_a_nonfinite_frame_matrix():
    # X_i = 1e308 (1 + x_0) d_i: B(x) overflows to diag(inf) at x_0 = 0.9, so
    # B / max|B| holds NaN and so does its determinant
    zero, x0 = (0, 0, 0), unit_exp(3, 0)
    frame = HFrame(tuple(poly_field(3, 3, {i: {zero: 1e308, x0: 1e308}}) for i in range(3)), sym_box(3))
    frame.check_invertible(np.array([0.5, 0.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FrameError, match=r"singular at \[0\.9 0\.  0\. \]: det\(B/max\|B\|\)=nan"):
            frame.check_invertible(np.array([[0.5, 0.0, 0.0], [0.9, 0.0, 0.0]]))


def test_frame_singular_guard_is_scale_free():
    # every coefficient times 1e110: max|B|^dim would overflow to inf at dim 3
    frame = heisenberg_frame()
    big = HFrame(tuple(1e110 * f for f in frame.fields), frame.domain)
    pts = frame.domain.shrunk(0.9).grid(3)
    with np.errstate(all="raise"):
        big.check_invertible(pts)
        # the same frame with X_2 replaced by X_1, scaled the same way, still fails
        singular = HFrame(big.fields[:2] + big.fields[1:2], frame.domain)
        with pytest.raises(FrameError, match=r"singular at .*: det\(B/max\|B\|\)=0\.000e\+00"):
            singular.check_invertible(pts)


def test_scaled_heisenberg3_levi_checks_are_records_not_errors():
    doc = load_doc("heisenberg3")
    for field in doc["charts"][0]["frame"]:
        for comp in field:
            for term in comp:
                term[0] *= 1e110
    with np.errstate(over="raise"):
        records = run_suites(Manifest.from_dict(doc, seed=42), "levi")
    assert {rec.check_id: rec.verdict for rec in records}["levi/hb3/golden"] == "fail"
    assert all(rec.verdict != "error" for rec in records)


def test_box_contains_each_point():
    box = Box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
    assert box.contains(np.array([1.0 + 1e-10, -2.0]))
    assert not box.contains(np.array([0.0, 2.1]))
    pts = np.array([[0.0, 0.0], [0.0, 2.1], [-1.5, 0.0], [1.0, 2.0]])
    np.testing.assert_array_equal(box.contains(pts), [True, False, False, True])
    np.testing.assert_array_equal(box.contains(pts.reshape(2, 2, 2)), [[True, False], [False, True]])
    assert box.contains(np.zeros((0, 2))).shape == (0,)


def test_matrix_and_jacobians_batch_equals_single_points():
    frame = degenerate_frame()
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, (40, frame.dim))
    B, DX = frame.matrix_and_jacobians(pts)
    np.testing.assert_array_equal(frame.matrix_at(pts), B)
    for i, x in enumerate(pts):
        B1, DX1 = frame.matrix_and_jacobians(x)
        assert np.array_equal(B[i], B1) and np.array_equal(DX[i], DX1)


def test_pushforward_preserves_H_identity():
    frame = heisenberg_frame()
    ident = PolyMap.identity(3, 3)
    assert pushforward_preserves_H(ident, frame, frame, frame.domain.shrunk(0.4).grid(3)) == 0.0


def test_pushforward_preserves_H_left_translation():
    frame = heisenberg_frame(half=4.0)
    fwd, _ = left_translation([0.0, 1.0, 0.0])
    assert pushforward_preserves_H(fwd, frame, frame, frame.domain.shrunk(0.2).grid(3)) < 1e-10


def test_pushforward_preserves_H_swap_fails():
    frame = heisenberg_frame()
    swap = PolyMap.affine(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3), 3)
    assert pushforward_preserves_H(swap, frame, frame, frame.domain.shrunk(0.4).grid(3)) > 1e-2


def test_pushforward_out_of_domain_sample():
    frame = heisenberg_frame(half=1.0)
    ident = PolyMap.identity(3, 3)
    with pytest.raises(FrameError, match="outside the source domain"):
        pushforward_preserves_H(ident, frame, frame, np.array([[3.0, 0.0, 0.0]]))


def test_pushforward_out_of_domain_image():
    frame = heisenberg_frame(half=1.0)
    shift = PolyMap.affine(np.eye(3), np.array([1.5, 0.0, 0.0]), 3)
    with pytest.raises(FrameError, match="outside the target domain"):
        pushforward_preserves_H(shift, frame, frame, np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))


def preservation_loop(phi, frame_src, frame_dst, samples) -> float:
    """The residual as it was computed before the tangent blocks were batched:
    per sample and per horizontal field, phi'(x) X_j(x) solved in the target
    frame at phi(x), its X_0-component relative to its norm."""
    res = []
    for x in samples:
        D = phi.jacobian(x)
        basis_dst = frame_dst.basis_at(phi.eval(x))
        for j in range(1, frame_src.dim):
            omega = np.linalg.solve(basis_dst, D @ frame_src.fields[j](x))
            denom = np.linalg.norm(omega)
            res.append(abs(omega[0] / denom) if denom != 0 else 0.0)
    return max(res)


@pytest.mark.parametrize("name", builtin_names())
def test_pushforward_preserves_H_matches_the_per_field_loop(name):
    # not bit for bit: one solve with a matrix right-hand side rounds apart
    # from one solve per field (heisenberg3's rotate: 3.7e-16 against 3.4e-16)
    manifest = Manifest.from_dict(load_doc(name), seed=0)
    runner = SuiteRunner(manifest)
    for spec in manifest.diffeos:
        src, dst = manifest.chart(spec.source).frame, manifest.chart(spec.target).frame
        for pts in (runner.base_points(spec.source, limit=12), runner.base_points(spec.source, limit=4, shrink=0.15)):
            got = pushforward_preserves_H(spec.fwd, src, dst, pts)
            want = preservation_loop(spec.fwd, src, dst, pts)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (spec.name, got, want)


def test_pushforward_field_left_invariance():
    # left translations fix each left-invariant frame field
    frame = heisenberg_frame()
    fwd, inv = left_translation([0.5, -0.25, 1.0])
    for f in frame.fields:
        pushed = pushforward_field(fwd, inv, f, order=4)
        for got, want in zip(pushed.components.components, f.with_order(4).components.components):
            np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-12)


def reference_bracket(X, Y):
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i), one jet product at a time."""
    s, dim = X.components.space, X.dim
    xc, yc = X.components.coeffs, Y.components.coeffs
    out = []
    for i in range(dim):
        acc = None
        for j in range(dim):
            term = reference_mul(s, xc[j], reference_partial(s, yc[i], j)) - reference_mul(
                s, yc[j], reference_partial(s, xc[i], j)
            )
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.array(out)


def reference_pushforward(fwd, inv, X):
    """fwd'(inv(y)) X(inv(y)), one composed partial and one product per (i, j)."""
    s, dim = inv.space, X.dim
    x_inv = reference_compose(X.components, inv, exact=True)
    out = []
    for i in range(dim):
        acc = None
        for j in range(dim):
            dfij = Jet(fwd.space, reference_partial(fwd.space, fwd.coeffs[i], j), fwd.base)
            dfij_at = reference_jet_compose(reference_rebased(dfij, inv.constant()), inv, exact=True)
            term = reference_mul(s, dfij_at, x_inv[j])
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("dim, order", [(d, k) for d in range(2, 6) for k in range(2, 6)])
def test_bracket_bitwise_matches_double_loop(dim, order):
    rng = np.random.default_rng(200 + 10 * dim + order)
    s = jet_space(dim, order)
    base = rng.uniform(-1, 1, dim)
    X, Y = (VectorField(random_map(rng, s, base)) for _ in range(2))
    got = bracket(X, Y).components
    np.testing.assert_array_equal(got.coeffs, reference_bracket(X, Y))
    np.testing.assert_array_equal(got.base, base)


@pytest.mark.parametrize("dim, order", [(d, k) for d in range(2, 6) for k in range(2, 6)])
def test_pushforward_field_bitwise_matches_double_loop(dim, order):
    rng = np.random.default_rng(300 + 10 * dim + order)
    s = jet_space(dim, order)
    fwd, inv, X = (random_map(rng, s, rng.uniform(-1, 1, dim), density=0.5) for _ in range(3))
    got = pushforward_field(fwd, inv, VectorField(X)).components
    np.testing.assert_array_equal(got.coeffs, reference_pushforward(fwd, inv, VectorField(X)))
    np.testing.assert_array_equal(got.base, inv.base)


def test_scaled_by_jet_and_sum_match_per_component_products():
    rng = np.random.default_rng(5)
    s = jet_space(3, 4)
    base = rng.uniform(-1, 1, 3)
    X, Y = (VectorField(random_map(rng, s, base)) for _ in range(2))
    f = random_jet(rng, s, base=base)
    got = (X + 2.5 * Y.scaled_by_jet(f)).components.coeffs
    want = [x + (reference_mul(s, f.coeffs, y) * 2.5) for x, y in zip(X.components.coeffs, Y.components.coeffs)]
    np.testing.assert_array_equal(got, want)
    with pytest.raises(JetError):
        X.scaled_by_jet(random_jet(rng, s, base=base + 1.0))


def test_box_grid_deterministic():
    box = sym_box(2, 1.0)
    g1 = box.grid(3)
    g2 = box.grid(3)
    np.testing.assert_array_equal(g1, g2)
    assert g1.shape == (9, 2)
    limited = box.grid(5, limit=7)
    assert limited.shape == (7, 2)
