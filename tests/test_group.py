import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisgeom.group import (
    FiberClassification,
    GradedShear,
    TangentGroup,
    bilinear_mul,
    canonical_constants,
    classify_fiber,
    dilate,
    pseudo_norm,
    shear_homomorphism_residual,
    weight_vector,
)

from conftest import h3_mul

H3 = TangentGroup([[0.0, -2.0], [2.0, 0.0]])


def random_L(rng, d):
    A = rng.uniform(-2, 2, (d, d))
    return A - A.T


def test_group_law_h3_golden():
    got = H3.mul([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(got, [-1.0, 1.0, 1.0], atol=1e-15)


def test_group_law_matches_heisenberg_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, (2, 3))
        np.testing.assert_allclose(H3.mul(x, y), h3_mul(x, y), atol=1e-13)


def test_identity_element():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 3)
    np.testing.assert_allclose(H3.mul(x, H3.identity()), x, atol=0)
    np.testing.assert_allclose(H3.mul(H3.identity(), x), x, atol=0)


def test_abelian_when_levi_vanishes():
    G = TangentGroup(np.zeros((3, 3)))
    rng = np.random.default_rng(2)
    x, y = rng.uniform(-1, 1, (2, 4))
    np.testing.assert_allclose(G.mul(x, y), x + y, atol=0)


def test_inverse_golden_and_random():
    np.testing.assert_allclose(H3.inverse([0.0, 1.0, 1.0]), [0.0, -1.0, -1.0], atol=0)
    np.testing.assert_allclose(H3.mul([0.0, 1.0, 1.0], [0.0, -1.0, -1.0]), np.zeros(3), atol=1e-15)
    rng = np.random.default_rng(3)
    G = TangentGroup(random_L(rng, 4))
    x = rng.uniform(-3, 3, 5)
    np.testing.assert_allclose(G.mul(x, G.inverse(x)), np.zeros(5), atol=1e-13)
    np.testing.assert_allclose(G.inverse(np.zeros(5)), np.zeros(5), atol=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_associativity_random(seed, d):
    rng = np.random.default_rng(seed)
    G = TangentGroup(random_L(rng, d))
    x, y, z = rng.uniform(-2, 2, (3, d + 1))
    np.testing.assert_allclose(G.mul(G.mul(x, y), z), G.mul(x, G.mul(y, z)), atol=1e-12)


def test_dilation_examples():
    np.testing.assert_allclose(dilate(2.0, [1.0, 1.0, 0.0]), [4.0, 2.0, 0.0], atol=0)
    x = np.array([0.3, -1.0, 2.0])
    np.testing.assert_allclose(dilate(1.0, x), x, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dilation_automorphism(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    G = TangentGroup(random_L(rng, d))
    x, y = rng.uniform(-2, 2, (2, d + 1))
    for t in (-1.0, 0.5, 2.0, 10.0):
        np.testing.assert_allclose(
            dilate(t, G.mul(x, y)), G.mul(dilate(t, x), dilate(t, y)), atol=1e-10
        )


def test_commutator_slot_formula():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        G = TangentGroup(random_L(rng, d))
        x, y = rng.uniform(-2, 2, (2, d + 1))
        c = G.commutator(x, y)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-13)
        assert c[0] == pytest.approx(x[1:] @ G.L @ y[1:], abs=1e-12)


def test_pseudo_norm_values_and_homogeneity():
    assert pseudo_norm([1.0, 0.0, 0.0]) == 1.0
    assert pseudo_norm([0.0, 0.6, 0.8]) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, 4)
    assert pseudo_norm(dilate(3.0, x)) == pytest.approx(3.0 * pseudo_norm(x), rel=1e-13)
    assert pseudo_norm(dilate(-2.0, x)) == pytest.approx(2.0 * pseudo_norm(x), rel=1e-13)


def test_weight_vector():
    np.testing.assert_array_equal(weight_vector(4), [2.0, 1.0, 1.0, 1.0])


# ---- classification -------------------------------------------------------


def test_classify_h3():
    cls = classify_fiber(H3)
    assert cls.rank == 2 and cls.label == "H3"
    rel = cls.relations(H3.L)
    np.testing.assert_allclose(rel, canonical_constants(2, 1), atol=1e-12)


def test_classify_abelian():
    G = TangentGroup(np.zeros((3, 3)))
    cls = classify_fiber(G)
    assert cls.rank == 0 and cls.label == "R4"


def test_classify_degenerate_rank2():
    L = np.zeros((4, 4))
    L[0, 1], L[1, 0] = -2.0, 2.0
    cls = classify_fiber(TangentGroup(L))
    assert cls.rank == 2 and cls.label == "H3xR2"
    np.testing.assert_allclose(cls.relations(L), canonical_constants(4, 1), atol=1e-12)


def test_classify_h5():
    L = canonical_constants(4, 2)
    cls = classify_fiber(TangentGroup(L))
    assert cls.rank == 4 and cls.label == "H5"
    np.testing.assert_allclose(cls.relations(L), L, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_classify_metric_independence(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    G = TangentGroup(random_L(rng, d))
    A = rng.uniform(-1, 1, (d, d))
    spd = A @ A.T + d * np.eye(d)
    c1 = classify_fiber(G)
    c2 = classify_fiber(G, metric=spd)
    assert (c1.rank, c1.label) == (c2.rank, c2.label)
    np.testing.assert_allclose(c2.relations(G.L), canonical_constants(d, c2.n), atol=1e-8)


def test_classify_rejects_bad_metric():
    with pytest.raises(ValueError):
        classify_fiber(H3, metric=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        classify_fiber(H3, metric=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_classify_adapted_frame_is_metric_orthonormal_on_kernel():
    L = np.zeros((4, 4))
    L[0, 1], L[1, 0] = -2.0, 2.0
    rng = np.random.default_rng(4)
    A = rng.uniform(-1, 1, (4, 4))
    spd = A @ A.T + 4 * np.eye(4)
    cls = classify_fiber(TangentGroup(L), metric=spd)
    ker = cls.adapted[:, cls.rank :]
    np.testing.assert_allclose(ker.T @ spd @ ker, np.eye(2), atol=1e-10)


def test_classify_degenerate_eigenvalues():
    # two planes with equal singular value
    L = canonical_constants(4, 2)
    cls = classify_fiber(TangentGroup(L))
    assert cls.rank == 4
    np.testing.assert_allclose(cls.relations(L), canonical_constants(4, 2), atol=1e-10)


# ---- graded shears --------------------------------------------------------


def test_shear_requires_symmetry():
    with pytest.raises(ValueError):
        GradedShear(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_shear_zero_is_identity_transport():
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    shear = GradedShear(np.zeros((2, 2)))
    np.testing.assert_array_equal(shear.transport(b), b)
    x = np.array([0.5, 1.0, -2.0])
    np.testing.assert_array_equal(shear.apply(x), x)


def test_shear_normal_form_recovers_levi_law():
    # c = -(b + b^t)/2 sends the b-law to the antisymmetrized law (b - b^t)/2
    rng = np.random.default_rng(12)
    b = rng.uniform(-1, 1, (3, 3))
    shear = GradedShear(-(b + b.T) / 2)
    b_new = shear.transport(b)
    np.testing.assert_allclose(b_new, (b - b.T) / 2, atol=1e-14)
    # and that law is the tangent-group law of L = b^t - b
    L = b.T - b
    G = TangentGroup(L)
    x, y = rng.uniform(-1, 1, (2, 4))
    np.testing.assert_allclose(bilinear_mul(b_new, x, y), G.mul(x, y), atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_shear_homomorphism_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    b = rng.uniform(-1, 1, (d, d))
    csym = rng.uniform(-1, 1, (d, d))
    shear = GradedShear((csym + csym.T) / 2)
    pairs = [(rng.uniform(-2, 2, d + 1), rng.uniform(-2, 2, d + 1)) for _ in range(100)]
    assert shear_homomorphism_residual(shear, b, pairs) < 1e-10


def test_shear_inverse_roundtrip():
    rng = np.random.default_rng(13)
    c = rng.uniform(-1, 1, (3, 3))
    shear = GradedShear((c + c.T) / 2)
    x = rng.uniform(-1, 1, 4)
    np.testing.assert_allclose(shear.inverse().apply(shear.apply(x)), x, atol=1e-14)


def test_shear_commutes_with_dilations():
    rng = np.random.default_rng(14)
    c = rng.uniform(-1, 1, (2, 2))
    shear = GradedShear((c + c.T) / 2)
    x = rng.uniform(-1, 1, 3)
    for t in (0.5, 2.0, -3.0):
        np.testing.assert_allclose(shear.apply(dilate(t, x)), dilate(t, shear.apply(x)), atol=1e-13)


def test_shear_polymap_matches_apply():
    c = np.array([[1.0, 0.5], [0.5, -2.0]])
    shear = GradedShear(c)
    pm = shear.as_polymap(3)
    rng = np.random.default_rng(15)
    pts = rng.uniform(-1, 1, (10, 3))
    np.testing.assert_allclose(pm.eval_many(pts), shear.apply(pts), atol=1e-13)
