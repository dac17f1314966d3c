import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisgeom import jets
from heisgeom.coords import dilation_limit_check, heisenberg_map, model_field, sample_box
from heisgeom.fields import pushforward_field
from heisgeom.group import weight_vector
from heisgeom.jets import (
    Jet,
    JetError,
    PolyMap,
    jet_mul,
    jet_space,
    mul_rows,
)
from heisgeom.manifests import Manifest

from conftest import TS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from workloads import REFERENCE_SEED, scale_h7_doc  # noqa: E402


def brute_mul(a: dict, b: dict, order: int) -> dict:
    """Dense convolution oracle: multiply exponent->coeff tables, drop deg > order."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > order:
                continue
            out[e] = out.get(e, 0.0) + ca * cb
    return {e: c for e, c in out.items() if c != 0.0}


def random_jet(rng, space, base=None, density=0.7):
    coeffs = rng.uniform(-2, 2, space.size) * (rng.uniform(0, 1, space.size) < density)
    return Jet(space, coeffs, base if base is not None else np.zeros(space.dim))


def test_space_graded_lex_order():
    s = jet_space(2, 2)
    assert [tuple(e) for e in s.exponents] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert s.size == 6


def test_mul_difference_of_squares():
    s = jet_space(2, 2)
    one_plus = Jet.from_terms(s, {(0, 0): 1.0, (1, 0): 1.0})
    one_minus = Jet.from_terms(s, {(0, 0): 1.0, (1, 0): -1.0})
    prod = jet_mul(one_plus, one_minus)
    assert prod.terms() == {(0, 0): 1.0, (2, 0): -1.0}


def test_mul_truncates_at_order():
    s = jet_space(2, 1)
    x1 = Jet.from_terms(s, {(1, 0): 1.0})
    x2 = Jet.from_terms(s, {(0, 1): 1.0})
    assert jet_mul(x1, x2).terms() == {}


def test_square_of_linear_sum():
    # (1 + x_0 + x_1)^2 at K=2, expanded by the convolution oracle
    s = jet_space(2, 2)
    f = Jet.from_terms(s, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
    expected = brute_mul(f.terms(), f.terms(), 2)
    assert expected == {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 2.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
    assert jet_mul(f, f).terms() == pytest.approx(expected)


@pytest.mark.parametrize("dim,order", [(d, k) for d in (1, 2, 3) for k in (1, 2, 3, 4)])
def test_mul_matches_brute_force(dim, order):
    rng = np.random.default_rng(1000 * dim + order)
    s = jet_space(dim, order)
    for _ in range(5):
        a, b = random_jet(rng, s), random_jet(rng, s)
        got = jet_mul(a, b).terms()
        want = brute_mul(a.terms(), b.terms(), order)
        keys = set(got) | set(want)
        for e in keys:
            assert got.get(e, 0.0) == pytest.approx(want.get(e, 0.0), abs=1e-12)


def test_mismatch_errors():
    a = Jet.constant(jet_space(2, 2), 1.0)
    with pytest.raises(JetError):
        jet_mul(a, Jet.constant(jet_space(3, 2), 1.0))
    with pytest.raises(JetError):
        jet_mul(a, Jet.constant(jet_space(2, 3), 1.0))
    with pytest.raises(JetError):
        jet_mul(a, Jet.constant(jet_space(2, 2), 1.0, base=np.array([1.0, 0.0])))
    with pytest.raises(JetError):
        PolyMap((a, Jet.constant(jet_space(2, 3), 1.0)))


def test_nonfinite_rejected():
    s = jet_space(2, 2)
    bad = np.zeros(s.size)
    bad[1] = np.nan
    with pytest.raises(JetError):
        Jet(s, bad, np.zeros(2))
    with pytest.raises(JetError):
        Jet(s, np.where(np.arange(s.size) == 1, np.inf, 0.0), np.zeros(2))
    with pytest.raises(JetError):
        Jet(s, np.zeros(s.size), np.array([0.0, np.nan]))


def test_base_tolerance_is_1e_12():
    s = jet_space(2, 2)
    rng = np.random.default_rng(3)
    base = np.array([0.75, -1.5])
    a = random_jet(rng, s, base=base)
    near = random_jet(rng, s, base=base + np.array([5e-13, -5e-13]))
    far = random_jet(rng, s, base=base + np.array([0.0, 2e-12]))
    jet_mul(a, near)
    a + near
    PolyMap((a, near))
    with pytest.raises(JetError):
        jet_mul(a, far)
    with pytest.raises(JetError):
        a + far
    with pytest.raises(JetError):
        PolyMap((a, far))


@pytest.mark.parametrize("dim", [3, 5])
def test_affine_nonsymmetric_linear_part(dim):
    rng = np.random.default_rng(dim)
    A = rng.uniform(-2, 2, (dim, dim))
    assert np.max(np.abs(A - A.T)) > 0.1
    c = rng.uniform(-1, 1, dim)
    base = rng.uniform(-1, 1, dim)
    pm = PolyMap.affine(A, c, 2, base=base)
    np.testing.assert_array_equal(pm.linear(), A)
    np.testing.assert_array_equal(pm.constant(), c)
    for x in rng.uniform(-2, 2, (6, dim)):
        np.testing.assert_allclose(pm.eval(x), c + A @ (x - base), atol=1e-12)
        np.testing.assert_array_equal(pm.jacobian(x), A)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_jacobian_matches_per_entry_partials_and_central_differences(dim):
    rng = np.random.default_rng(50 + dim)
    s = jet_space(dim, 3)
    base = rng.uniform(-0.5, 0.5, dim)
    pm = PolyMap(tuple(random_jet(rng, s, base=base) for _ in range(dim + 1)))
    h = 1e-5
    for x in rng.uniform(-1, 1, (5, dim)):
        J = pm.jacobian(x)
        assert J.shape == (dim + 1, dim)
        per_entry = [[comp.partial(j)(x) for j in range(dim)] for comp in pm.components]
        np.testing.assert_allclose(J, per_entry, rtol=0, atol=1e-12)
        fd = np.stack([(pm.eval(x + h * e) - pm.eval(x - h * e)) / (2 * h) for e in np.eye(dim)], axis=1)
        np.testing.assert_allclose(J, fd, rtol=0, atol=1e-7)


def test_polymap_tables_are_read_only():
    pm = PolyMap.affine(np.eye(3), np.ones(3), 2)
    assert pm.coeffs.shape == (3, jet_space(3, 2).size)
    assert pm.partials.shape == (3, 3, jet_space(3, 2).size)
    with pytest.raises(ValueError):
        pm.coeffs[0, 0] = 5.0
    with pytest.raises(ValueError):
        pm.partials[0, 0, 0] = 5.0


def test_find_matches_the_sorter_route_for_every_key():
    for dim in range(1, 8):
        for order in range(1, 9):
            s = jet_space(dim, order)
            route = s.key_order[np.searchsorted(s.keys, s.keys, sorter=s.key_order)]
            np.testing.assert_array_equal(s.find(s.keys), route)
            np.testing.assert_array_equal(route, np.arange(s.size))


@functools.lru_cache(maxsize=None)
def product_table(s):
    """The rows (a, b, out) of every product term of the space, one column
    per pair with deg a + deg b <= order, sorted by (out, a): a product adds
    x[a] * y[b] to column out.  Degrees ascend, so a column of degree d pairs
    with the column prefix of degree <= order - d, and the key sum finds out."""
    counts = np.searchsorted(s.degrees, s.order - s.degrees, side="right")
    coo_a = np.repeat(np.arange(s.size), counts)
    coo_b = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    coo = np.array([coo_a, coo_b, s.find(s.keys[coo_a] + s.keys[coo_b])], dtype=np.int64)
    return np.ascontiguousarray(coo[:, np.lexsort((coo[0], coo[2]))])


def quadratic_tables(s):
    """The product and derivative tables by a direct O(size^2) double loop."""
    coo = []
    for i, ei in enumerate(s.exponents):
        for j, ej in enumerate(s.exponents):
            if s.degrees[i] + s.degrees[j] <= s.order:
                coo.append((i, j, s.index[tuple(ei + ej)]))
    coo = np.array(coo, dtype=np.int64).T
    coo = np.ascontiguousarray(coo[:, np.lexsort((coo[0], coo[2]))])
    diff = []
    for v in range(s.dim):
        src = [i for i in range(s.size) if s.exponents[i, v] > 0]
        dst = [s.index[tuple(s.exponents[i] - np.eye(s.dim, dtype=np.int64)[v])] for i in src]
        fac = [float(s.exponents[i, v]) for i in src]
        diff.append((np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(fac)))
    return coo, diff


@pytest.mark.parametrize(
    "dim, order", [(d, o) for d in range(1, 6) for o in range(1, 7)] + [(7, 4)]
)
def test_space_tables_match_quadratic_construction(dim, order):
    s = jet_space(dim, order)
    coo, diff = quadratic_tables(s)
    for got, want in zip(product_table(s), coo):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert len(s.diff_tables) == dim
    for got, want in zip(s.diff_tables, diff):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("dim", [3, 5, 7])
@pytest.mark.parametrize("shape", [(), (40,)])
def test_monomials_bitwise_match_power_product(dim, shape):
    s = jet_space(dim, 4)
    dx = np.random.default_rng(dim).uniform(-2, 2, shape + (dim,))
    got = s.monomials(dx)
    assert got.shape == shape + (s.size,)
    assert got.flags.c_contiguous
    assert got.tobytes() == np.prod(dx[..., None, :] ** s.exponents, axis=-1).tobytes()


def test_constructors_leave_caller_arrays_writable():
    s = jet_space(3, 2)
    coeffs, base = np.ones(s.size), np.zeros(3)
    jet = Jet(s, coeffs, base)
    coeffs[0] = base[0] = 2.0
    assert jet.coeffs[0] == 1.0 and jet.base[0] == 0.0
    bad = np.full(s.size, np.nan)
    with pytest.raises(JetError):
        Jet(s, bad, base)
    bad[0] = base[1] = 0.0
    u = np.ones(3)
    pm = PolyMap.affine(np.eye(3), np.zeros(3), 2, base=u)
    u[0] = 5.0
    assert pm.base[0] == 1.0
    with pytest.raises(JetError):
        PolyMap.affine(np.eye(3), np.zeros(3), 2, base=np.array([np.nan, 0.0, 0.0]))
    wrong = np.zeros(2)
    with pytest.raises(JetError):
        PolyMap.affine(np.eye(3), np.zeros(3), 2, base=wrong)
    wrong[0] = 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ring_properties(seed):
    rng = np.random.default_rng(seed)
    s = jet_space(2, 3)
    a, b, c = (random_jet(rng, s) for _ in range(3))
    lhs = jet_mul(a + b, c)
    rhs = jet_mul(a, c) + jet_mul(b, c)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
    np.testing.assert_allclose(jet_mul(a, b).coeffs, jet_mul(b, a).coeffs, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_partials_commute(seed):
    rng = np.random.default_rng(seed)
    s = jet_space(3, 3)
    a = random_jet(rng, s)
    d01 = a.partial(0).partial(1)
    d10 = a.partial(1).partial(0)
    np.testing.assert_array_equal(d01.coeffs, d10.coeffs)


def test_partial_values():
    s = jet_space(2, 3)
    f = Jet.from_terms(s, {(2, 1): 4.0})  # 4 x0^2 x1
    assert f.partial(0).terms() == {(1, 1): 8.0}
    assert f.partial(1).terms() == {(2, 0): 4.0}


def test_eval_against_numpy_polyval():
    s = jet_space(2, 3)
    rng = np.random.default_rng(7)
    f = random_jet(rng, s, base=np.array([0.5, -0.25]))
    pts = rng.uniform(-1, 1, (8, 2))
    vals = f.eval_many(pts)
    for p, v in zip(pts, vals):
        direct = sum(c * np.prod((p - f.base) ** np.array(e)) for e, c in f.terms().items())
        assert v == pytest.approx(direct, abs=1e-12)


def compose_one(outer: Jet, inner: PolyMap, exact=False) -> Jet:
    """outer after inner, for one scalar jet outer: a one-row `PolyMap.compose`."""
    return PolyMap((outer,)).compose(inner, exact=exact).components[0]


def test_compose_linear_substitution():
    # outer = x_0^2, inner x_0 -> x_0 + x_1 gives x_0^2 + 2 x_0 x_1 + x_1^2
    s1 = jet_space(1, 2)
    outer = Jet.from_terms(s1, {(2,): 1.0})
    s2 = jet_space(2, 2)
    inner = PolyMap((Jet.from_terms(s2, {(1, 0): 1.0, (0, 1): 1.0}),))
    got = compose_one(outer, inner)
    assert got.terms() == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_compose_with_graded_dilation():
    # outer = x_0 composed with (t^2 x_0, t x_1, t x_2) gives t^2 x_0
    t = 0.5
    s = jet_space(3, 3)
    outer = Jet.from_terms(s, {(1, 0, 0): 1.0})
    inner = PolyMap.affine(np.diag([t**2, t, t]), np.zeros(3), 3)
    got = compose_one(outer, inner)
    assert got.terms() == {(1, 0, 0): t**2}


def test_compose_identity_fixes_random_jet():
    rng = np.random.default_rng(42)
    s = jet_space(3, 3)
    f = random_jet(rng, s)
    ident = PolyMap.identity(3, 3)
    np.testing.assert_allclose(compose_one(f, ident).coeffs, f.coeffs, atol=1e-13)


def test_compose_base_guard():
    s = jet_space(2, 2)
    outer = Jet.from_terms(s, {(1, 0): 1.0})
    shifted = PolyMap.affine(np.eye(2), np.array([1.0, 0.0]), 2)
    with pytest.raises(JetError):
        compose_one(outer, shifted)
    assert compose_one(outer, shifted, exact=True).terms() == {(0, 0): 1.0, (1, 0): 1.0}


def reference_mul(s, x, y):
    """The one-row product: one bincount over the product table."""
    coo_a, coo_b, coo_out = product_table(s)
    return np.bincount(coo_out, weights=x[coo_a] * y[coo_b], minlength=s.size)


def reference_partial(s, c, v):
    src, dst, fac = s.diff_tables[v]
    out = np.zeros(s.size)
    out[dst] = c[src] * fac
    return out


def reference_jet_compose(outer, inner, exact=False):
    """Composition of one jet that builds its own powers of the inner map:
    the per-component algorithm that the shared-term compose replaced."""
    s = inner.space
    deltas = []
    for i, row in enumerate(inner.coeffs):
        d = row.copy()
        d[0] -= outer.base[i]
        deltas.append(d)
    if not exact:
        scale = max(1.0, float(np.max(np.abs(outer.base))), *(float(np.max(np.abs(d))) for d in deltas))
        assert max(abs(d[0]) for d in deltas) <= 1e-9 * scale
    out = np.zeros(s.size)
    out[0] = outer.coeffs[0]
    powers = {}

    def power(v, k):
        if (v, k) not in powers:
            powers[(v, k)] = deltas[v] if k == 1 else reference_mul(s, power(v, k - 1), deltas[v])
        return powers[(v, k)]

    for idx in np.nonzero(outer.coeffs)[0]:
        if idx == 0:
            continue
        term = None
        for v, e in enumerate(outer.space.exponents[idx]):
            if e:
                term = power(v, int(e)) if term is None else reference_mul(s, term, power(v, int(e)))
        out = out + outer.coeffs[idx] * term
    return out


def reference_rebased(jet, new_base):
    v = np.asarray(new_base, dtype=float) - jet.base
    if not np.any(v):
        return jet
    shift = PolyMap.affine(np.eye(jet.dim), v, jet.order)
    at_zero = Jet(jet.space, jet.coeffs, np.zeros(jet.dim))
    return Jet(jet.space, reference_jet_compose(at_zero, shift, exact=True), new_base)


def reference_compose(outer, inner, exact=False):
    """One `reference_jet_compose` per component, each rebased onto the
    inner constant term first when exact."""
    rows = [
        reference_jet_compose(reference_rebased(comp, inner.constant()) if exact else comp, inner, exact)
        for comp in outer.components
    ]
    return np.array(rows)


def random_map(rng, space, base, density=0.7):
    return PolyMap(tuple(random_jet(rng, space, base=base, density=density) for _ in range(space.dim)))


@pytest.mark.parametrize("dim, order", [(d, k) for d in range(2, 6) for k in range(2, 6)])
def test_compose_bitwise_matches_per_component_reference(dim, order):
    rng = np.random.default_rng(100 * dim + order)
    s = jet_space(dim, order)
    outer = random_map(rng, s, rng.uniform(-1, 1, dim))
    inner = random_map(rng, s, rng.uniform(-1, 1, dim))
    # exact: outer is rebased onto inner's constant term
    np.testing.assert_array_equal(outer.compose(inner, exact=True).coeffs, reference_compose(outer, inner, exact=True))
    # guarded: inner's constant term is outer's base point
    aligned = PolyMap(
        tuple(Jet(s, np.concatenate([[b], row[1:]]), inner.base) for b, row in zip(outer.base, inner.coeffs))
    )
    got = outer.compose(aligned)
    np.testing.assert_array_equal(got.coeffs, reference_compose(outer, aligned))
    np.testing.assert_array_equal(got.base, aligned.base)


@pytest.mark.parametrize("dim, order", [(2, 5), (3, 8), (5, 4), (7, 6)])  # (7, 6): two blocks of rows
def test_mul_rows_bitwise_matches_one_row_products(dim, order):
    rng = np.random.default_rng(dim + 10 * order)
    s = jet_space(dim, order)
    x, y = rng.uniform(-1, 1, (2, 7, s.size))
    got = mul_rows(s, x, y)
    for r in range(7):
        np.testing.assert_array_equal(got[r], reference_mul(s, x[r], y[r]))
    np.testing.assert_array_equal(mul_rows(s, x[:1], y), [reference_mul(s, x[0], row) for row in y])
    np.testing.assert_array_equal(jet_mul(Jet(s, x[0], np.zeros(dim)), Jet(s, y[0], np.zeros(dim))).coeffs, got[0])


def sparse_table(rng, rows, size, density):
    """Random (rows, size) table whose columns are zero with probability 1 - density,
    with a few more zeros scattered in the kept columns."""
    table = rng.uniform(-1, 1, (rows, size)) * (rng.uniform(0, 1, size) < density)
    return table * (rng.uniform(0, 1, (rows, size)) < 0.9)


@pytest.mark.parametrize("dim, order, density", [(3, 8, 0.05), (5, 4, 0.3), (7, 6, 0.02), (3, 5, 1.0)])
@pytest.mark.parametrize("block", [jets._MUL_BLOCK, 64])  # 64: many blocks of rows
def test_mul_rows_on_sparse_tables_bitwise_matches_the_whole_table(monkeypatch, dim, order, density, block):
    monkeypatch.setattr(jets, "_MUL_BLOCK", block)
    rng = np.random.default_rng(dim + 10 * order)
    s = jet_space(dim, order)
    x, y = sparse_table(rng, 6, s.size, density), sparse_table(rng, 6, s.size, density)
    zero = np.zeros((6, s.size))
    dense = rng.uniform(0.5, 1, (6, s.size))  # every column nonzero: every pair of the table
    for a, b in [(x, y), (x[:1], y), (x, y[2:3]), (zero, y), (x, zero[:1]), (x[:1], y[:1]), (dense, dense[::-1])]:
        want = np.array([reference_mul(s, ra, rb) for ra, rb in zip(*np.broadcast_arrays(a, b))])
        assert mul_rows(s, a, b).tobytes() == want.tobytes()


def test_mul_rows_with_a_zero_operand_is_float64():
    # a bincount over no pairs gives int64 zeros, whose bytes equal float64
    # zeros, so the tobytes comparison above cannot see the dtype
    s = jet_space(3, 4)
    z = Jet.zero(s)
    for prod in (z * z, z * Jet.constant(s, 2.0), Jet.coordinate(s, 1) * z, z * PolyMap.identity(3, 4)):
        assert prod.coeffs.dtype == np.float64
    assert mul_rows(s, np.zeros((3, s.size)), np.ones((3, s.size))).dtype == np.float64
    got = (z * z).coeffs.copy()
    got[0] -= 0.7  # an int64 table would store 0
    assert got[0] == -0.7


def test_mul_rows_in_jet_space_11_8_matches_the_termwise_product():
    # 75,582 monomials: the pair table of a dense product would hold 5,852,925
    # entries; small-integer coefficients make every sum exact in any order
    rng = np.random.default_rng(11)
    s = jet_space(11, 8)
    low = np.flatnonzero(s.degrees <= 4)  # most monomials have degree 8, whose products truncate away
    x, y = np.zeros((2, 5, s.size))
    for table in (x, y):
        for row in table:
            cols = np.union1d(rng.choice(low, 5, replace=False), rng.choice(s.size, 2, replace=False))
            row[cols] = rng.choice([-3, -2, -1, 1, 2, 3], len(cols))
    got = mul_rows(s, x, y)
    for r in range(5):
        terms = [{tuple(s.exponents[i]): c[i] for i in np.flatnonzero(c)} for c in (x[r], y[r])]
        want = np.zeros(s.size)
        for e, c in brute_mul(*terms, s.order).items():
            want[s.index[e]] = c
        np.testing.assert_array_equal(got[r], want)
    assert got.any(axis=1).all()


@pytest.mark.parametrize("dim", [3, 7])
@pytest.mark.parametrize("shape", [(), (40,)])
def test_monomials_of_chosen_columns_bitwise_match_the_full_vector(dim, shape):
    s = jet_space(dim, 5)
    rng = np.random.default_rng(dim)
    dx = rng.uniform(-2, 2, shape + (dim,))
    for cols in (np.sort(rng.choice(s.size, 17, replace=False)), rng.permutation(s.size)[:9], [0], []):
        got = s.monomials(dx, cols)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(s.monomials(dx)[..., cols]).tobytes()


def dense_dilation_trace(X, frame, m, ts):
    """The dilation residual trace of `dilation_limit_check`, evaluated on every
    monomial of the jet space: the whole (points, size) monomial matrix times
    each rescaled coefficient table."""
    hm = heisenberg_map(frame, m)
    order = max(frame.order, 2 * (X.components.degree() + 1))
    Xh = pushforward_field(hm.as_polymap(order), hm.inverse_polymap(order), X, order=order).components
    mf = model_field(X, frame, hm)
    target = mf.as_field(order).components
    w = weight_vector(frame.dim)
    powers = mf.weight + (Xh.space.exponents @ w)[None, :] - w[:, None]
    mono = Xh.space.monomials(sample_box(0.8, 3, frame.dim))
    return [float(np.max(np.abs(mono @ (Xh.coeffs * t**powers - target.coeffs).T))) for t in ts]


@pytest.mark.parametrize("perturbed", [False, True])
def test_c7_dilation_traces_match_a_dense_evaluation(perturbed):
    frame = Manifest.from_dict(scale_h7_doc(REFERENCE_SEED)).charts[0].frame
    X = frame.fields[1]
    if perturbed:  # as the dilation-perturbed check: X_1 + x_1^2 X_0
        e = tuple(2 if i == 1 else 0 for i in range(frame.dim))
        X = X + frame.fields[0].scaled_by_jet(Jet.from_terms(frame.fields[0].components.space, {e: 1.0}))
    m = np.random.default_rng(7).uniform(-1.5, 1.5, frame.dim)
    got, flagged = dilation_limit_check(X, frame, m, TS)
    assert not flagged
    np.testing.assert_allclose(got, dense_dilation_trace(X, frame, m, TS), rtol=1e-15, atol=0)


def test_polymap_of_its_components_rebuilds_the_table():
    rng = np.random.default_rng(11)
    s = jet_space(4, 3)
    pm = random_map(rng, s, rng.uniform(-1, 1, 4))
    again = PolyMap(pm.components)
    np.testing.assert_array_equal(again.coeffs, pm.coeffs)
    np.testing.assert_array_equal(again.base, pm.base)
    assert all(jet.space is s for jet in pm.components)
    with pytest.raises(JetError):
        PolyMap(())


def reference_invert(f: PolyMap, steps=None) -> PolyMap:
    """Formal inverse of a square map f = A x + N(x), deg N >= 2, with zero
    base point and constant term: `steps` (default order - 1) rounds of the
    fixed point g <- A^-1 (x - N(g)), after which f o g = id up to the
    truncation order.  The round-trip tests run `PolyMap.compose` through it."""
    linear_inv = PolyMap.affine(np.linalg.inv(f.linear()), np.zeros(f.dim_in), f.order)
    N = PolyMap._of(f.space, np.where(f.space.degrees == 1, 0.0, f.coeffs), f.base)
    ident = PolyMap.identity(f.dim_in, f.order)
    g = linear_inv
    for _ in range(f.order - 1 if steps is None else steps):
        g = linear_inv.compose(ident - N.compose(g))
    return g


def test_invert_affine():
    A = np.array([[2.0, 1.0], [0.0, -1.0]])
    f = PolyMap.affine(A, np.zeros(2), 3)
    g = reference_invert(f)
    np.testing.assert_allclose(g.linear(), np.linalg.inv(A), atol=1e-12)


def test_invert_shear():
    s = jet_space(2, 2)
    f = PolyMap((Jet.from_terms(s, {(1, 0): 1.0, (0, 2): 1.0}), Jet.from_terms(s, {(0, 1): 1.0})))
    g = reference_invert(f)
    assert g.components[0].terms() == pytest.approx({(1, 0): 1.0, (0, 2): -1.0})
    assert g.components[1].terms() == {(0, 1): 1.0}
    roundtrip = f.compose(g)
    ident = PolyMap.identity(2, 2)
    for got, want in zip(roundtrip.components, ident.components):
        np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-10)


# Round-trip bound |f o g - id| <= INVERT_BOUND * eps * max|f| * max|g|, with
# INVERT_BOUND = 2 * dim * (order + 1) for dim = order = 3.  Every coefficient
# of f o g sums terms f_a (g^a)_b that cancel to 0 or 1: the dim terms of f's
# linear part are each at most max|f| max|g|, and the nonlinear terms cancel
# them, so the terms total about 2 dim max|f| max|g|.  Each term takes at
# most order + 1 roundings of eps / 2, and the computed g carries rounding of
# the same form from its own compositions.  Seeds 0-2999 and 510511 reach 2.8.
INVERT_BOUND = 24.0


def invertible_map(seed: int) -> PolyMap:
    """A random 3-dim order-3 map with zero constant and linear part U(-1, 1) + 2 I."""
    rng = np.random.default_rng(seed)
    dim, order = 3, 3
    s = jet_space(dim, order)
    A = rng.uniform(-1, 1, (dim, dim)) + 2 * np.eye(dim)
    comps = []
    for i in range(dim):
        jet = PolyMap.affine(A, np.zeros(dim), order).components[i]
        high = random_jet(rng, s, density=0.4)
        mask = s.degrees >= 2
        jet = jet + Jet(s, high.coeffs * mask * 0.3, np.zeros(dim))
        comps.append(jet)
    return PolyMap(tuple(comps))


def roundtrip_ratio(f: PolyMap, g: PolyMap) -> float:
    """max|f o g - id| in units of eps * max|f| * max|g|."""
    err = np.max(np.abs(f.compose(g).coeffs - PolyMap.identity(f.dim_in, f.order).coeffs))
    return float(err / (np.finfo(float).eps * np.max(np.abs(f.coeffs)) * np.max(np.abs(g.coeffs))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(2640)  # cond(A) = 225, max|g| = 6.8e8: the round trip misses id by 2.8e-7
@example(510511)  # misses id by 1.24e-10
def test_invert_roundtrip_random(seed):
    f = invertible_map(seed)
    assert roundtrip_ratio(f, reference_invert(f)) <= INVERT_BOUND


@pytest.mark.parametrize("seed", [0, 2640, 510511])
def test_invert_roundtrip_bound_rejects_one_fewer_iteration(seed):
    # the fixed point run order - 2 times instead of order - 1
    f = invertible_map(seed)
    assert roundtrip_ratio(f, reference_invert(f, steps=f.order - 2)) > INVERT_BOUND


def test_rebase_roundtrip():
    rng = np.random.default_rng(3)
    s = jet_space(2, 3)
    f = random_jet(rng, s)
    g = f.rebased(np.array([0.3, -0.7]))
    pts = rng.uniform(-1, 1, (6, 2))
    np.testing.assert_allclose(g.eval_many(pts), f.eval_many(pts), atol=1e-12)
    back = g.rebased(np.zeros(2))
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-12)


def test_with_order_embed_truncate():
    s = jet_space(2, 2)
    f = Jet.from_terms(s, {(0, 0): 1.0, (1, 1): 2.0})
    up = f.with_order(4)
    assert up.terms() == f.terms()
    down = up.with_order(1)
    assert down.terms() == {(0, 0): 1.0}


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_with_order_moves_each_coefficient_to_its_exponent(dim):
    rng = np.random.default_rng(dim)
    s = jet_space(dim, 4)
    pm = random_map(rng, s, rng.uniform(-1, 1, dim))
    for order in (1, 2, 6):
        t = jet_space(dim, order)
        want = np.zeros((dim, t.size))
        for i, e in enumerate(s.exponents):
            if e.sum() <= order:
                want[:, t.index[tuple(e)]] = pm.coeffs[:, i]
        got = pm.with_order(order)
        assert got.space is t
        np.testing.assert_array_equal(got.coeffs, want)
        np.testing.assert_array_equal(pm.components[0].with_order(order).coeffs, want[0])


def test_terms_roundtrip_sparse_view():
    s = jet_space(3, 2)
    terms = {(0, 0, 0): 2.0, (1, 0, 1): -1.5}
    assert Jet.from_terms(s, terms).terms() == terms


def _sparse_rows(rng, space, n, base):
    """n random maps at the points base (n, dim); the middle one has more
    zeros, and its first row is -0.0 + 0 x + ..., where a neighbour's is not:
    an update of that row by 0 * term would turn the -0.0 into +0.0."""
    densities = [0.2 if i == n // 2 else 0.7 for i in range(n)]
    coeffs = np.array([random_map(rng, space, b, density=p).coeffs for b, p in zip(base, densities)])
    coeffs[n // 2, 0] = 0.0
    coeffs[n // 2, 0, 0] = -0.0
    return PolyMap._of(space, coeffs, base)


@pytest.mark.parametrize("dim, order", [(2, 4), (3, 3), (5, 2)])
def test_batched_compose_equals_one_map_per_point(dim, order):
    # one outer or one inner map per point, or both; each point of the batch
    # equals its own one-map compose bit for bit, signs of zeros included,
    # whatever its neighbours' supports
    rng = np.random.default_rng(400 + 10 * dim + order)
    s = jet_space(dim, order)
    n = 3
    outers = _sparse_rows(rng, s, n, rng.uniform(-1, 1, (n, dim)))
    inners = _sparse_rows(rng, s, n, rng.uniform(-1, 1, (n, dim)))
    outer = random_map(rng, s, rng.uniform(-1, 1, dim))
    inner = random_map(rng, s, rng.uniform(-1, 1, dim))

    def point(pm, i):
        return pm if pm.base.ndim == 1 else PolyMap._of(s, pm.coeffs[i], pm.base[i])

    for f, g in ((outers, inner), (outer, inners), (outers, inners)):
        got = f.compose(g, exact=True)
        assert got.coeffs.shape == (n, dim, s.size) and got.base.shape == (n, dim)
        for i in range(n):
            want = point(f, i).compose(point(g, i), exact=True)
            assert got.coeffs[i].tobytes() == want.coeffs.tobytes()
            assert got.coeffs[i].tobytes() == reference_compose(point(f, i), point(g, i), exact=True).tobytes()
            assert np.array_equal(got.base[i], want.base)
    # rebased onto one base point per map, one of them the map's own
    new = rng.uniform(-1, 1, (n, dim))
    new[1] = outer.base
    got = outer.rebased(new)
    for i in range(n):
        assert got.coeffs[i].tobytes() == outer.rebased(new[i]).coeffs.tobytes()


def test_batched_affine_and_guards():
    A = np.stack([np.eye(3), 2 * np.eye(3)])
    pm = PolyMap.affine(A, np.ones((2, 3)), 2, base=np.zeros(3))
    assert pm.coeffs.shape == (2, 3, 10) and pm.base.shape == (2, 3)
    np.testing.assert_array_equal(pm.linear(), A)
    np.testing.assert_array_equal(pm.constant(), np.ones((2, 3)))
    with pytest.raises(JetError, match="base point has shape"):
        PolyMap.affine(A, np.ones((2, 3)), 2, base=np.zeros(2))
    # the guarded compose checks every point of the batch
    inner = PolyMap.affine(np.eye(3), np.array([[0.0, 0, 0], [0.5, 0, 0]]), 2)
    with pytest.raises(JetError, match="differ from outer base"):
        PolyMap.identity(3, 2).compose(inner)
