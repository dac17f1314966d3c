import numpy as np

from heisgeom.fields import Box, HFrame, VectorField
from heisgeom.jets import Jet, PolyMap, jet_space
from heisgeom.manifests import DEFAULT_TOLERANCES
from heisgeom.rates import default_t_grid, rate_fit

TS = default_t_grid(2, 12)  # the builtins' t grid
SLOPE_MIN = DEFAULT_TOLERANCES["slope_min"]


def fit_rate(residuals) -> float:
    """The slope of a residual trace over TS, fitted as the suites fit it at
    the default tolerances; +inf when the trace is exact."""
    return rate_fit(TS, residuals, DEFAULT_TOLERANCES["zero_floor"], SLOPE_MIN)


def exponent_index(space) -> dict:
    """Exponent tuple -> column, built from the space's exponent table alone:
    an independent reference for `JetSpace.columns`."""
    return {tuple(e): i for i, e in enumerate(space.exponents.tolist())}


def unit_exp(dim, j):
    return tuple(1 if k == j else 0 for k in range(dim))


def poly_field(dim, order, comps):
    """comps: component index -> {exponent tuple: coefficient}."""
    s = jet_space(dim, order)
    return VectorField(PolyMap(tuple(Jet.from_terms(s, comps.get(i, {})) for i in range(dim))))


def sym_box(dim, half=2.0):
    return Box(-half * np.ones(dim), half * np.ones(dim))


def heisenberg_frame(n=1, order=3, half=2.0) -> HFrame:
    """Left-invariant frame of the (2n+1)-dimensional Heisenberg group."""
    dim = 2 * n + 1
    zero = (0,) * dim
    fields = [poly_field(dim, order, {0: {zero: 1.0}})]
    for j in range(1, n + 1):
        fields.append(poly_field(dim, order, {j: {zero: 1.0}, 0: {unit_exp(dim, n + j): 1.0}}))
    for j in range(1, n + 1):
        fields.append(poly_field(dim, order, {n + j: {zero: 1.0}, 0: {unit_exp(dim, j): -1.0}}))
    return HFrame(tuple(fields), sym_box(dim, half))


def flat_frame(dim=3, order=3, half=2.0) -> HFrame:
    zero = (0,) * dim
    fields = [poly_field(dim, order, {i: {zero: 1.0}}) for i in range(dim)]
    return HFrame(tuple(fields), sym_box(dim, half))


def degenerate_frame(order=3, half=2.0) -> HFrame:
    """d = 4 frame with a rank-2 Levi matrix and a base-point-dependent
    symmetric quadratic part (the x_3^2 entry)."""
    dim = 5
    zero = (0,) * dim
    fields = [
        poly_field(dim, order, {0: {zero: 1.0}}),
        poly_field(dim, order, {1: {zero: 1.0}, 0: {unit_exp(dim, 2): 1.0}}),
        poly_field(dim, order, {2: {zero: 1.0}, 0: {unit_exp(dim, 1): -1.0}}),
        poly_field(dim, order, {3: {zero: 1.0}, 0: {(0, 0, 0, 2, 0): 1.0}}),
        poly_field(dim, order, {4: {zero: 1.0}}),
    ]
    return HFrame(tuple(fields), sym_box(dim, half))


def shear1d_frame(order=3, half=2.0) -> HFrame:
    """d = 1 frame with b = [[1]]: zero Levi matrix, nonzero symmetric part."""
    dim = 2
    zero = (0,) * dim
    fields = [
        poly_field(dim, order, {0: {zero: 1.0}}),
        poly_field(dim, order, {1: {zero: 1.0}, 0: {unit_exp(dim, 1): 1.0}}),
    ]
    return HFrame(tuple(fields), sym_box(dim, half))


def h3_mul(x, y, n=1):
    """The Heisenberg group law on R^(2n+1) written with the x_{n+j} y_j - x_j y_{n+j} twist."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    twist = sum(x[n + j] * y[j] - x[j] * y[n + j] for j in range(1, n + 1))
    out = x + y
    out[0] = x[0] + y[0] + twist
    return out


def vertical_shear_diffeo(qterms, order=3, n=1, target_half=12.0):
    """T(x) = (x_0 + q(x'), x') for a polynomial q in the horizontal variables.

    Returns (T, T_inverse, pushed_frame): the pushforward of the Heisenberg
    frame under T, so that T is a Heisenberg diffeomorphism from the standard
    chart onto the pushed chart.
    """
    from heisgeom.fields import pushforward_field

    dim = 2 * n + 1
    s = jet_space(dim, order)
    comp0 = Jet.coordinate(s, 0) + Jet.from_terms(s, qterms)
    fwd = PolyMap((comp0,) + tuple(Jet.coordinate(s, i) for i in range(1, dim)))
    comp0_inv = Jet.coordinate(s, 0) - Jet.from_terms(s, qterms)
    inv = PolyMap((comp0_inv,) + tuple(Jet.coordinate(s, i) for i in range(1, dim)))
    base = heisenberg_frame(n=n, order=order)
    pushed = tuple(pushforward_field(fwd, inv, f, order=order) for f in base.fields)
    return fwd, inv, HFrame(pushed, sym_box(dim, target_half))


def left_translation(g, order=3, n=1):
    """Left translation by g on the Heisenberg group, with its exact inverse."""
    g = np.asarray(g, dtype=float)
    dim = 2 * n + 1

    def build(h):
        A = np.eye(dim)
        for j in range(1, n + 1):
            A[0, j] = h[n + j]
            A[0, n + j] = -h[j]
        return PolyMap.affine(A, h, order)

    return build(g), build(-g)
