"""The graded 2-step nilpotent tangent group of a Heisenberg manifold.

Elements live in R^(d+1) with the weight-2 slot first: dilations act by
t.(x_0, x') = (t^2 x_0, t x'), and the product twists the transverse slot by
half the Levi matrix:

    x . y = (x_0 + y_0 + 1/2 sum_jk L_jk x_j y_k,  x' + y').

The module also holds the auxiliary bilinear-law groups x_0 + y_0 +
sum_jk b_kj x_j y_k produced by coordinate normalizations, the graded shears
relating them, the homogeneous pseudo-norm and the fiber classification into
Heisenberg x abelian factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import PolyMap, broadcast


def weight_vector(dim: int) -> np.ndarray:
    w = np.ones(dim)
    w[0] = 2.0
    return w


def dilate(t, x) -> np.ndarray:
    """Graded dilation t.x = (t^2 x_0, t x_1, ..., t x_d); t is one number or
    one per point of x (..., dim)."""
    x = np.asarray(x, dtype=float)
    return x * np.asarray(t, dtype=float)[..., None] ** weight_vector(x.shape[-1])


def dilate_inv(t, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x * np.asarray(t, dtype=float)[..., None] ** -weight_vector(x.shape[-1])


def per_map(x: np.ndarray, M: np.ndarray) -> tuple:
    """The points x of the matrices M (lead + (n, m)) in the blocks each
    matrix multiplies as one product, every trailing (k, n) block of
    lead + (..., k, n) and a lone point lead + (n,) as (1, n), and M shaped
    to broadcast against them.  One rule for one matrix and a stack: a sweep
    stacking each t's points as (T, k, n) rounds as a loop over t does."""
    lead = M.shape[:-2]
    x = x[..., None, :] if x.ndim == len(lead) + 1 else x
    return x, M.reshape(lead + (1,) * (x.ndim - M.ndim) + M.shape[-2:])


def levi_mul(L, x, y) -> np.ndarray:
    """The tangent-group product x + y with 1/2 x'^t L y' added to slot 0; L is
    one (d, d) Levi matrix or one per point, (..., d, d)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    out = x + y
    out[..., 0] += 0.5 * np.einsum("...j,...jk,...k->...", x[..., 1:], L, y[..., 1:])
    return out


def pseudo_norm(x) -> np.ndarray | float:
    """Homogeneous gauge ||x|| = (x_0^2 + |x'|^4)^(1/4); ||t.x|| = |t| ||x||."""
    x = np.asarray(x, dtype=float)
    horiz = np.sum(x[..., 1:] ** 2, axis=-1)
    out = (x[..., 0] ** 2 + horiz**2) ** 0.25
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class TangentGroup:
    """The tangent group of one fibre: the frame-relative Levi matrix L, with
    L_jk the X_0-part of [X_j, X_k], a (d, d) array.  L must be square,
    finite and antisymmetric to within 1e-10; a NaN or an infinity in L
    fails that test rather than passing it."""

    L: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("structure constants must form a square matrix")
        skew = np.max(np.abs(L + L.T), initial=0.0)  # NaN for a NaN or a +-inf in L
        if not skew <= 1e-10:
            raise ValueError(f"Levi matrix not finite and antisymmetric: |L + L^t| = {skew:.3e}")
        L.setflags(write=False)
        object.__setattr__(self, "L", L)

    @property
    def d(self) -> int:
        return self.L.shape[0]

    @property
    def dim(self) -> int:
        return self.d + 1

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def mul(self, x, y) -> np.ndarray:
        return levi_mul(self.L, x, y)

    def inverse(self, x) -> np.ndarray:
        return -np.asarray(x, dtype=float)

    def commutator(self, x, y) -> np.ndarray:
        return self.mul(self.mul(x, y), self.mul(self.inverse(x), self.inverse(y)))


def bilinear_mul(b: np.ndarray, x, y) -> np.ndarray:
    """Product of the normalization group: x_0 + y_0 + sum_jk b_kj x_j y_k;
    b is one (d, d) matrix or one per point, (..., d, d)."""
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = x + y
    out[..., 0] += np.einsum("...k,...kj,...j->...", y[..., 1:], b, x[..., 1:])
    return out


@dataclass(frozen=True, eq=False)
class GradedShear:
    """x -> (x_0 + 1/2 sum_jk c_jk x_j x_k, x') with symmetric c.

    A graded group isomorphism carrying the bilinear law of b onto that of
    b + c.  c may be a stack S + (d, d), one shear per point of a batch;
    `apply` then takes the points of each shear, S + (..., d + 1).
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
            raise ValueError("shear matrix must be square")
        if not np.max(np.abs(c - c.mT), initial=0.0) <= 1e-12:  # a NaN fails too
            raise ValueError("shear matrix must be symmetric")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return self.c.shape[-1]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xh, c = per_map(x[..., 1:], self.c)
        out = x.copy()
        out[..., 0] += 0.5 * np.einsum("...nj,...jk,...nk->...n", xh, c, xh).reshape(x.shape[:-1])
        return out

    def inverse(self) -> "GradedShear":
        return GradedShear(-self.c)

    def transport(self, b: np.ndarray) -> np.ndarray:
        """New bilinear coefficients after pushing the b-law through the shear."""
        return np.asarray(b, dtype=float) + self.c

    def as_polymap(self, order: int) -> PolyMap:
        """The shear as a polynomial map, order >= 2, one per shear of a stack;
        the column of x_j x_k = x_k x_j takes c_jk / 2 + c_kj / 2, each added
        onto the identity's +0.0, so a zero of c / 2 is stored as +0.0."""
        lead, ident = self.c.shape[:-2], PolyMap.identity(self.d + 1, order)
        table = np.array(broadcast(ident.coeffs, lead + ident.coeffs.shape))
        half, cols = 0.5 * self.c + 0.0, ident.space.quadratic_columns()[1:, 1:]
        table[..., 0, cols] = np.where(np.eye(self.d, dtype=bool), half, half + half.mT)
        return PolyMap._of(ident.space, table, np.zeros(lead + (self.d + 1,)))


def shear_homomorphism_residual(shear: GradedShear, b: np.ndarray, pairs) -> float:
    """max |shear(x .b y) - (shear x .b+c shear y)| over the sample pairs,
    (N, 2, dim) or a list of (x, y), evaluated as one batch."""
    b = np.asarray(b, dtype=float)
    x, y = np.ascontiguousarray(np.moveaxis(np.asarray(pairs, dtype=float), -2, 0))
    lhs = shear.apply(bilinear_mul(b, x, y))
    rhs = bilinear_mul(shear.transport(b), shear.apply(x), shear.apply(y))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def canonical_constants(d: int, n: int) -> np.ndarray:
    """Structure constants of H^(2n+1) x R^(d-2n) in its adapted frame."""
    L = np.zeros((d, d))
    for j in range(n):
        L[j, n + j] = -2.0
        L[n + j, j] = 2.0
    return L


@dataclass(frozen=True, eq=False)
class FiberClassification:
    """Rank, group type and adapted frame of one tangent-group fiber."""

    rank: int
    d: int
    label: str
    adapted: np.ndarray  # columns: X_1..X_n, X_{n+1}..X_{2n}, kernel basis
    flagged: bool

    @property
    def n(self) -> int:
        return self.rank // 2

    def relations(self, L: np.ndarray) -> np.ndarray:
        """Structure constants re-derived in the adapted frame."""
        return self.adapted.T @ np.asarray(L, dtype=float) @ self.adapted


def _orient(v: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(v))
    return -v if v[lead] < 0 else v


def classify_fiber(G: TangentGroup, metric: np.ndarray | None = None) -> FiberClassification:
    """Classify the fiber as H^(2n+1) x R^(d-2n).

    Whitens the metric, pairs the antisymmetric form's planes through the
    eigendecomposition of -S^2, scales an adapted basis to the -2 relations
    and completes it with a metric-orthonormal kernel basis.  Near-threshold
    singular values, within a factor 10 of the rank threshold 1e-8 sigma_max,
    set the `flagged` bit instead of being silently rounded.
    """
    d = G.d
    L = G.L
    if metric is None:
        metric = np.eye(d)
    metric = np.asarray(metric, dtype=float)
    if metric.shape != (d, d) or not np.max(np.abs(metric - metric.T), initial=0.0) <= 1e-10:
        raise ValueError("metric must be a symmetric d x d matrix")
    try:
        chol = np.linalg.cholesky(metric)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric must be positive definite") from exc

    chol_inv = np.linalg.inv(chol)
    S = chol_inv @ L @ chol_inv.T  # antisymmetric in whitened coordinates
    # rank threshold uses SVD singular values; sqrt of eigh eigenvalues of
    # -S^2 would smear exact zeros up to sqrt(eps) * sigma_max
    sigma = np.linalg.svd(S, compute_uv=False)
    sig_max = float(sigma.max(initial=0.0))
    thresh = 1e-8 * sig_max if sig_max > 0 else np.inf
    flagged = bool(np.any((sigma > thresh / 10) & (sigma < thresh * 10)))

    lam, V = np.linalg.eigh(-S @ S)
    pairs = []
    kernel = []
    used: list[np.ndarray] = []
    order = np.argsort(lam)[::-1]
    for idx in order:
        v = V[:, idx].copy()
        for q in used:
            v -= (q @ v) * q
        nv = np.linalg.norm(v)
        if nv < 0.5:  # direction already consumed as a pair partner
            continue
        v = _orient(v / nv)
        s = float(np.linalg.norm(S @ v))
        if s > thresh:
            q2 = -(S @ v) / s
            for q in used:
                q2 -= (q @ q2) * q
            q2 -= (v @ q2) * v
            q2 /= np.linalg.norm(q2)
            pairs.append((s, v, q2))
            used.extend([v, q2])
        else:
            kernel.append(v)
            used.append(v)

    rank = 2 * len(pairs)
    n = len(pairs)
    cols_first = [np.sqrt(2.0 / s) * q1 for s, q1, _ in pairs]
    cols_second = [-np.sqrt(2.0 / s) * q2 for s, _, q2 in pairs]
    cols = cols_first + cols_second + kernel
    adapted_white = np.stack(cols, axis=1) if cols else np.zeros((d, 0))
    adapted = chol_inv.T @ adapted_white

    if rank == 0:
        label = f"R{d + 1}"
    elif rank == d:
        label = f"H{d + 1}"
    else:
        label = f"H{2 * n + 1}xR{d - 2 * n}"

    rel = adapted.T @ L @ adapted
    resid = float(np.max(np.abs(rel - canonical_constants(d, n)), initial=0.0))
    if resid > 1e-6:
        raise ArithmeticError(f"adapted frame relations off by {resid:.3e}")
    return FiberClassification(rank, d, label, adapted, flagged)
