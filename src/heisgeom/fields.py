"""Polynomial vector fields, hyperplane frames and the Levi form matrix.

A frame is a list X_0, ..., X_d of vector fields on a box, with X_1, ..., X_d
spanning the distinguished hyperplane distribution H.  The Levi matrix at a
point m is read off the brackets: expanding [X_j, X_k](m) over the frame at m,
the X_0-coefficient is L_jk.

A map phi between two frames has one tangent block at each point,
C(x) = basis'(phi x)^-1 Dphi(x) basis(x), computed by `tangent_blocks` alone:
its top row says whether phi preserves H, and its block-diagonal part is the
graded tangent map that `approx` and `groupoid` read.

Where a frame or a map may be evaluated is decided here alone: `Box.require`
(and, for the rescaling sweeps, `Box.require_sweep`) is the domain guard,
`check_nonsingular` the one determinant guard, and `HFrame.check_invertible`
both in one call.  Each raises a `FrameError` naming the first bad point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet, JetError, PolyMap, broadcast, check_compatible, mul_rows, partial_rows
from .rates import worst_abs


class FrameError(ValueError):
    """Singular frame matrix or out-of-domain request."""


def check_nonsingular(M: np.ndarray, x, what: str, sym: str) -> np.ndarray:
    """The one determinant guard, on matrices M (..., n, n) at the points x
    (..., n): |det(M / max|M|)| must exceed 1e-8, a scale-free test that
    cannot overflow and that a non-finite M fails; returns the determinants.
    The error names `what` (`sym` in the formula) and the first bad point."""
    scale = np.maximum(np.max(np.abs(M), axis=(-2, -1), initial=0.0), 1e-300)
    det = np.linalg.det(M / scale[..., None, None])
    bad = ~(np.abs(det) > 1e-8)  # a NaN determinant is singular too
    if bad.any():
        i = np.flatnonzero(bad)[0]
        at = np.asarray(x, dtype=float).reshape(-1, M.shape[-1])[i]
        raise FrameError(f"{what} nearly singular at {at}: det({sym}/max|{sym}|)={det.flat[i]:.3e}")
    return det


@dataclass(frozen=True, eq=False)
class VectorField:
    """A vector field with polynomial components, X = sum_k comp_k(x) d/dx_k."""

    components: PolyMap

    def __post_init__(self):
        if self.components.dim_in != self.components.dim_out:
            raise JetError(
                f"vector field needs square component map, got "
                f"{self.components.dim_in}->{self.components.dim_out}"
            )

    @property
    def dim(self) -> int:
        return self.components.dim_in

    @property
    def order(self) -> int:
        return self.components.order

    def __call__(self, x) -> np.ndarray:
        return self.components.eval(x)

    def eval_many(self, pts) -> np.ndarray:
        return self.components.eval_many(pts)

    def with_order(self, order: int) -> "VectorField":
        return VectorField(self.components.with_order(order))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.components + other.components)

    def __rmul__(self, scalar: float) -> "VectorField":
        return VectorField(float(scalar) * self.components)

    def scaled_by_jet(self, f: Jet) -> "VectorField":
        """Pointwise scaling f(x) X(x)."""
        return VectorField(f * self.components)


def _field_of_terms(s, terms: np.ndarray, base: np.ndarray) -> VectorField:
    """The field with components sum_j terms[..., i, j, :], added in ascending
    j.  A `mul_rows` sum starts from +0.0, so it is never -0.0: starting from
    +0.0, and leaving out the j whose terms are all zero, change no bit."""
    acc = np.zeros(terms.shape[:-2] + terms.shape[-1:])
    for j in range(terms.shape[-2]):
        acc += terms[..., j, :]
    return VectorField(PolyMap._of(s, acc, broadcast(base, acc.shape[:-2] + (s.dim,))))


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i).

    Exact on polynomial inputs through total degree `order`; higher products
    are truncated.  Each kind of product is one `mul_rows` call for a batch.
    """
    if X.dim != Y.dim:
        raise JetError(f"bracket dimension mismatch: {X.dim} vs {Y.dim}")
    x, y = X.components, Y.components
    check_compatible(x, y)
    s = x.space
    js = np.flatnonzero((x.coeffs.any(axis=-1) | y.coeffs.any(axis=-1)).reshape(-1, X.dim).any(axis=0))
    # row (i, j): X^j d_j Y^i and Y^j d_j X^i, for the j where X^j or Y^j is not zero
    xy = mul_rows(s, x.coeffs[..., None, js, :], y.partials[..., js, :])
    yx = mul_rows(s, y.coeffs[..., None, js, :], x.partials[..., js, :])
    return _field_of_terms(s, xy - yx, x.base)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the chart domain."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be matching vectors")
        if np.any(hi <= lo):
            raise ValueError("empty box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x):
        """Whether each point of x, shape (..., dim), lies in the box widened by 1e-9."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo - 1e-9) & (x <= self.hi + 1e-9), axis=-1)

    def require(self, x, what: str, where: str) -> np.ndarray:
        """x (..., dim) as floats, after the one domain guard: a FrameError
        names `what`, the first point of x outside the box, and `where`."""
        x = np.asarray(x, dtype=float)
        inside = self.contains(x)
        if not np.all(inside):
            raise FrameError(f"{what} {x[~inside][0]} outside the {where}")
        return x

    def require_sweep(self, ts, *stages) -> None:
        """The domain guard of a rescaling sweep over ts: a stage is a message
        with a {t} field and its points (..., T, k, dim).  Raises the loop's
        FrameError, at the first base point's first t at which a stage
        leaves the box, the earlier stage first."""
        outside = np.stack([~self.contains(x).all(axis=-1) for _, x in stages], axis=-1)
        if outside.any():
            *_, t, stage = np.unravel_index(np.argmax(outside), outside.shape)
            raise FrameError(stages[stage][0].format(t=ts[t]))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def shrunk(self, factor: float) -> "Box":
        c, h = self.center(), 0.5 * (self.hi - self.lo)
        return Box(c - factor * h, c + factor * h)

    def grid(self, per_axis: int = 5, limit: int | None = None) -> np.ndarray:
        """Deterministic interior product grid in row-major order, optionally
        thinned to `limit` points by even striding; only kept points are built."""
        fracs = (2 * np.arange(per_axis) + 1) / (2 * per_axis)
        n = per_axis**self.dim
        idx = np.arange(n) if limit is None or n <= limit else np.linspace(0, n - 1, limit).round().astype(int)
        digits = np.unravel_index(idx, (per_axis,) * self.dim)
        return np.stack([self.lo[i] + fracs[k] * (self.hi[i] - self.lo[i]) for i, k in enumerate(digits)], axis=-1)


@dataclass(frozen=True, eq=False)
class HFrame:
    """Frame X_0, ..., X_d over a box; X_1, ..., X_d span the hyperplane H.

    The fields' coefficient tables are concatenated into one map, `stacked`
    (row j * dim + i holds X_j^i), so one monomial vector at x gives every
    field and every field Jacobian; the fields must share one jet space and
    base point.
    """

    fields: tuple
    domain: Box

    def __post_init__(self):
        fields = tuple(self.fields)
        if len(fields) < 2:
            raise FrameError("need at least X_0 and one horizontal field")
        dim = fields[0].dim
        if len(fields) != dim:
            raise FrameError(f"{len(fields)} fields for dimension {dim}; frame must have d+1 = dim fields")
        if self.domain.dim != dim:
            raise FrameError("domain dimension does not match the fields")
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "stacked", _stack(fields))

    @property
    def dim(self) -> int:
        return len(self.fields)

    @property
    def d(self) -> int:
        return self.dim - 1

    @property
    def order(self) -> int:
        return self.fields[0].order

    def matrix_at(self, x) -> np.ndarray:
        """B(x) for x of shape (..., dim): row j holds the components of X_j
        at x (the stacked coefficient table times the monomial vector at x)."""
        mono = self.stacked.monomials(x)[..., None]
        return (self.stacked.coeffs @ mono).reshape(mono.shape[:-2] + (self.dim, self.dim))

    def matrix_and_jacobians(self, x):
        """B(x) and DX(x) with DX[..., j, i, k] = d_k X_j^i(x), from one monomial
        vector per point of x (..., dim).  Each point takes its own
        matrix-vector products, which round as they do for a single point."""
        pm, n = self.stacked, self.dim
        mono = pm.monomials(x)[..., None]
        lead = mono.shape[:-2]
        B = (pm.coeffs @ mono).reshape(lead + (n, n))
        return B, (pm.partials @ mono[..., None, :, :]).reshape(lead + (n, n, n))

    def basis_at(self, x) -> np.ndarray:
        """Columns are the frame vectors at x (= B(x)^t), one matrix per point."""
        return self.matrix_at(x).mT

    def check_invertible(self, x, B=None, what: str = "point", where: str = "frame domain"):
        """Whether the frame is defined at each point of x (..., dim): the
        domain guard (naming `what` and `where`), then `check_nonsingular` on
        the frame matrix B; pass B when B(x) is already at hand.  Returns the
        determinants."""
        x = self.domain.require(x, what, where)
        return check_nonsingular(self.matrix_at(x) if B is None else B, x, "frame matrix", "B")

    def expand(self, x, v) -> np.ndarray:
        """Coefficients of the vectors v (..., dim) in the frame at the points x."""
        self.check_invertible(x)
        return np.linalg.solve(self.basis_at(x), np.asarray(v, dtype=float)[..., None])[..., 0]


def _stack(fields) -> PolyMap:
    """One map whose rows are the components of every field, field by field;
    the fields must share one jet space and base point."""
    first = fields[0].components
    for f in fields[1:]:
        check_compatible(first, f.components)
    return PolyMap._of(first.space, np.concatenate([f.components.coeffs for f in fields]), first.base)


class LeviForm:
    """Bracket fields of a frame, built once; their coefficient tables are
    concatenated after the frame's in one map, so one monomial vector at m
    gives B(m) and every [X_j, X_k](m).

    `matrix` and `raw_matrix` take one point m (dim,) or a batch (..., dim)
    and return L (d, d) or one per point (..., d, d).  Each point takes its
    own matrix-vector product and each point and pair its own
    `np.linalg.solve`, so a batch equals one call per point bit for bit.
    """

    def __init__(self, frame: HFrame):
        self.frame = frame
        self._pairs = np.triu_indices(frame.d, 1)  # (j, k) of each bracket, 0-based, j < k
        brackets = [bracket(frame.fields[j + 1], frame.fields[k + 1]) for j, k in zip(*self._pairs)]
        self._stacked = _stack(frame.fields + tuple(brackets))

    def _at(self, m):
        """B(m) and the bracket vectors at m, one per row: (..., dim, dim) and
        (..., pairs, dim)."""
        dim = self.frame.dim
        mono = self._stacked.monomials(m)[..., None]
        vals = (self._stacked.coeffs @ mono).reshape(mono.shape[:-2] + (-1, dim))
        return vals[..., :dim, :], vals[..., dim:, :]

    def _x0(self, B, vectors) -> np.ndarray:
        """The X_0-coefficient of each vector (..., n, dim) over the frame B
        at its point, one solve per point and vector: (..., n)."""
        return np.linalg.solve(B.mT[..., None, :, :], vectors[..., None])[..., 0, 0]

    def _assemble(self, upper, lower) -> np.ndarray:
        """L from its entries L_jk (upper) and L_kj (lower), j < k."""
        j, k = self._pairs
        L = np.zeros(upper.shape[:-1] + (self.frame.d, self.frame.d))
        L[..., j, k] = upper
        L[..., k, j] = lower
        return L

    def matrix(self, m) -> np.ndarray:
        """L at each point of m, where the frame is defined; the lower triangle
        is the negated upper one."""
        m = np.asarray(m, dtype=float)
        B, brackets = self._at(m)
        self.frame.check_invertible(m, B)
        upper = self._x0(B, brackets)
        return self._assemble(upper, -upper)

    def raw_matrix(self, m) -> np.ndarray:
        """L without the guards, both triangles solved independently (used by
        the antisymmetry check itself)."""
        B, brackets = self._at(np.asarray(m, dtype=float))
        both = self._x0(B, np.concatenate([brackets, -brackets], axis=-2))
        n = brackets.shape[-2]
        return self._assemble(both[..., :n], both[..., n:])


def pushforward_field(fwd: PolyMap, inv: PolyMap, X: VectorField, order: int | None = None) -> VectorField:
    """Pushforward of X under the polynomial diffeomorphism fwd with exact
    polynomial inverse inv: (fwd_* X)(y) = fwd'(inv(y)) X(inv(y)).

    Exact when `order` is at least deg(inv) * (deg X + deg fwd - 1); callers
    lift the order accordingly.  Maps and field may carry one per point of a
    batch; their batch shapes broadcast.
    """
    if order is not None:
        fwd = fwd.with_order(order)
        inv = inv.with_order(order)
        X = X.with_order(order)
    s = inv.space
    x_inv = X.components.compose(inv)
    js = np.flatnonzero(x_inv.coeffs.any(axis=-1).reshape(-1, X.dim).any(axis=0))
    # (d_j fwd^i)(inv(y)) for every i and the j with X^j(inv) not zero everywhere, composed in one call
    dfj = partial_rows(fwd.space, fwd.coeffs, js)
    df = PolyMap._of(fwd.space, dfj.reshape(dfj.shape[:-3] + (-1, fwd.space.size)), fwd.base)
    df_inv = df.compose(inv).coeffs
    terms = mul_rows(s, df_inv.reshape(*df_inv.shape[:-2], X.dim, len(js), s.size), x_inv.coeffs[..., None, js, :])
    return _field_of_terms(s, terms, inv.base)


def tangent_blocks(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, x) -> np.ndarray:
    """The differential of phi over the frames, C(x) = B_dst(phi x)^-t Dphi(x)
    B_src(x)^t, at each point of x (..., dim): (..., dim, dim).  Column j
    expands phi'(x) X_j(x) in the target frame at phi(x), so phi preserves H
    at x exactly when the top row C[0, 1:] vanishes, and diag(C_00, C[1:, 1:])
    is the graded tangent map phi'_H.  Raises when a point leaves the source
    domain, the target frame is not defined at an image, or Dphi is singular
    at a point."""
    x = frame_src.domain.require(x, "sample", "source domain")
    y = phi.eval(x)
    B_dst = frame_dst.matrix_at(y)
    frame_dst.check_invertible(y, B_dst, "image", "target domain")
    J = phi.jacobian(x)
    check_nonsingular(J, x, "differential", "Dphi")
    return np.linalg.solve(B_dst.mT, J @ frame_src.matrix_at(x).mT)


def pushforward_preserves_H(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, samples) -> float:
    """The largest relative top-row entry C[0, j] / |C[:, j]|, j >= 1, of the
    `tangent_blocks` at the samples: the X_0-component of phi'(x) X_j(x) in
    the target frame, relative to that vector.  Zero when phi maps H to H';
    a NaN stays NaN."""
    cols = tangent_blocks(phi, frame_src, frame_dst, np.atleast_2d(samples))[..., 1:]
    norm = np.linalg.norm(cols, axis=-2)
    return worst_abs(np.divide(cols[..., 0, :], norm, out=np.zeros_like(norm), where=norm != 0))
