"""Privileged and Heisenberg coordinates at a base point.

The privileged map at u is the affine normalization psi_u(x) = A(u)(x - u),
A(u) = (B(u)^t)^-1, which sends the frame at u to the coordinate frame at 0;
in these coordinates (`privileged_frame`) X_j = d_j + sum_k a_jk(x) d_k with
a_jk(0) = 0 and the matrix b_jk = d_k a_j0(0) carries all weight-graded
information: the Levi matrix is L = b^t - b and the quadratic shear

    phi_u(x) = (x_0 - 1/4 sum_jk (b_jk + b_kj) x_j x_k, x')

turns the privileged coordinates into Heisenberg coordinates eps_u =
phi_u . psi_u, in which the dilation limits of the frame fields are exactly
the left-invariant model fields X_j^m = d_j - 1/2 sum_k L_jk x_k d_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import FrameError, HFrame, VectorField, bracket, pushforward_field
from .group import GradedShear, per_map, weight_vector
from .jets import PolyMap, jet_space
from .rates import worst_abs


def privileged_frame(frame: HFrame, u) -> tuple:
    """The frame in privileged coordinates at u: each field pushed forward by
    psi_u, with exact inverse psi_u^-1(y) = u + B(u)^t y.  The pushed fields
    equal e_j at 0, and b_jk = d_k a_j0(0) is the x_k-coefficient of pushed
    field j's x_0-component; a batch of points u gives one table per point.
    Raises outside the domain or where B is singular."""
    u = np.asarray(u, dtype=float)
    inside = frame.domain.contains(u)
    if not np.all(inside):
        raise FrameError(f"base point {u[~inside][0]} outside the frame domain")
    B = frame.matrix_at(u)
    frame.check_invertible(u, B=B)
    psi = PolyMap.affine(np.linalg.inv(B.mT), np.zeros(frame.dim), frame.order, base=u)
    psi_inv = PolyMap.affine(B.mT, u, frame.order)
    return tuple(pushforward_field(psi, psi_inv, X) for X in frame.fields)


def _times_transpose(w, M: np.ndarray) -> np.ndarray:
    """w @ M^t for one matrix M or a stack S + (dim, dim), with w the points of
    each matrix, S + (..., dim).  Each block of `per_map` is one product: the
    points of one matrix of a stack; for one matrix, an (N, dim) batch, or
    each trailing (k, dim) block of (..., k, dim)."""
    w = np.asarray(w, dtype=float)
    return (per_map(w, M.shape[:-2]) @ M.mT).reshape(w.shape)


@dataclass(frozen=True, eq=False)
class HeisenbergMap:
    """eps_u = phi_u . psi_u with exact closed-form inverse.

    A batch of base points u (S + (dim,)) gives one map per point: A and b
    carry the leading shape S, and the point maps take one point per map,
    S + (dim,).  A single map takes any number of points, (..., dim), and
    multiplies them in the blocks of `group.per_map`.  The polynomial forms
    and model frames of a batch hold one table per point.
    """

    u: np.ndarray
    A: np.ndarray  # privileged linear part
    b: np.ndarray  # transverse linear coefficients at u

    @property
    def dim(self) -> int:
        return self.u.shape[-1]

    @property
    def d(self) -> int:
        return self.dim - 1

    @property
    def levi(self) -> np.ndarray:
        return self.b.mT - self.b

    # the shear, its inverse and A^-1 are built once per map, on first use
    @cached_property
    def shear(self) -> GradedShear:
        return GradedShear(-(self.b + self.b.mT) / 2)

    @cached_property
    def shear_inv(self) -> GradedShear:
        return self.shear.inverse()

    @cached_property
    def A_inv(self) -> np.ndarray:
        return np.linalg.inv(self.A)

    def forward(self, x) -> np.ndarray:
        return self.forward_from_displacement(np.asarray(x, dtype=float) - self.u)

    def inverse(self, w) -> np.ndarray:
        return self.u + self.inverse_displacement(w)

    def inverse_displacement(self, w) -> np.ndarray:
        """eps_u^-1(w) - u, computed without adding and re-subtracting u.

        Keeps the graded rescaling sweeps free of large-minus-large
        cancellation when w ~ t.X is small.
        """
        return _times_transpose(self.shear_inv.apply(w), self.A_inv)

    def forward_from_displacement(self, disp) -> np.ndarray:
        """eps_u(u + disp) evaluated directly from the displacement."""
        return self.shear.apply(_times_transpose(disp, self.A))

    def as_polymap(self, order: int) -> PolyMap:
        psi = PolyMap.affine(self.A, (-self.A @ self.u[..., None])[..., 0], order)
        return self.shear.as_polymap(order).compose(psi, exact=True)

    def inverse_polymap(self, order: int) -> PolyMap:
        psi_inv = PolyMap.affine(self.A_inv, self.u, order)
        return psi_inv.compose(self.shear_inv.as_polymap(order), exact=True)

    def dilation_model_frame(self, order: int) -> tuple:
        """Privileged-coordinate dilation limits: X_j^(u) = d_j + sum b_jk x_k d_0."""
        return _linear_transverse_frame(self.b, order)

    def model_frame(self, order: int) -> tuple:
        """Left-invariant model fields X_j^m = d_j - 1/2 sum L_jk x_k d_0."""
        return _linear_transverse_frame(-0.5 * self.levi, order)

    def pushed_model_residual(self) -> float:
        """Coefficient distance, at order 4 and over a batch's every point, between
        phi_u-pushed dilation-limit fields and the model fields; zero by the
        graded-shear transport identity."""
        order = 4
        shear_pm = self.shear.as_polymap(order)
        shear_inv_pm = self.shear_inv.as_polymap(order)
        pushed = (pushforward_field(shear_pm, shear_inv_pm, Xu, order=order) for Xu in self.dilation_model_frame(order))
        want = self.model_frame(order)
        return worst_abs(*(Xh.components.coeffs - Xm.components.coeffs for Xh, Xm in zip(pushed, want)))


def _linear_transverse_frame(coef: np.ndarray, order: int) -> tuple:
    """Fields d_0 and d_j + sum_k coef_jk x_k d_0 as polynomial fields, one
    table per matrix of coef (..., d, d)."""
    dim = coef.shape[-1] + 1
    s = jet_space(dim, order)
    tables = np.zeros(coef.shape[:-2] + (dim, dim, s.size))  # (..., field, component, monomial)
    tables[..., range(dim), range(dim), 0] = 1.0
    tables[..., 1:, 0, dim - 1 : 0 : -1] = coef  # graded lex: x_{dim-1} comes first
    return tuple(VectorField(PolyMap._of(s, t, np.zeros(t.shape[:-2] + (dim,)))) for t in np.moveaxis(tables, -3, 0))


def heisenberg_map(frame: HFrame, u) -> HeisenbergMap:
    """Heisenberg coordinates at one point u (dim,) or at each of a batch (N, dim).

    One monomial vector per point, multiplied into the frame's stacked
    tables, gives B(u) and every DX_j(u); the determinant guard runs on that
    B.  The b matrix comes from the Jacobian identity
    b_jk = (A DX_j(u) B^t)_0k, which agrees with the degree-1 jet route of
    `privileged_frame` (tested against it).  Every product is taken
    per point, so a batch equals one call per point bit for bit.
    """
    u = np.asarray(u, dtype=float)
    inside = frame.domain.contains(u)
    if not np.all(inside):
        raise FrameError(f"base point {u[~inside][0]} outside the frame domain")
    B, DX = frame.matrix_and_jacobians(u)
    frame.check_invertible(u, B=B)
    Bt = B.mT
    A = np.linalg.inv(Bt)
    row0 = (A[..., None, :1, :] @ DX[..., 1:, :, :])[..., 0, :]  # row j is A[0] DX_j
    return HeisenbergMap(u, A, (row0 @ Bt)[..., 1:])


def graded_weight_violation(pm: PolyMap) -> float:
    """Largest coefficient breaking delta_t-equivariance.

    A polynomial map commutes with the graded dilations iff every monomial in
    component i has graded weight equal to the component weight.
    """
    w = weight_vector(pm.dim_in)
    w_out = np.ones(pm.dim_out)
    w_out[: len(w)] = w[: pm.dim_out]
    bad = (pm.space.exponents @ w)[None, :] != w_out[:, None]
    return float(np.max(np.abs(pm.coeffs[..., bad]), initial=0.0))


@dataclass(frozen=True, eq=False)
class ModelField:
    """Leading dilation-homogeneous part of a vector field at a point,
    written over the model frame: coeffs are frame coordinates, weight is
    the rescaling exponent (2 when the field sticks out of H at the point)."""

    weight: int
    coeffs: np.ndarray
    levi: np.ndarray
    flagged: bool

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def as_field(self, order: int) -> VectorField:
        model = [X.components for X in _linear_transverse_frame(-0.5 * self.levi, order)]
        acc = np.zeros(model[0].coeffs.shape)
        for cj, pm in zip(self.coeffs, model):  # coeffs is zero off the weight's slots
            if cj != 0.0:
                acc = acc + cj * pm.coeffs
        return VectorField(PolyMap._of(model[0].space, acc, np.zeros(self.dim)))


def model_field(X: VectorField, frame: HFrame, hm: HeisenbergMap) -> ModelField:
    """Case split on the frame expansion a of X(m) at the base point m = hm.u
    of the Heisenberg map hm: weight 2 with coefficient a_0 when
    |a_0| > 1e-9 |a|, else weight 1 with the horizontal coefficients; inputs
    within a factor 10 of that threshold are flagged."""
    a = frame.expand(hm.u, X(hm.u))
    scale = float(np.linalg.norm(a))
    ratio = abs(a[0]) / scale if scale > 0 else 0.0
    weight = 2 if ratio > 1e-9 else 1
    flagged = bool(scale > 0 and 1e-10 < ratio < 1e-8)
    coeffs = np.zeros_like(a)
    if weight == 2:
        coeffs[0] = a[0]
    else:
        coeffs[1:] = a[1:]
    return ModelField(weight, coeffs, hm.levi, flagged)


def sample_box(half: float, per_axis: int, dim: int) -> np.ndarray:
    """The (per_axis**dim, dim) product grid on [-half, half]^dim, last axis fastest."""
    axis = np.linspace(-half, half, per_axis)
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def dilation_limit_check(X: VectorField, frame: HFrame, m, ts) -> tuple:
    """Residual trace of the rescaled dilation pullback against the model
    field, and the model field's `flagged` bit.

    In Heisenberg coordinates at m, for each t in ts, the sup norm over the
    grid `sample_box(0.8, 3, dim)` of the residual field t^w delta_t^* X - X^m.
    The claim is that the trace decays at least linearly in t, or vanishes
    identically for exactly homogeneous fields; the caller fits it.  Only
    the monomials where the pushed field or X^m is nonzero are evaluated.  A
    NaN in the residual field makes that t's residual NaN.
    """
    m = np.asarray(m, dtype=float)
    hm = heisenberg_map(frame, m)
    dim = frame.dim
    order = max(frame.order, 2 * (X.components.degree() + 1))
    fwd = hm.as_polymap(order)
    inv = hm.inverse_polymap(order)
    Xh = pushforward_field(fwd, inv, X, order=order)
    mf = model_field(X, frame, hm)
    target = mf.as_field(order)

    space = Xh.components.space
    cols = np.flatnonzero(Xh.components.coeffs.any(axis=0) | target.components.coeffs.any(axis=0))
    coeffs, want = Xh.components.coeffs[:, cols], target.components.coeffs[:, cols]
    w = weight_vector(dim)
    mono_w = space.exponents[cols] @ w
    mono = space.monomials(sample_box(0.8, 3, dim), cols)

    residuals = [
        worst_abs(*(mono @ (coeffs[i] * t ** (mf.weight + mono_w - w[i]) - want[i]) for i in range(dim))) for t in ts
    ]
    return residuals, mf.flagged
