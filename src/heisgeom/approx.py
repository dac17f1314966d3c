"""Tangent approximation of Heisenberg diffeomorphisms.

In Heisenberg coordinates at m and phi(m) the differential of an
H-preserving map is block triangular; dropping the transverse column gives
the graded tangent map

    phi'_H(0) = diag(a00, A_par),

a fiberwise group isomorphism.  The approximation statement checked here:
the conjugated map has no purely horizontal quadratic terms in its
transverse component, and the graded rescalings t^-1 . conj(t.x) converge
to phi'_H(0) x at rate O(t), locally uniformly in the base point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import HeisenbergMap, heisenberg_map, sample_box
from .fields import FrameError, HFrame
from .group import dilate, dilate_inv
from .jets import PolyMap


class ApproxError(ValueError):
    """Map fails the structural requirements of the tangent approximation."""


@dataclass(frozen=True, eq=False)
class TangentMapH:
    """Graded block-diagonal part of a differential, in Heisenberg coordinates."""

    a00: float
    A_par: np.ndarray
    off_col: np.ndarray  # dropped transverse column of the full differential
    upper_residual: float  # |top-right block|, ~0 for H-preserving maps

    def __post_init__(self):
        A_par = np.asarray(self.A_par, dtype=float)
        object.__setattr__(self, "A_par", A_par)
        object.__setattr__(self, "off_col", np.asarray(self.off_col, dtype=float))
        if self.a00 == 0.0:
            raise ApproxError("transverse scalar a00 vanishes")
        if abs(np.linalg.det(A_par)) < 1e-12 * max(1.0, np.max(np.abs(A_par)) ** A_par.shape[0]):
            raise ApproxError("horizontal block A_par is singular")

    @property
    def d(self) -> int:
        return self.A_par.shape[0]

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.d + 1, self.d + 1))
        out[0, 0] = self.a00
        out[1:, 1:] = self.A_par
        return out

    def apply(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        out[..., 0] = self.a00 * X[..., 0]
        out[..., 1:] = X[..., 1:] @ self.A_par.T
        return out


def tangent_block_matrix(phi: PolyMap, hm_src: HeisenbergMap, hm_dst: HeisenbergMap, m) -> np.ndarray:
    """Full differential of eps' . phi . eps^-1 at 0: A'(phi m) Dphi(m) A(m)^-1."""
    return hm_dst.A @ phi.jacobian(np.asarray(m, dtype=float)) @ np.linalg.inv(hm_src.A)


def tangent_map_H(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, m) -> TangentMapH:
    """The graded tangent map of phi at m, frames normalized on both sides;
    raises when the top row of the differential exceeds 1e-8 relative (phi
    does not preserve H at m)."""
    m = np.asarray(m, dtype=float)
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))
    C = tangent_block_matrix(phi, hm_src, hm_dst, m)
    upper = float(np.max(np.abs(C[0, 1:]), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(C))))
    if upper > 1e-8 * scale:
        raise ApproxError(f"map does not preserve H at {m}: top-row residual {upper:.3e}")
    return TangentMapH(float(C[0, 0]), C[1:, 1:].copy(), C[1:, 0].copy(), upper)


def conjugated_jets(
    phi: PolyMap,
    frame_src: HFrame,
    frame_dst: HFrame,
    m,
    order: int = 3,
) -> PolyMap:
    """Jets at 0 of eps'_{phi(m)} . phi . eps_m^-1, all factors exact polynomials."""
    m = np.asarray(m, dtype=float)
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))
    inner = hm_src.inverse_polymap(order)
    mid = phi.with_order(order).compose(inner, exact=True)
    return hm_dst.as_polymap(order).compose(mid, exact=True)


def horizontal_quadratic(conj: PolyMap) -> np.ndarray:
    """Symmetric matrix c_jk of the x_j x_k terms (j, k >= 1) in the
    transverse component, normalized as second partial derivatives."""
    dim = conj.dim_in
    c = np.zeros((dim - 1, dim - 1))
    for j in range(1, dim):
        for k in range(j, dim):
            e = tuple((1 if i == j else 0) + (1 if i == k else 0) for i in range(dim))
            coeff = float(conj.coeffs[0, conj.space.index[e]])
            if j == k:
                c[j - 1, j - 1] = 2.0 * coeff
            else:
                c[j - 1, k - 1] = coeff
                c[k - 1, j - 1] = coeff
    return c


def displacement_map(phi: PolyMap, m) -> PolyMap:
    """z -> phi(m + z) - phi(m) as an exact polynomial map with zero constant."""
    table = phi.rebased(m).coeffs.copy()
    table[:, 0] = 0.0
    return PolyMap._of(phi.space, table, np.zeros(phi.dim_in))


def diffeo_expansion_check(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, m, ts) -> list:
    """Residual trace of the graded rescalings of phi at m: for each t in ts,
    the sup over the grid `sample_box(0.6, 3, dim)` of

        t^-1.(eps' . phi . eps^-1)(t.x) - phi'_H(0) x,

    which the tangent approximation claims is O(t); the caller fits it.

    The sweep works on exact closed-form maps in displacement coordinates
    around m and phi(m): this avoids large-minus-large cancellation, leaving
    float noise of order eps/t in the transverse slot, below the zero floor
    for maps whose conjugation is exactly linear.  The grid points of all t
    are one (T, k, dim) batch, each t's points one product, so the trace is
    bit for bit a loop's; the first t whose samples leave the domain raises.
    """
    m = np.asarray(m, dtype=float)
    ts = np.asarray(ts, dtype=float)
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))

    C = tangent_block_matrix(phi, hm_src, hm_dst, m)
    tangent = TangentMapH(float(C[0, 0]), C[1:, 1:].copy(), C[1:, 0].copy(), float(np.max(np.abs(C[0, 1:]))))

    pts = sample_box(0.6, 3, frame_src.dim)
    pre_disp = hm_src.inverse_displacement(dilate(ts[:, None], pts))
    n = frame_src.domain.leading_inside(m + pre_disp)
    if n < len(ts):
        raise FrameError(f"sample leaves the source domain at t={ts[n]}; shrink the box")
    img_disp = displacement_map(phi, m).eval_many(pre_disp)
    expr = dilate_inv(ts[:, None], hm_dst.forward_from_displacement(img_disp))
    return np.abs(expr - tangent.apply(pts)).max(axis=(1, 2)).tolist()
