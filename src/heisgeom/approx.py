"""Tangent approximation of Heisenberg diffeomorphisms.

Over the frames at m and phi(m) the differential of phi is the one tangent
block C = basis'(phi m)^-1 Dphi(m) basis(m) of `fields.tangent_blocks`; it
is also the differential at 0 of phi conjugated into Heisenberg coordinates.
For an H-preserving map it is block triangular, and dropping the transverse
column gives the graded tangent map

    phi'_H(0) = diag(a00, A_par),

a fiberwise group isomorphism (`graded_part`, which checks invertibility
with `fields.check_nonsingular`, the one determinant guard).  The
approximation statement checked here: the conjugated map has no purely
horizontal quadratic terms in its transverse component, and the graded
rescalings t^-1 . conj(t.x) converge to phi'_H(0) x at rate O(t), locally
uniformly in the base point.
`diffeo_expansion_check` is the one rescaling sweep of phi, over all base
points at once: the diffeo checks run it over a box of samples, and the
groupoid's transition limit at one sample X per point, since that limit is
this statement read in the groupoid's charts.
"""

from __future__ import annotations

import numpy as np

from .coords import heisenberg_map
from .fields import HFrame, check_nonsingular, tangent_blocks
from .group import dilate, dilate_inv
from .jets import PolyMap, broadcast


def graded_part(C, x) -> np.ndarray:
    """The graded tangent map phi'_H = diag(a00, A_par) of each tangent block
    C (..., dim, dim) of `fields.tangent_blocks` at the points x (..., dim):
    the top row and the transverse column C[1:, 0] are dropped.  A map that
    is not a fibrewise group isomorphism at some point, a00 = 0 or A_par
    singular there, fails `check_nonsingular`, which names that point."""
    C = np.asarray(C, dtype=float)
    out = np.zeros_like(C)
    out[..., 0, 0] = C[..., 0, 0]
    out[..., 1:, 1:] = C[..., 1:, 1:]
    check_nonsingular(out, x, "graded tangent map", "phi'_H")
    return out


def conjugated_jets(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, m, order: int) -> PolyMap:
    """Jets at 0 of eps'_{phi(m)} . phi . eps_m^-1, all factors exact
    polynomials; a batch of points m (P, dim) gives one map per point."""
    m = np.asarray(m, dtype=float)
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))
    inner = hm_src.inverse_polymap(order)
    mid = phi.with_order(order).compose(inner)
    return hm_dst.as_polymap(order).compose(mid)


def horizontal_quadratic(conj: PolyMap) -> np.ndarray:
    """Symmetric matrix c_jk of the x_j x_k terms (j, k >= 1) in the
    transverse component, normalized as second partial derivatives; one per
    map of a batch."""
    cols = conj.space.quadratic_columns()[1:, 1:]
    return conj.coeffs[..., 0, cols] * (1.0 + np.eye(len(cols)))


def displacement_map(phi: PolyMap, m) -> PolyMap:
    """z -> phi(m + z) - phi(m) as an exact polynomial map, one per point of m."""
    table = phi.rebased(m).coeffs.copy()
    table[..., 0] = 0.0
    return PolyMap._of(phi.space, table, np.zeros(np.shape(m)))


def diffeo_expansion_check(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, m, pts, ts) -> list:
    """Residual trace of the graded rescalings of phi at m: for each t in ts,
    the componentwise sup over the samples pts of

        t^-1.(eps' . phi . eps^-1)(t.x) - phi'_H(0) x,

    which the tangent approximation claims is O(t) componentwise (the
    pseudo-norm gauge would turn a transverse t into sqrt(t)); the caller
    fits it.  A batch m (P, dim) gives one trace per point, the samples
    (k, dim) shared or (P, k, dim).

    The sweep works on exact closed-form maps in displacement coordinates
    around m and phi(m): this avoids large-minus-large cancellation, leaving
    float noise of order eps/t in the transverse slot, below the zero floor
    for maps whose conjugation is exactly linear.  The samples of all points
    and t are one (P, T, k, dim) batch, each point's and t's samples one
    product: each trace and the `Box.require_sweep` error are a loop's.
    """
    m, pts, ts = (np.asarray(a, dtype=float) for a in (m, pts, ts))
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))
    tangent = graded_part(tangent_blocks(phi, frame_src, frame_dst, m), m)

    pts = broadcast(pts, m.shape[:-1] + pts.shape[-2:])[..., None, :, :]  # (..., 1, k, dim)
    pre_disp = hm_src.inverse_displacement(dilate(ts[:, None], pts))
    frame_src.domain.require_sweep(ts, ("sample leaves the source domain at t={t}", m[..., None, None, :] + pre_disp))
    mono, disp = phi.space.monomials(pre_disp), displacement_map(phi, m).coeffs[..., None, :, :, None]
    img_disp = np.concatenate([mono @ disp[..., i, :, :] for i in range(phi.dim_out)], axis=-1)  # row by row, as eval_many
    expr = dilate_inv(ts[:, None], hm_dst.forward_from_displacement(img_disp))
    return np.abs(expr - pts @ tangent.mT[..., None, :, :]).max(axis=(-2, -1)).tolist()
