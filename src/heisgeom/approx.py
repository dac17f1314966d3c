"""Tangent approximation of Heisenberg diffeomorphisms.

Over the frames at m and phi(m) the differential of phi is the one tangent
block C = basis'(phi m)^-1 Dphi(m) basis(m) of `fields.tangent_blocks`; it
is also the differential at 0 of phi conjugated into Heisenberg coordinates.
For an H-preserving map it is block triangular, and dropping the transverse
column gives the graded tangent map

    phi'_H(0) = diag(a00, A_par),

a fiberwise group isomorphism (`graded_part`).  The approximation statement
checked here: the conjugated map has no purely horizontal quadratic terms
in its transverse component, and the graded rescalings t^-1 . conj(t.x)
converge to phi'_H(0) x at rate O(t), locally uniformly in the base point.
`diffeo_expansion_check` is the one rescaling sweep of phi: the diffeo
checks run it over a box of samples, and the groupoid's transition limit at
one sample X, since that limit is this statement read in the groupoid's
charts.
"""

from __future__ import annotations

import numpy as np

from .coords import heisenberg_map
from .fields import FrameError, HFrame, tangent_blocks
from .group import dilate, dilate_inv
from .jets import PolyMap


class ApproxError(ValueError):
    """Map fails the structural requirements of the tangent approximation."""


def graded_part(C) -> np.ndarray:
    """The graded tangent map phi'_H = diag(a00, A_par) of each tangent block
    C (..., dim, dim) of `fields.tangent_blocks`: the top row and the
    transverse column C[1:, 0] are dropped.  Raises when a00 vanishes or
    A_par is singular at any point, so a degenerate map is never read as a
    fibrewise group isomorphism."""
    C = np.asarray(C, dtype=float)
    A_par = C[..., 1:, 1:]
    if np.any(C[..., 0, 0] == 0.0):
        raise ApproxError("transverse scalar a00 vanishes")
    scale = np.maximum(1.0, np.max(np.abs(A_par), axis=(-2, -1))) ** A_par.shape[-1]
    if np.any(np.abs(np.linalg.det(A_par)) < 1e-12 * scale):
        raise ApproxError("horizontal block A_par is singular")
    out = np.zeros_like(C)
    out[..., 0, 0] = C[..., 0, 0]
    out[..., 1:, 1:] = A_par
    return out


def conjugated_jets(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, m, order: int) -> PolyMap:
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
    q = conj.coeffs[0, conj.space.quadratic_columns()[1:, 1:]]
    return q * (1.0 + np.eye(len(q)))


def displacement_map(phi: PolyMap, m) -> PolyMap:
    """z -> phi(m + z) - phi(m) as an exact polynomial map with zero constant."""
    table = phi.rebased(m).coeffs.copy()
    table[:, 0] = 0.0
    return PolyMap._of(phi.space, table, np.zeros(phi.dim_in))


def diffeo_expansion_check(phi: PolyMap, frame_src: HFrame, frame_dst: HFrame, m, pts, ts) -> list:
    """Residual trace of the graded rescalings of phi at m: for each t in ts,
    the componentwise sup over the samples pts (k, dim) of

        t^-1.(eps' . phi . eps^-1)(t.x) - phi'_H(0) x,

    which the tangent approximation claims is O(t) componentwise (the
    pseudo-norm gauge would turn a transverse t into sqrt(t)); the caller
    fits it.

    The sweep works on exact closed-form maps in displacement coordinates
    around m and phi(m): this avoids large-minus-large cancellation, leaving
    float noise of order eps/t in the transverse slot, below the zero floor
    for maps whose conjugation is exactly linear.  The samples of all t are
    one (T, k, dim) batch, each t's samples one product, so the trace is bit
    for bit a loop's; the first t whose samples leave the domain raises.
    """
    m, pts, ts = (np.asarray(a, dtype=float) for a in (m, pts, ts))
    hm_src = heisenberg_map(frame_src, m)
    hm_dst = heisenberg_map(frame_dst, phi.eval(m))
    tangent = graded_part(tangent_blocks(phi, frame_src, frame_dst, m))

    pre_disp = hm_src.inverse_displacement(dilate(ts[:, None], pts))
    n = frame_src.domain.leading_inside(m + pre_disp)
    if n < len(ts):
        raise FrameError(f"sample leaves the source domain at t={ts[n]}")
    img_disp = displacement_map(phi, m).eval_many(pre_disp)
    expr = dilate_inv(ts[:, None], hm_dst.forward_from_displacement(img_disp))
    return np.abs(expr - pts @ tangent.T).max(axis=(1, 2)).tolist()
