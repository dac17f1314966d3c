"""The tangent groupoid of a Heisenberg chart.

G_H M is M x M x (0, 1] glued to the tangent group bundle GM at t = 0.  In a
chart, elements are three arrays (p, v, t) of shapes (..., dim), (..., dim)
and (...): a row with t > 0 is the pair (p, q = v, t), a row with t == 0 the
fibre point (p, X = v) of GM, with X stored frame-relative to the chart.
Units are pairs (m, t).  In that storage the chart map gamma is the
identity on (x, X) at t = 0, and for t > 0

    gamma(x, X, t) = (x, eps_x^-1(t.X), t);

composition, transition maps and the t -> 0 limits are all evaluated
through the exact closed forms of eps.  The graded rescaling sweeps work in
displacement coordinates to keep float cancellation at O(eps/t) instead of
O(eps/t^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import displacement_map, tangent_block_matrix
from .coords import HeisenbergMap, heisenberg_map
from .fields import FrameError, HFrame
from .group import TangentGroup, bilinear_mul, dilate, dilate_inv, levi_mul, per_map
from .jets import PolyMap


class CompositionError(ValueError):
    """Source/range mismatch of a would-be composable pair."""


def _arrays(*xs):
    return tuple(np.asarray(x, dtype=float) for x in xs)


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for stacks of matrices and vectors."""
    return (M @ x[..., None])[..., 0]


class GroupoidChart:
    """A Heisenberg chart of the tangent groupoid: its frame, and the
    tolerance within which composition matches a source with a range."""

    def __init__(self, frame: HFrame, point_tol: float = 1e-9):
        self.frame = frame
        self.point_tol = point_tol

    @property
    def dim(self) -> int:
        return self.frame.dim

    def eps(self, x) -> HeisenbergMap:
        """Heisenberg coordinates at x, one point or a batch."""
        return heisenberg_map(self.frame, x)

    # -- groupoid structure ----------------------------------------------
    def iota(self, m, t):
        """The units (m, t) as elements."""
        m, t = _arrays(m, t)
        if np.any(t < 0):
            raise ValueError("unit inclusion needs t >= 0")
        return m, np.where(t[..., None] > 0, m, 0.0), t

    def range_of(self, e):
        p, _, t = _arrays(*e)
        return p, t

    def source_of(self, e):
        p, v, t = _arrays(*e)
        return np.where(t[..., None] > 0, v, p), t

    def inverse(self, e):
        p, v, t = _arrays(*e)
        inner = t[..., None] > 0
        return np.where(inner, v, p), np.where(inner, p, -v), t

    def compose(self, e1, e2):
        """e1 e2 row by row.  Pairs compose as (p, m, t)(m, q, t) = (p, q, t);
        fibre points over p multiply in the tangent group at p: x + y, with
        1/2 x'^t L(p) y' added to slot 0."""
        (p1, v1, t1), (p2, v2, t2) = _arrays(*e1), _arrays(*e2)
        at0 = t1 == 0
        if np.any(at0 != (t2 == 0)):
            raise CompositionError("cannot compose boundary with interior elements")
        if np.any(t1 != t2):
            raise CompositionError("deformation parameters differ")
        if np.any(np.max(np.abs(self.source_of(e1)[0] - p2), axis=-1) > self.point_tol):
            raise CompositionError("middle points do not match")
        v = v2.copy()
        v[at0] = levi_mul(self.eps(p1[at0]).levi, v1[at0], v2[at0])
        return p1, v, t1

    # -- boundary chart ----------------------------------------------------
    def gamma(self, x, X, t):
        """Chart into the groupoid; at t = 0 the fiber coordinates are the
        frame-relative ones, so the boundary map is the identity on (x, X)."""
        x, X, t = _arrays(x, X, t)
        inside = self.frame.domain.contains(x)
        if not np.all(inside):
            raise FrameError(f"chart point {x[~inside][0]} outside the domain")
        if np.any(t < 0):
            raise ValueError("gamma needs t >= 0")
        inner = t > 0
        v = X.copy()
        v[inner] = q = self.eps(x[inner]).inverse(dilate(t[inner], X[inner]))
        inside = self.frame.domain.contains(q)
        if not np.all(inside):
            raise FrameError(f"gamma image {q[~inside][0]} outside the domain (t={t[inner][~inside][0]})")
        return x, v, t

    def gamma_inv(self, e):
        p, v, t = _arrays(*e)
        inner = t > 0
        X = v.copy()
        X[inner] = dilate_inv(t[inner], self.eps(p[inner]).forward(v[inner]))
        return p, X, t

    # -- range/source in chart coordinates ---------------------------------
    def rs_jacobians(self, x, X, t: float):
        """Jacobian blocks d(x,t) r and d(X,t) s of the chart-coordinate
        range and source maps r = (x, t), s = (eps_x^-1(t.X), t)."""
        x = np.asarray(x, dtype=float)
        X = np.asarray(X, dtype=float)
        dim = self.dim
        Jr = np.eye(dim + 1)
        inv_pm = self.eps(x).inverse_polymap(2)  # eps_x^-1 is quadratic, so order 2 is exact
        w = dilate(t, X)
        Dinv = inv_pm.jacobian(w)
        wvec = np.ones(dim)
        wvec[0] = 2.0
        dwdX = np.diag(t**wvec)
        dwdt = wvec * t ** (wvec - 1.0) * X
        Js = np.zeros((dim + 1, dim + 1))
        Js[:dim, :dim] = Dinv @ dwdX
        Js[:dim, dim] = Dinv @ dwdt
        Js[dim, dim] = 1.0
        return Jr, Js


# -- transitions -------------------------------------------------------------


def _graded_part(C: np.ndarray) -> np.ndarray:
    out = np.zeros_like(C)
    out[..., 0, 0] = C[..., 0, 0]
    out[..., 1:, 1:] = C[..., 1:, 1:]
    return out


def tangent_matrix(src: GroupoidChart, dst: GroupoidChart, phi: PolyMap, x) -> np.ndarray:
    """Frame-relative graded tangent matrix of phi at x (..., dim): the
    block-diagonal part of basis'(phi x)^-1 Dphi(x) basis(x)."""
    x = np.asarray(x, dtype=float)
    return _graded_part(tangent_block_matrix(phi, src.eps(x), dst.eps(phi.eval(x)), x))


def transition_rate_check(src: GroupoidChart, dst: GroupoidChart, phi: PolyMap, x, X, ts) -> list:
    """Residual trace of the transition X'(t) -> phi'_H(x) X, measured in
    displacement space: for each t in ts, the componentwise sup norm of
    X'(t) - phi'_H(x) X.

    The convergence statement is componentwise O(t); the pseudo-norm gauge
    would turn a transverse t into sqrt(t).  The caller fits the trace.  Like
    every sweep here, it runs over the whole grid as (T, k, dim) points with
    one product per t, so its trace is bit for bit that of a loop over t,
    and the first t in grid order whose sample leaves the domain raises."""
    x, X, ts = _arrays(x, X, ts)
    hm_src = src.eps(x)
    hm_dst = dst.eps(phi.eval(x))
    target = _graded_part(tangent_block_matrix(phi, hm_src, hm_dst, x)) @ X
    pre = hm_src.inverse_displacement(dilate(ts[:, None], X))
    n = src.frame.domain.leading_inside(x + pre)
    if n < len(ts):
        raise FrameError(f"transition sample leaves the source domain at t={ts[n]}")
    img = displacement_map(phi, x).eval_many(pre)
    return _sup_per_t(dilate_inv(ts[:, None], hm_dst.forward_from_displacement(img)) - target)


def _sup_per_t(diff: np.ndarray) -> list:
    """The sup norm of each t's rows of diff (T, k, dim), as floats."""
    return np.abs(diff).max(axis=(1, 2)).tolist()


# -- continuity --------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityReport:
    """Componentwise residual trace of the boundary-convergence condition."""

    ts: tuple
    residuals: tuple
    tol: float

    @property
    def converged(self) -> bool:
        return self.residuals[-1] < self.tol

    @property
    def diverged(self) -> bool:
        return self.residuals[-1] > 10.0 * max(self.residuals[0], self.tol)


def continuity_check(hm: HeisenbergMap, qs, ts, target_X, tol: float = 1e-6) -> ContinuityReport:
    """Checks t_n^-1 . eps_p(q_n) -> X along a sequence (p, q_n, t_n) with a
    fixed base point p; hm is eps_p.  qs holds the points of each t, (T, dim)
    or (T, k, dim), each t's points one product."""
    qs, ts, target_X = _arrays(qs, ts, target_X)
    residuals = _sup_per_t(dilate_inv(ts[:, None], hm.forward(per_map(qs, ts.shape))) - target_X)
    return ContinuityReport(tuple(ts.tolist()), tuple(residuals), tol)


def continuity_chart_independence(src, dst, phi: PolyMap, p, qs, ts, target_X, tol: float = 1e-6) -> ContinuityReport:
    """Re-checks the same convergent sequence through a second chart: the
    mapped sequence must converge to the graded-tangent image of X."""
    p, qs, target_X = _arrays(p, qs, target_X)
    mapped = phi.eval(per_map(qs, (len(ts),)))
    return continuity_check(dst.eps(phi.eval(p)), mapped, ts, tangent_matrix(src, dst, phi, p) @ target_X, tol)


# -- composition limit --------------------------------------------------------


def composition_limit_check(chart: GroupoidChart, x, X, Y, ts) -> list:
    """Residual trace of the interior composition read in the chart,

        expr(t) = t^-1 . eps_x . eps_{eps_x^-1(t.X)}^-1 (t.Y),

    against the fiber product X.Y: for each t in ts, the componentwise sup
    norm of expr(t) - X.Y.  The claim is O(t) decay (exactly zero when the
    Levi matrix vanishes and the frame is flat); the caller fits the trace.
    The middle points z of all t take one batched eps.  The first t at which
    the middle point or the endpoint leaves the domain raises, the middle
    point first."""
    x, X, Y, ts = _arrays(x, X, Y, ts)
    domain = chart.frame.domain
    hm_x = chart.eps(x)
    target = TangentGroup(hm_x.levi).mul(X, Y)
    disp_z = hm_x.inverse_displacement(dilate(ts[:, None], X))
    z = x + disp_z
    n = domain.leading_inside(z)
    disp_q = chart.eps(z[:n, 0]).inverse_displacement(dilate(ts[:n], Y))[:, None]
    n_end = domain.leading_inside(z[:n] + disp_q)
    if n_end < n:
        raise FrameError(f"endpoint leaves the domain at t={ts[n_end]}; shrink the grid")
    if n < len(ts):
        raise FrameError(f"middle point leaves the domain at t={ts[n]}; shrink the grid")
    return _sup_per_t(dilate_inv(ts[:, None], hm_x.forward_from_displacement(disp_z + disp_q)) - target)


def psi_composition_check(chart: GroupoidChart, u, v, w, ts) -> list:
    """The same limit at the privileged-coordinate level: the residual trace
    against the bilinear law x_0 + y_0 + sum b_kj x_j y_k of the
    dilation-limit group, for each t in ts; the caller fits it."""
    u, v, w, ts = _arrays(u, v, w, ts)
    hm_u = chart.eps(u)
    disp_z = dilate(ts[:, None], v) @ hm_u.A_inv.T
    z = u + disp_z
    n = chart.frame.domain.leading_inside(z)
    hm_z = chart.eps(z[:n, 0])
    if n < len(ts):
        raise FrameError(f"middle point leaves the domain at t={ts[n]}; shrink the grid")
    disp_q = dilate(ts[:, None], w) @ hm_z.A_inv.mT
    expr = dilate_inv(ts[:, None], (disp_z + disp_q) @ hm_u.A.T)
    return _sup_per_t(expr - bilinear_mul(hm_u.b, v, w))


# -- functoriality ------------------------------------------------------------


class GroupoidMorphism:
    """Action of a Heisenberg diffeomorphism on the tangent groupoid."""

    def __init__(self, phi: PolyMap, phi_inv: PolyMap | None, src: GroupoidChart, dst: GroupoidChart):
        self.phi = phi
        self.phi_inv = phi_inv
        self.src = src
        self.dst = dst

    def tangent(self, p) -> np.ndarray:
        return tangent_matrix(self.src, self.dst, self.phi, p)

    def apply(self, e):
        """Pairs go to (phi p, phi q, t), fibre points to (phi p, T(p) X, 0)."""
        p, v, t = _arrays(*e)
        at0 = t == 0
        w = self.phi.eval(v)  # right on the pair rows; the fibre rows are replaced
        w[at0] = _matvec(self.tangent(p[at0]), v[at0])
        return self.phi.eval(p), w, t

    def apply_unit(self, u):
        m, t = _arrays(*u)
        return self.phi.eval(m), t

    def gamma_precomposed(self, x, X, t):
        """The chart gamma_{kappa . phi} of the source groupoid: the target
        chart's normalization pulled back through phi."""
        if self.phi_inv is None:
            raise ValueError("needs the exact inverse of phi")
        x, X, t = _arrays(x, X, t)
        at0 = t == 0
        v = self.phi_inv.eval(self.dst.eps(x).inverse(dilate(t, X)))  # the fibre rows are replaced
        v[at0] = _matvec(tangent_matrix(self.dst, self.src, self.phi_inv, x[at0]), X[at0])
        return self.phi_inv.eval(x), v, t
