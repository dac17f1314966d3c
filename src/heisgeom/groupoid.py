"""The tangent groupoid of a Heisenberg chart.

G_H M is M x M x (0, 1] glued to the tangent group bundle GM at t = 0.  In a
chart, elements are three arrays (p, v, t) of shapes (..., dim), (..., dim)
and (...): a row with t > 0 is the pair (p, q = v, t), a row with t == 0 the
fibre point (p, X = v) of GM, with X stored frame-relative to the chart.
Units are pairs (m, t).  In that storage the chart map gamma is the
identity on (x, X) at t = 0, and for t > 0

    gamma(x, X, t) = (x, eps_x^-1(t.X), t);

composition, transition maps and the t -> 0 limits are all evaluated
through the exact closed forms of eps.  At t = 0 a diffeomorphism acts on
the fibres through its graded tangent map, the block-diagonal part of the
one tangent block basis'(phi x)^-1 Dphi(x) basis(x) of
`fields.tangent_blocks`.  The transition limit X'(t) -> phi'_H(x) X of
these charts is the tangent approximation of phi, so it is
`approx.diffeo_expansion_check` at the one sample X.  The graded rescaling
sweeps work in displacement coordinates to keep float cancellation at
O(eps/t) instead of O(eps/t^2).  Every sweep, the continuity sweeps
included, returns its residual trace, one float per t; the suites fit it or
judge it.
"""

from __future__ import annotations

import numpy as np

from .approx import graded_part
from .coords import HeisenbergMap, heisenberg_map
from .fields import HFrame, tangent_blocks
from .group import bilinear_mul, dilate, dilate_inv, levi_mul, weight_vector
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
        1/2 x'^t L(p) y' added to slot 0.  e2 may stack right factors of e1,
        (..., n) rows against its n, with L evaluated once for all of them."""
        (p1, v1, t1), (p2, v2, t2) = _arrays(*e1), _arrays(*e2)
        at0 = t1 == 0
        if np.any(at0 != (t2 == 0)):
            raise CompositionError("cannot compose boundary with interior elements")
        if np.any(t1 != t2):
            raise CompositionError("deformation parameters differ")
        if np.any(np.max(np.abs(self.source_of(e1)[0] - p2), axis=-1) > self.point_tol):
            raise CompositionError("middle points do not match")
        v = v2.copy()
        v[..., at0, :] = levi_mul(self.eps(p1[at0]).levi, v1[at0], v2[..., at0, :])
        return p1, v, t1

    # -- boundary chart ----------------------------------------------------
    def gamma(self, x, X, t):
        """Chart into the groupoid; at t = 0 the fiber coordinates are the
        frame-relative ones, so the boundary map is the identity on (x, X)."""
        x, X, t = _arrays(x, X, t)
        self.frame.domain.require(x, "chart point", "frame domain")
        if np.any(t < 0):
            raise ValueError("gamma needs t >= 0")
        inner = t > 0
        v = X.copy()
        q = self.eps(x[inner]).inverse(dilate(t[inner], X[inner]))
        v[inner] = self.frame.domain.require(q, "gamma image", "frame domain")
        return x, v, t

    def gamma_inv(self, e):
        p, v, t = _arrays(*e)
        inner = t > 0
        X = v.copy()
        X[inner] = dilate_inv(t[inner], self.eps(p[inner]).forward(v[inner]))
        return p, X, t

    # -- range/source in chart coordinates ---------------------------------
    def source_jacobian(self, x, X, t):
        """Jacobian d(X,t) s of the chart-coordinate source map s =
        (eps_x^-1(t.X), t), at one (x, X, t) or a batch.  The range map
        r = (x, t) is the identity here, so s alone carries the submersion claim."""
        x, X, t = _arrays(x, X, t)
        dim, w = self.dim, weight_vector(self.dim)
        Dinv = self.eps(x).inverse_polymap(2).jacobian(dilate(t, X))  # eps_x^-1 is quadratic: order 2 is exact
        Js = np.zeros(t.shape + (dim + 1, dim + 1))
        Js[..., :dim, :dim] = Dinv @ (np.eye(dim) * t[..., None, None] ** w)  # d(t.X)/dX = diag(t^w)
        Js[..., :dim, dim] = (Dinv @ (w * t[..., None] ** (w - 1.0) * X)[..., None])[..., 0]
        Js[..., dim, dim] = 1.0
        return Js


def _sup_per_t(diff: np.ndarray) -> list:
    """The sup norm of each t's rows of diff (..., T, k, dim), as floats."""
    return np.abs(diff).max(axis=(-2, -1)).tolist()


# -- continuity --------------------------------------------------------------


def continuity_check(hm: HeisenbergMap, qs, ts, target_X) -> list:
    """Residual trace of t_n^-1 . eps_p(q_n) -> X along a sequence
    (p, q_n, t_n) with a fixed base point p; hm is eps_p.  qs holds the
    points of each t, (T, dim) or (T, k, dim), each t's points one product."""
    qs, ts, target_X = _arrays(qs, ts, target_X)
    return _sup_per_t(dilate_inv(ts[:, None], hm.forward(qs.reshape(len(ts), -1, qs.shape[-1]))) - target_X)


def continuity_chart_independence(src, dst, phi: PolyMap, p, qs, ts, target_X) -> list:
    """The trace of the same sequence read through a second chart: the
    mapped sequence must converge to the graded-tangent image of X."""
    p, qs, target_X = _arrays(p, qs, target_X)
    mapped = phi.eval_many(qs.reshape(len(ts), -1, qs.shape[-1]))
    target = graded_part(tangent_blocks(phi, src.frame, dst.frame, p), p) @ target_X
    return continuity_check(dst.eps(phi.eval(p)), mapped, ts, target)


# -- composition limit --------------------------------------------------------


def composition_limit_check(chart: GroupoidChart, x, X, Y, ts) -> list:
    """Residual trace of the interior composition read in the chart,

        expr(t) = t^-1 . eps_x . eps_{eps_x^-1(t.X)}^-1 (t.Y),

    against the fiber product X.Y: for each t in ts, the componentwise sup
    norm of expr(t) - X.Y.  The claim is O(t) decay (exactly zero when the
    Levi matrix vanishes and the frame is flat); the caller fits the trace.
    A batch of x, X and Y (P, dim) gives one trace per point, its middle
    points z one batched eps.  `Box.require_sweep` raises the loop's error,
    the middle point tested before the endpoint."""
    x, X, Y, ts = _arrays(x, X, Y, ts)
    domain, at = chart.frame.domain, x[..., None, None, :]
    hm_x = chart.eps(x)
    disp_z = hm_x.inverse_displacement(dilate(ts[:, None], X[..., None, None, :]))  # (..., T, 1, dim)
    z = at + disp_z
    # x stands in for a middle point outside the domain, which the guard names first
    hm_z = chart.eps(np.where(domain.contains(z)[..., None], z, at)[..., 0, :])
    disp_q = hm_z.inverse_displacement(dilate(ts, Y[..., None, :]))[..., None, :]
    leaves = "leaves the domain at t={t}; shrink the grid"
    domain.require_sweep(ts, ("middle point " + leaves, z), ("endpoint " + leaves, z + disp_q))
    expr = dilate_inv(ts[:, None], hm_x.forward_from_displacement(disp_z + disp_q))
    return _sup_per_t(expr - levi_mul(hm_x.levi, X, Y)[..., None, None, :])


def psi_composition_check(chart: GroupoidChart, u, v, w, ts) -> list:
    """The same limit at the privileged-coordinate level: the residual trace
    against the bilinear law x_0 + y_0 + sum b_kj x_j y_k of the
    dilation-limit group, for each t in ts and point u; the caller fits it."""
    u, v, w, ts = _arrays(u, v, w, ts)
    hm_u = chart.eps(u)
    disp_z = dilate(ts[:, None], v[..., None, None, :]) @ hm_u.A_inv.mT[..., None, :, :]  # (..., T, 1, dim)
    z = u[..., None, None, :] + disp_z
    chart.frame.domain.require_sweep(ts, ("middle point leaves the domain at t={t}; shrink the grid", z))
    disp_q = dilate(ts[:, None], w[..., None, None, :]) @ chart.eps(z[..., 0, :]).A_inv.mT
    expr = dilate_inv(ts[:, None], (disp_z + disp_q) @ hm_u.A.mT[..., None, :, :])
    return _sup_per_t(expr - bilinear_mul(hm_u.b, v, w)[..., None, None, :])


# -- functoriality ------------------------------------------------------------


class GroupoidMorphism:
    """Action of a Heisenberg diffeomorphism on the tangent groupoid; rows map as one block (`eval_many`)."""

    def __init__(self, phi: PolyMap, phi_inv: PolyMap | None, src: GroupoidChart, dst: GroupoidChart):
        self.phi = phi
        self.phi_inv = phi_inv
        self.src = src
        self.dst = dst

    def apply(self, e):
        """Pairs go to (phi p, phi q, t), fibre points to (phi p, T(p) X, 0)."""
        p, v, t = _arrays(*e)
        at0 = t == 0
        w = self.phi.eval_many(v)  # right on the pair rows; the fibre rows are replaced
        p0 = p[at0]
        T = graded_part(tangent_blocks(self.phi, self.src.frame, self.dst.frame, p0), p0)
        w[at0] = _matvec(T, v[at0])
        return self.phi.eval_many(p), w, t

    def apply_unit(self, u):
        m, t = _arrays(*u)
        return self.phi.eval_many(m), t

    def gamma_precomposed(self, x, X, t):
        """The chart gamma_{kappa . phi} of the source groupoid: the target
        chart's normalization pulled back through phi."""
        if self.phi_inv is None:
            raise ValueError("needs the exact inverse of phi")
        x, X, t = _arrays(x, X, t)
        at0 = t == 0
        v = self.phi_inv.eval_many(self.dst.eps(x).inverse(dilate(t, X)))  # the fibre rows are replaced
        x0 = x[at0]
        T = graded_part(tangent_blocks(self.phi_inv, self.dst.frame, self.src.frame, x0), x0)
        v[at0] = _matvec(T, X[at0])
        return self.phi_inv.eval_many(x), v, t
