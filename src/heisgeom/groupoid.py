"""The tangent groupoid of a Heisenberg chart.

Elements are either interior pairs (p, q, t) with t > 0 or boundary points
(p, X) of the tangent-group bundle, with X stored frame-relative to the
chart.  In that storage the boundary chart map gamma is the identity on
(x, X), the interior chart map is

    gamma(x, X, t) = (x, eps_x^-1(t.X), t),

and composition, transition maps and the t -> 0 limits are all evaluated
through the exact closed forms of eps.  The graded rescaling sweeps work in
displacement coordinates to keep float cancellation at O(eps/t) instead of
O(eps/t^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import displacement_map
from .coords import HeisenbergMap, heisenberg_map
from .fields import FrameError, HFrame
from .group import TangentGroup, bilinear_mul, dilate, dilate_inv, pseudo_norm
from .jets import PolyMap
from .rates import RateReport, default_t_grid, fit_report


class CompositionError(ValueError):
    """Source/range mismatch of a would-be composable pair."""


@dataclass(frozen=True)
class Interior:
    """Pair-groupoid element (p, q, t), t > 0."""

    p: np.ndarray
    q: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if not self.t > 0:
            raise ValueError(f"interior element needs t > 0, got {self.t}")


@dataclass(frozen=True)
class Boundary:
    """Tangent-group element (p, X), frame-relative fiber coordinates."""

    p: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))


@dataclass(frozen=True)
class UnitElement:
    m: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        if self.t < 0:
            raise ValueError("unit element needs t >= 0")


GroupoidElement = Interior | Boundary


class GroupoidChart:
    """A Heisenberg chart with memoized per-point normalization data.

    The eps cache is keyed on the base point quantized at 1e-12.
    """

    def __init__(self, frame: HFrame, name: str = "chart", point_tol: float = 1e-9):
        self.frame = frame
        self.name = name
        self.point_tol = point_tol
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.frame.dim

    def _key(self, x: np.ndarray):
        return tuple(np.round(np.asarray(x, dtype=float) / 1e-12).astype(np.int64).tolist())

    def eps(self, x) -> HeisenbergMap:
        key = self._key(x)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = heisenberg_map(self.frame, x)
        return hit

    def group_at(self, x) -> TangentGroup:
        return TangentGroup.from_matrix(self.eps(x).levi)

    # -- groupoid structure ----------------------------------------------
    def iota(self, m, t: float) -> GroupoidElement:
        m = np.asarray(m, dtype=float)
        if t > 0:
            return Interior(m, m, t)
        if t == 0:
            return Boundary(m, np.zeros(self.dim))
        raise ValueError("unit inclusion needs t >= 0")

    def range_of(self, e: GroupoidElement) -> UnitElement:
        if isinstance(e, Interior):
            return UnitElement(e.p, e.t)
        return UnitElement(e.p, 0.0)

    def source_of(self, e: GroupoidElement) -> UnitElement:
        if isinstance(e, Interior):
            return UnitElement(e.q, e.t)
        return UnitElement(e.p, 0.0)

    def inverse(self, e: GroupoidElement) -> GroupoidElement:
        if isinstance(e, Interior):
            return Interior(e.q, e.p, e.t)
        return Boundary(e.p, -e.X)

    def compose(self, e1: GroupoidElement, e2: GroupoidElement) -> GroupoidElement:
        if isinstance(e1, Interior) and isinstance(e2, Interior):
            if e1.t != e2.t:
                raise CompositionError(f"deformation parameters differ: {e1.t} vs {e2.t}")
            if np.max(np.abs(e1.q - e2.p)) > self.point_tol:
                raise CompositionError("middle points do not match")
            return Interior(e1.p, e2.q, e1.t)
        if isinstance(e1, Boundary) and isinstance(e2, Boundary):
            if np.max(np.abs(e1.p - e2.p)) > self.point_tol:
                raise CompositionError("boundary base points do not match")
            return Boundary(e1.p, self.group_at(e1.p).mul(e1.X, e2.X))
        raise CompositionError("cannot compose boundary with interior elements")

    # -- boundary chart ----------------------------------------------------
    def gamma(self, x, X, t: float) -> GroupoidElement:
        """Chart into the groupoid; at t = 0 the fiber coordinates are the
        frame-relative ones, so the boundary map is the identity on (x, X)."""
        x = np.asarray(x, dtype=float)
        X = np.asarray(X, dtype=float)
        if not self.frame.domain.contains(x):
            raise FrameError(f"chart point {x} outside the domain")
        if t < 0:
            raise ValueError("gamma needs t >= 0")
        if t == 0:
            return Boundary(x, X)
        q = self.eps(x).inverse(dilate(t, X))
        if not self.frame.domain.contains(q):
            raise FrameError(f"gamma image {q} outside the domain (t={t})")
        return Interior(x, q, t)

    def gamma_inv(self, e: GroupoidElement):
        if isinstance(e, Interior):
            return e.p, dilate_inv(e.t, self.eps(e.p).forward(e.q)), e.t
        return e.p, e.X, 0.0

    # -- range/source in chart coordinates ---------------------------------
    def rs_jacobians(self, x, X, t: float, order: int = 2):
        """Jacobian blocks d(x,t) r and d(X,t) s of the chart-coordinate
        range and source maps r = (x, t), s = (eps_x^-1(t.X), t)."""
        x = np.asarray(x, dtype=float)
        X = np.asarray(X, dtype=float)
        dim = self.dim
        Jr = np.eye(dim + 1)
        hm = self.eps(x)
        inv_pm = hm.inverse_polymap(order)
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


def tangent_matrix(src: GroupoidChart, dst: GroupoidChart, phi: PolyMap, x) -> np.ndarray:
    """Frame-relative graded tangent matrix of phi at x: the block-diagonal
    part of basis'(phi x)^-1 Dphi(x) basis(x)."""
    x = np.asarray(x, dtype=float)
    C = dst.eps(phi.eval(x)).A @ phi.jacobian(x) @ np.linalg.inv(src.eps(x).A)
    out = np.zeros_like(C)
    out[0, 0] = C[0, 0]
    out[1:, 1:] = C[1:, 1:]
    return out


def transition(src: GroupoidChart, dst: GroupoidChart, phi: PolyMap, x, X, t: float):
    """Chart change (x, X, t) -> (phi(x), X'(t), t); at t = 0 the fiber acts
    through the graded tangent matrix."""
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    xp = phi.eval(x)
    if t == 0:
        return xp, tangent_matrix(src, dst, phi, x) @ X, 0.0
    q = src.eps(x).inverse(dilate(t, X))
    Xp = dilate_inv(t, dst.eps(xp).forward(phi.eval(q)))
    return xp, Xp, t


def transition_rate_check(
    src: GroupoidChart,
    dst: GroupoidChart,
    phi: PolyMap,
    x,
    X,
    t_grid=None,
    slope_min: float = 0.85,
    zero_floor: float = 1e-10,
) -> tuple[RateReport, np.ndarray]:
    """Convergence X'(t) -> phi'_H(x) X measured in displacement space.

    The slope is fitted on componentwise residuals (the convergence statement
    is componentwise O(t); the pseudo-norm gauge would turn a transverse t
    into sqrt(t))."""
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    target = tangent_matrix(src, dst, phi, x) @ X
    hm_src = src.eps(x)
    hm_dst = dst.eps(phi.eval(x))
    phi_disp = displacement_map(phi, x)
    residuals = []
    for t in t_grid:
        pre = hm_src.inverse_displacement(dilate(t, X)[None, :])
        if not src.frame.domain.contains(x + pre[0]):
            raise FrameError(f"transition sample leaves the source domain at t={t}")
        img = phi_disp.eval_many(pre)
        Xp = dilate_inv(t, hm_dst.forward_from_displacement(img)[0])
        residuals.append(float(np.max(np.abs(Xp - target))))
    return fit_report(t_grid, residuals, slope_min, zero_floor=zero_floor), target


# -- continuity --------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityReport:
    """Residual trace of the boundary-convergence condition: componentwise
    residuals decide the verdict, the pseudo-norm trace is kept as the
    homogeneous gauge."""

    ts: tuple
    residuals: tuple
    pseudo_residuals: tuple
    tol: float

    @property
    def converged(self) -> bool:
        return self.residuals[-1] < self.tol

    @property
    def diverged(self) -> bool:
        return self.residuals[-1] > 10.0 * max(self.residuals[0], self.tol)


def continuity_check(chart: GroupoidChart, seq, target_X, tol: float = 1e-6) -> ContinuityReport:
    """Checks t_n^-1 . eps_{p_n}(q_n) -> X along a sequence (p_n, q_n, t_n)."""
    target_X = np.asarray(target_X, dtype=float)
    ts, residuals, pseudo = [], [], []
    for p, q, t in seq:
        val = dilate_inv(t, chart.eps(p).forward(q))
        ts.append(float(t))
        residuals.append(float(np.max(np.abs(val - target_X))))
        pseudo.append(float(pseudo_norm(val - target_X)))
    return ContinuityReport(tuple(ts), tuple(residuals), tuple(pseudo), tol)


def continuity_chart_independence(
    src: GroupoidChart,
    dst: GroupoidChart,
    phi: PolyMap,
    seq,
    p,
    target_X,
    tol: float = 1e-6,
) -> ContinuityReport:
    """Re-checks the same convergent sequence through a second chart: the
    mapped sequence must converge to the graded-tangent image of X."""
    mapped = [(phi.eval(pn), phi.eval(qn), tn) for pn, qn, tn in seq]
    target = tangent_matrix(src, dst, phi, np.asarray(p, dtype=float)) @ np.asarray(target_X, dtype=float)
    return continuity_check(dst, mapped, target, tol)


# -- composition limit --------------------------------------------------------


@dataclass(frozen=True)
class CompositionLimitReport:
    rate: RateReport  # componentwise residuals drive the slope verdict
    pseudo_residuals: tuple  # homogeneous-gauge trace of the same sweep
    target: np.ndarray


def composition_limit_check(
    chart: GroupoidChart,
    x,
    X,
    Y,
    t_grid=None,
    slope_min: float = 0.85,
    zero_floor: float = 1e-10,
) -> CompositionLimitReport:
    """The interior composition read in the chart,

        expr(t) = t^-1 . eps_x . eps_{eps_x^-1(t.X)}^-1 (t.Y),

    must converge to the fiber product X.Y at rate O(t) (exactly X + Y when
    the Levi matrix vanishes and the frame is flat)."""
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    target = chart.group_at(x).mul(X, Y)
    hm_x = chart.eps(x)
    residuals, pseudo = [], []
    for t in t_grid:
        disp_z = hm_x.inverse_displacement(dilate(t, X))
        z = x + disp_z
        if not chart.frame.domain.contains(z):
            raise FrameError(f"middle point leaves the domain at t={t}; shrink the grid")
        disp_q = chart.eps(z).inverse_displacement(dilate(t, Y))
        if not chart.frame.domain.contains(z + disp_q):
            raise FrameError(f"endpoint leaves the domain at t={t}; shrink the grid")
        expr = dilate_inv(t, hm_x.forward_from_displacement(disp_z + disp_q))
        residuals.append(float(np.max(np.abs(expr - target))))
        pseudo.append(float(pseudo_norm(expr - target)))
    rate = fit_report(t_grid, residuals, slope_min, zero_floor=zero_floor)
    return CompositionLimitReport(rate, tuple(pseudo), target)


def psi_composition_check(
    chart: GroupoidChart,
    u,
    v,
    w,
    t_grid=None,
    slope_min: float = 0.85,
    zero_floor: float = 1e-10,
) -> CompositionLimitReport:
    """Same limit at the privileged-coordinate level, against the bilinear
    law x_0 + y_0 + sum b_kj x_j y_k of the dilation-limit group."""
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    hm_u = chart.eps(u)
    target = bilinear_mul(hm_u.b, v, w)
    Bt_u = np.linalg.inv(hm_u.A)
    residuals, pseudo = [], []
    for t in t_grid:
        disp_z = dilate(t, v) @ Bt_u.T
        z = u + disp_z
        if not chart.frame.domain.contains(z):
            raise FrameError(f"middle point leaves the domain at t={t}; shrink the grid")
        hm_z = chart.eps(z)
        disp_q = dilate(t, w) @ np.linalg.inv(hm_z.A).T
        expr = dilate_inv(t, (disp_z + disp_q) @ hm_u.A.T)
        residuals.append(float(np.max(np.abs(expr - target))))
        pseudo.append(float(pseudo_norm(expr - target)))
    rate = fit_report(t_grid, residuals, slope_min, zero_floor=zero_floor)
    return CompositionLimitReport(rate, tuple(pseudo), target)


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

    def apply(self, e: GroupoidElement) -> GroupoidElement:
        if isinstance(e, Interior):
            return Interior(self.phi.eval(e.p), self.phi.eval(e.q), e.t)
        return Boundary(self.phi.eval(e.p), self.tangent(e.p) @ e.X)

    def apply_unit(self, u: UnitElement) -> UnitElement:
        return UnitElement(self.phi.eval(u.m), u.t)

    def gamma_precomposed(self, x, X, t: float) -> GroupoidElement:
        """The chart gamma_{kappa . phi} of the source groupoid: the target
        chart's normalization pulled back through phi."""
        if self.phi_inv is None:
            raise ValueError("needs the exact inverse of phi")
        x = np.asarray(x, dtype=float)
        X = np.asarray(X, dtype=float)
        if t == 0:
            Tinv = tangent_matrix(self.dst, self.src, self.phi_inv, x)
            return Boundary(self.phi_inv.eval(x), Tinv @ X)
        q = self.dst.eps(x).inverse(dilate(t, X))
        return Interior(self.phi_inv.eval(x), self.phi_inv.eval(q), t)
