"""Check suites over a manifest: each check produces one record with a
stable id, a registry anchor, an inputs digest and a pass/fail/flagged/error
verdict.  Checks run one after another in the calling thread; a check whose
body raises becomes an `error` record and the run goes on.  The record list
is sorted by id.

A check body evaluates the Levi matrices and Heisenberg maps of all its base
points in one batched call, which equals one call per point bit for bit.
Every residual goes through `rates.worst_abs`, which keeps a NaN, and a
record whose residuals are not all finite never reads pass or flagged.
Check bodies read the sweeps' residual traces directly.  Every rate record
comes from `SuiteRunner.rate_outcome`, and every threshold record, the
worst residual against one bound, from `SuiteRunner.threshold_outcome`."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import approx, coords, group, groupoid
from .fields import FrameError, LeviForm, bracket, pushforward_preserves_H, tangent_blocks
from .jets import Jet
from .manifests import Manifest, ValidationError
from .rates import default_t_grid, rate_fit, worst_abs

ANCHORS = {
    "levi-form.antisymmetry": "Levi matrix is antisymmetric at every sampled point",
    "levi-form.golden": "Levi matrix matches the declared constants",
    "levi-form.bracket-definition": "exact bracket agrees with a finite-difference oracle",
    "privileged.normalization": "affine normalization sends the frame to the coordinate frame",
    "privileged.b-vs-levi": "L = b^t - b at sampled base points",
    "heisenberg-coords.model-fields": "shear-pushed dilation limits equal the model fields",
    "model-fields.structure-constants": "model-field brackets reproduce the Levi matrix",
    "heisenberg-coords.shear-grading": "the quadratic shear commutes with the dilations",
    "nilpotent-approx.dilation-limit": "rescaled dilation pullbacks converge to the model field",
    "tangent-group.axioms": "group axioms on seeded random triples",
    "tangent-group.dilations": "dilations are group automorphisms",
    "tangent-group.commutator": "commutator transverse slot equals the Levi pairing",
    "pseudo-norm.homogeneity": "homogeneous gauge scales linearly under dilations",
    "graded-shear.transport": "graded shears transport bilinear laws as homomorphisms",
    "fiber-classification.adapted-frame": "adapted frame reproduces the canonical relations",
    "fiber-classification.metric-independence": "rank and type do not depend on the metric",
    "tangent-map.block-structure": "differential is block triangular in normalized coordinates",
    "diffeo-approx.quadratic-vanishing": "no horizontal quadratic terms in the transverse component",
    "diffeo-approx.negative-control": "non-preserving map trips the quadratic detector",
    "diffeo-approx.scaled-limit": "graded rescalings converge to the tangent map at rate O(t)",
    "diffeo-approx.uniformity": "measured rate is stable across base points",
    "groupoid.axioms": "groupoid axioms on seeded composable tuples",
    "groupoid-chart.roundtrip": "chart and inverse chart compose to the identity",
    "groupoid.range-source-submersion": "range/source Jacobian blocks are invertible",
    "groupoid.continuity-condition": "interior sequences converge to the stored boundary point",
    "groupoid.continuity-negative": "ungraded scaling is detected as divergent",
    "groupoid.continuity-chart-independence": "convergence verdict survives a chart change",
    "groupoid.composition-limit": "chart composition converges to the fiber product",
    "groupoid.privileged-composition-claim": "privileged-level limit matches the bilinear law",
    "groupoid-chart.transition-limit": "transition maps have the tangent-map limit at t = 0",
    "groupoid.functoriality": "diffeomorphism action is a groupoid morphism",
}


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    inputs_digest: str
    verdict: str  # pass / fail / flagged / error
    residuals: tuple = ()
    slope: float | None = None
    value: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "id": self.check_id,
            "anchor": self.anchor,
            "inputs_digest": self.inputs_digest,
            "verdict": self.verdict,
            "residuals": [float(r) for r in self.residuals],
        }
        if self.slope is not None:
            out["slope"] = None if np.isinf(self.slope) else float(self.slope)
            out["exact"] = bool(np.isinf(self.slope))
        if self.value:
            out["value"] = self.value
        return out


@dataclass(frozen=True)
class Outcome:
    """What a check body measured; the runner adds the id, anchor and digest.

    `inputs` names what the check ran on; it is digested together with the
    manifest name.
    """

    inputs: dict
    verdict: str
    residuals: tuple = ()
    slope: float | None = None
    value: dict = field(default_factory=dict)


def rng_for(seed: int, name: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def _verdict(ok: bool, flagged: bool = False) -> str:
    if not ok:
        return "fail"
    return "flagged" if flagged else "pass"


def _elements(rows):
    """Stack (p, v, t) rows into the arrays (p, v, t) of groupoid elements."""
    p, v, t = zip(*rows)
    return np.array(p), np.array(v), np.array(t)


def bracket_fd_residuals(frame, levi: LeviForm, pts, h: float) -> np.ndarray:
    """omega_0 - L_jk (P, pairs) at pts (P, n) for 1 <= j < k, j-major: omega
    expands over the frame [X_j, X_k] from central differences of step h, with
    each field evaluated once, on the stencil m, m +- h e_a of every point."""
    n, m = frame.dim, pts[:, None, :]
    stencil = np.concatenate([m, m + h * np.eye(n), m - h * np.eye(n)], axis=1)
    vals = np.stack([f.eval_many(stencil) for f in frame.fields], axis=1)  # vals[p, j, s] = X_j(stencil[p, s])
    J = ((vals[:, :, 1 : n + 1] - vals[:, :, n + 1 :]) / (2 * h)).swapaxes(-1, -2)  # J[p, j, i, a] = d_a X_j^i
    X = vals[:, :, 0, :, None]
    j, k = np.array(np.triu_indices(n - 1, 1)) + 1
    omega = np.linalg.solve(frame.matrix_at(pts).mT[:, None], J[:, k] @ X[:, j] - J[:, j] @ X[:, k])
    return omega[..., 0, 0] - levi.matrix(pts)[:, j - 1, k - 1]


def composable_tuples(rng, p0, n: int):
    """n composable groupoid elements g1, g2: with probability 1/2 the pairs
    (p, m, t), (m, q, t), else the fibre points (p, X, 0), (p, Y, 0) over
    p0 + [-0.5, 0.5)^dim.  The numbers u of one draw are read in order, 3 dim + 2
    per pair and 3 dim + 1 per fibre, each as lo + (hi - lo) u, as `Generator.uniform` does."""
    dim = len(p0)
    u = rng.random(n * (3 * dim + 2))
    below, starts = (u < 0.5).tobytes(), [0]  # below[i]: a tuple that starts at i is a pair
    while len(starts) < n:
        starts.append(starts[-1] + 3 * dim + 1 + below[starts[-1]])
    s = np.array(starts)
    pair = (u[s] < 0.5)[:, None]
    w = u[s[:, None, None] + 1 + np.arange(3 * dim).reshape(3, dim)]  # (n, 3, dim)
    a, b, c = np.moveaxis(-1.0 + 2.0 * w, 1, 0)
    fibre_p = p0 + (-0.5 + 1.0 * w[:, 0])
    t = np.where(pair[:, 0], 0.1 + (2.0 - 0.1) * u[s + 1 + 3 * dim], 0.0)
    return (np.where(pair, a, fibre_p), b, t), (np.where(pair, b, fibre_p), c, t)


# Bounds that no manifest sets; every other bound is a tolerance key.
# rs-jacobian: a source Jacobian whose |det| is at most this reads as singular.
RS_DET_MIN = 1e-8
# chart-independence: a trace mapped through a nonlinear diffeo decays only as
# O(t), so at the grid's end it sits above `continuity` but far under O(1).
MAPPED_CONTINUITY = 1e-2
# composition-limit: a Levi matrix under this at the first sweep point holds
# exact zeros or eps-level rounding, so the chart is flat and composes exactly.
FLAT_LEVI = 1e-14


def _converged(r, tol: float) -> bool:
    """A continuity trace has reached its limit: the last residual is under tol."""
    return r[-1] < tol


def _diverged(r, tol: float) -> bool:
    """A continuity trace runs away: its last residual is over 10 max(first, tol)."""
    return r[-1] > 10.0 * max(r[0], tol)


SUITE_NAMES = ("levi", "coords", "group", "classify", "diffeo", "groupoid")


class SuiteRunner:
    """Builds and runs the selected checks for one manifest."""

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        self.tol = manifest.tolerances
        self.t_grid = default_t_grid(*manifest.t_grid_range)
        self.charts = {c.name: groupoid.GroupoidChart(c.frame, self.tol["composability"]) for c in manifest.charts}
        self._levi = {c.name: LeviForm(c.frame) for c in manifest.charts}
        self._preserving: dict = {}
        self._grids: dict = {}

    # -- shared samples ----------------------------------------------------
    def base_points(self, cname: str, limit=None, shrink=None):
        """A read-only sample grid of the chart, built once.  A frame that is
        singular at a grid point is a `ValidationError` naming the chart."""
        key = (cname, limit, shrink)
        pts = self._grids.get(key)
        if pts is None:
            frame = self.manifest.chart(cname).frame
            s = self.manifest.samples
            pts = frame.domain.shrunk(shrink or s["shrink"]).grid(s["per_axis"], limit=limit or s["base_limit"])
            try:
                frame.check_invertible(pts)
            except FrameError as exc:
                raise ValidationError(f"chart {cname!r}: {exc}") from exc
            pts.setflags(write=False)
            self._grids[key] = pts
        return pts

    def sweep_points(self, cname: str):
        # tighter box for graded sweeps: displacements scale with the frame
        return self.base_points(cname, limit=self.manifest.samples["sweep_tuples"], shrink=0.1)

    def _seeded(self, key: str):
        """The seed and the generator of one randomized check, keyed by name."""
        if self.manifest.seed is None:
            raise ValidationError("randomized checks need a seed (manifest config.seed or --seed)")
        return self.manifest.seed, rng_for(self.manifest.seed, key)

    def preserving_residual(self, spec) -> float:
        """Runs while the checks are collected, so a chart that cannot hold
        the diffeo's image, or a singular frame, is a `ValidationError`."""
        hit = self._preserving.get(spec.name)
        if hit is None:
            src = self.manifest.chart(spec.source).frame
            dst = self.manifest.chart(spec.target).frame
            pts = self.base_points(spec.source, limit=12)
            try:
                hit = pushforward_preserves_H(spec.fwd, src, dst, pts)
            except FrameError as exc:
                raise ValidationError(f"diffeo {spec.name!r}: {exc}") from exc
            self._preserving[spec.name] = hit
        return hit

    def slope(self, trace) -> float:
        """The decay rate of a residual trace over the manifest's t grid,
        fitted with its `zero_floor` and `slope_min`; +inf when exact."""
        return rate_fit(self.t_grid, trace, self.tol["zero_floor"], self.tol["slope_min"])

    def rate_outcome(self, inputs: dict, traces, ok: bool = True, flagged: bool = False) -> Outcome:
        """The one rate record of every sweep.  It shows the first inexact
        trace of least slope, or the first trace when all are exact, and
        passes when that slope is at least `slope_min` and `ok` holds."""
        slopes = [self.slope(r) for r in traces]
        i = min(range(len(slopes)), key=lambda k: (math.isinf(slopes[k]), slopes[k]))
        ok = ok and slopes[i] >= self.tol["slope_min"]
        return Outcome(inputs, _verdict(ok, flagged), tuple(float(r) for r in traces[i]), slopes[i])

    def threshold_outcome(
        self, inputs: dict, bound: str | float, *parts, above=False, each=False, ok=True, flagged=False, value=None
    ) -> Outcome:
        """The one threshold record: the worst |entry| of the parts against
        `bound`, a tolerance key or one of the fixed bounds above.  It passes
        when the worst is under the bound, or over it with `above`, and `ok`
        holds; a NaN fails either way.  The residual is the worst, or with
        `each` the worst of each part."""
        limit = self.tol[bound] if isinstance(bound, str) else bound
        worst = worst_abs(*parts)
        within = worst > limit if above else worst < limit
        shown = tuple(worst_abs(p) for p in parts) if each else (worst,)
        return Outcome(inputs, _verdict(within and ok, flagged), shown, value=value or {})

    # -- check builders -----------------------------------------------------
    def collect(self, suite: str) -> list:
        """The (id, anchor, body) triples of one suite, in declaration order.

        Each builder declares its checks with the `check(id, anchor)`
        decorator it is handed.
        """
        checks = []

        def check(check_id: str, anchor: str):
            def register(body):
                checks.append((check_id, anchor, body))
                return body

            return register

        per_chart = {
            "levi": self._levi_checks,
            "coords": self._coords_checks,
            "group": self._group_checks,
            "classify": self._classify_checks,
            "groupoid": self._groupoid_chart_checks,
        }
        per_diffeo = {"diffeo": self._diffeo_checks, "groupoid": self._groupoid_diffeo_checks}
        if suite in per_chart:
            for chart in self.manifest.charts:
                per_chart[suite](chart, check)
        if suite in per_diffeo:
            for spec in self.manifest.diffeos:
                per_diffeo[suite](spec, check)
        return checks

    def record(self, check_id: str, anchor: str, body) -> CheckRecord:
        """Run one check body; any exception but a `ValidationError` becomes
        an `error` record, and a pass or flag with a residual that is not
        finite becomes a `fail`."""
        try:
            out = body()
        except ValidationError:
            raise
        except Exception as exc:
            out = Outcome({"check": check_id}, "error", value={"error": type(exc).__name__, "message": str(exc)})
        verdict = out.verdict
        if verdict != "error" and not np.all(np.isfinite(out.residuals)):
            verdict = "fail"
        digest = _digest({"manifest": self.manifest.name, **out.inputs})
        return CheckRecord(check_id, anchor, digest, verdict, out.residuals, out.slope, out.value)

    def run(self, suites) -> list:
        checks = [c for suite in suites for c in self.collect(suite)]
        return sorted((self.record(*c) for c in checks), key=lambda r: r.check_id)

    # -- levi -----------------------------------------------------------------
    def _levi_checks(self, chart, check):
        name = chart.name
        lf = self._levi[name]

        @check(f"levi/{name}/antisymmetry", "levi-form.antisymmetry")
        def antisymmetry():
            pts = self.base_points(name)
            raw = lf.raw_matrix(pts)
            return self.threshold_outcome({"chart": name, "points": len(pts)}, "levi_antisym", raw + raw.mT)

        @check(f"levi/{name}/bracket-fd", "levi-form.bracket-definition")
        def bracket_fd():
            h = 1e-5
            residuals = bracket_fd_residuals(chart.frame, lf, self.base_points(name, limit=4), h)
            return self.threshold_outcome({"chart": name, "h": h}, "levi_fd", residuals)

        if chart.expected_levi is None:
            return

        @check(f"levi/{name}/golden", "levi-form.golden")
        def golden():
            pts = self.base_points(name)
            L = lf.matrix(pts)
            levi = [[round(v, 12) for v in row] for row in L[0].tolist()]
            inputs = {"chart": name, "points": len(pts)}
            return self.threshold_outcome(inputs, "levi_golden", L - chart.expected_levi, value={"levi": levi})

    # -- coords -----------------------------------------------------------------
    def _coords_checks(self, chart, check):
        name = chart.name
        frame = chart.frame
        lf = self._levi[name]

        @check(f"coords/{name}/b-levi", "privileged.b-vs-levi")
        def b_levi():
            pts = self.base_points(name)
            b = coords.heisenberg_map(frame, pts).b
            return self.threshold_outcome({"chart": name, "points": len(pts)}, "b_levi", b.mT - b - lf.matrix(pts))

        @check(f"coords/{name}/normalization", "privileged.normalization")
        def normalization():
            pts = self.base_points(name, limit=8)
            hm = coords.heisenberg_map(frame, pts)
            pushed = [X.components for X in coords.privileged_frame(frame, pts)]
            at0 = np.stack([pm.constant() for pm in pushed], axis=-2)  # X_j(0): the constant column
            b = np.stack([pm.linear()[..., 0, 1:] for pm in pushed[1:]], axis=-2)
            eye = np.eye(frame.dim)
            parts = hm.A @ frame.matrix_at(pts).mT - eye, at0 - eye, b - hm.b
            return self.threshold_outcome({"chart": name}, "normalization", *parts)

        @check(f"coords/{name}/model-fields", "heisenberg-coords.model-fields")
        def model_fields():
            worst = coords.heisenberg_map(frame, self.base_points(name, limit=8)).pushed_model_residual()
            return self.threshold_outcome({"chart": name}, "model_fields", worst)

        @check(f"coords/{name}/model-structure", "model-fields.structure-constants")
        def model_structure():
            hm = coords.heisenberg_map(frame, self.base_points(name, limit=4))
            fields = hm.dilation_model_frame(3)
            parts = []
            for j in range(1, frame.dim):
                for k in range(1, frame.dim):
                    got = bracket(fields[j], fields[k]).components.coeffs.copy()
                    got[..., 0, 0] -= hm.levi[..., j - 1, k - 1]
                    parts.append(got)
            return self.threshold_outcome({"chart": name}, "model_structure", *parts)

        @check(f"coords/{name}/shear-grading", "heisenberg-coords.shear-grading")
        def shear_grading():
            hm = coords.heisenberg_map(frame, self.base_points(name, limit=8))
            worst = coords.graded_weight_violation(hm.shear.as_polymap(2))
            return self.threshold_outcome({"chart": name}, "shear_grading", worst)

        def dilation(X, field_name):
            """The dilation-limit record of X, flagged when its model field's
            weight decision sits near the threshold."""
            m = self.base_points(name, limit=1)[0]
            residuals, flagged = coords.dilation_limit_check(X, frame, m, self.t_grid)
            return self.rate_outcome({"chart": name, "field": field_name}, [residuals], flagged=flagged)

        @check(f"coords/{name}/dilation-exact", "nilpotent-approx.dilation-limit")
        def dilation_exact():
            return dilation(frame.fields[1], 1)

        @check(f"coords/{name}/dilation-perturbed", "nilpotent-approx.dilation-limit")
        def dilation_perturbed():
            s = frame.fields[0].components.space
            e = tuple(2 if i == 1 else 0 for i in range(frame.dim))
            return dilation(frame.fields[1] + frame.fields[0].scaled_by_jet(Jet.from_terms(s, {e: 1.0})), "perturbed")

    # -- group -------------------------------------------------------------------
    def _group_checks(self, chart, check):
        name = chart.name
        lf = self._levi[name]
        d = self.manifest.d
        n_tuples = int(self.manifest.samples["tuples"])

        def group_at_sample():
            return group.TangentGroup(lf.matrix(self.base_points(name, limit=1)[0]))

        @check(f"group/{name}/axioms", "tangent-group.axioms")
        def axioms():
            seed, rng = self._seeded(f"group/{name}/axioms")
            G = group_at_sample()
            x, y, z = rng.uniform(-2, 2, (3, n_tuples, d + 1))
            parts = G.mul(G.mul(x, y), z) - G.mul(x, G.mul(y, z)), G.mul(x, np.zeros(d + 1)) - x, G.mul(x, G.inverse(x))
            return self.threshold_outcome({"chart": name, "seed": seed, "n": n_tuples}, "group_axioms", *parts)

        @check(f"group/{name}/dilation-automorphism", "tangent-group.dilations")
        def dilations():
            seed, rng = self._seeded(f"group/{name}/dilations")
            G = group_at_sample()
            x, y = rng.uniform(-2, 2, (2, n_tuples, d + 1))
            dil = group.dilate
            parts = (dil(t, G.mul(x, y)) - G.mul(dil(t, x), dil(t, y)) for t in (-1.0, 0.5, 2.0, 10.0))
            return self.threshold_outcome({"chart": name, "seed": seed, "n": n_tuples}, "group_axioms", *parts)

        @check(f"group/{name}/commutator", "tangent-group.commutator")
        def commutator():
            seed, rng = self._seeded(f"group/{name}/commutator")
            G = group_at_sample()
            x, y = rng.uniform(-2, 2, (2, n_tuples, d + 1))
            comm = G.commutator(x, y)
            want = np.einsum("nj,jk,nk->n", x[:, 1:], G.L, y[:, 1:])
            inputs = {"chart": name, "seed": seed, "n": n_tuples}
            return self.threshold_outcome(inputs, "commutator", comm[:, 0] - want, comm[:, 1:])

        @check(f"group/{name}/pseudo-norm", "pseudo-norm.homogeneity")
        def pseudo():
            seed, rng = self._seeded(f"group/{name}/pseudo")
            x = rng.uniform(-2, 2, (n_tuples, d + 1))
            parts = (group.pseudo_norm(group.dilate(t, x)) - abs(t) * group.pseudo_norm(x) for t in (-3.0, 0.25, 7.0))
            return self.threshold_outcome({"chart": name, "seed": seed}, "pseudo_norm", *parts)

        @check(f"group/{name}/shear-transport", "graded-shear.transport")
        def shear_transport():
            seed, rng = self._seeded(f"group/{name}/shear")
            m = self.base_points(name, limit=1)[0]
            b = coords.heisenberg_map(chart.frame, m).b
            csym = rng.uniform(-1, 1, (d, d))
            shear = group.GradedShear((csym + csym.T) / 2)
            pairs = rng.uniform(-2, 2, (100, 2, d + 1))
            normal = group.GradedShear(-(b + b.T) / 2)
            hom = worst_abs(*(group.shear_homomorphism_residual(s, b, pairs) for s in (shear, normal)))
            parts = hom, normal.transport(b) - (b - b.T) / 2
            return self.threshold_outcome({"chart": name, "seed": seed}, "shear_homomorphism", *parts, each=True)

    # -- classify ------------------------------------------------------------------
    def _classify_checks(self, chart, check):
        name = chart.name
        lf = self._levi[name]
        metrics = {"identity": None, **self.manifest.metrics}

        @functools.cache
        def fibres():
            """The tangent group at each of 4 base points, from one batched
            Levi matrix and shared by every metric; an exception is not
            cached, so each check that asks becomes an `error` record."""
            return [group.TangentGroup(L) for L in lf.matrix(self.base_points(name, limit=4))]

        def one_metric(mname):
            @check(f"classify/{name}/{mname}", "fiber-classification.adapted-frame")
            def classify():
                Gs = fibres()
                found = [group.classify_fiber(G, metric=metrics[mname]) for G in Gs]
                rels = [cls.relations(G.L) - group.canonical_constants(G.d, cls.n) for G, cls in zip(Gs, found)]
                label, rank = found[-1].label, found[-1].rank
                return self.threshold_outcome(
                    {"chart": name, "metric": mname},
                    "classify_relations",
                    *rels,
                    ok=chart.expected_type in (None, label),
                    flagged=any(cls.flagged for cls in found),
                    value={"label": label, "rank": rank},
                )

        for mname in sorted(metrics):
            one_metric(mname)
        if len(metrics) == 1:
            return

        @check(f"classify/{name}/metric-independence", "fiber-classification.metric-independence")
        def metric_independence():
            found = [group.classify_fiber(G, metric=g) for g in metrics.values() for G in fibres()]
            results = {(cls.rank, cls.label) for cls in found}
            return Outcome(
                {"chart": name, "metrics": sorted(metrics)},
                _verdict(len(results) == 1),
                (float(len(results) - 1),),
                value={"types": sorted(f"{r}:{l}" for r, l in results)},
            )

    # -- diffeo --------------------------------------------------------------------
    def _diffeo_checks(self, spec, check):
        src = self.manifest.chart(spec.source).frame
        dst = self.manifest.chart(spec.target).frame
        base = self.base_points(spec.source, limit=4, shrink=0.15)
        preserving = self.preserving_residual(spec) < self.tol["preserve"]
        pts = coords.sample_box(0.6, 3, src.dim)

        @functools.cache
        def expansions():
            """One expansion trace per base point, shared by the rate and
            uniformity checks; an exception is not cached, so both become
            `error` records."""
            return [approx.diffeo_expansion_check(spec.fwd, src, dst, m, pts, self.t_grid) for m in base]

        # a map that does not preserve H is the negative control: the detector must fire
        kind = "quadratic-vanishing" if preserving else "negative-control"

        @check(f"diffeo/{spec.name}/{kind}", f"diffeo-approx.{kind}")
        def quadratic():
            order = self.manifest.jet_order
            parts = (approx.horizontal_quadratic(approx.conjugated_jets(spec.fwd, src, dst, m, order)) for m in base)
            bound = "quad_coeffs" if preserving else "negative_control"
            return self.threshold_outcome({"diffeo": spec.name}, bound, *parts, above=not preserving)

        if not preserving:
            return

        @check(f"diffeo/{spec.name}/tangent-blocks", "tangent-map.block-structure")
        def blocks():
            C = tangent_blocks(spec.fwd, src, dst, base)
            approx.graded_part(C)  # a vanishing a00 or a singular A_par raises
            a00 = float(C[-1, 0, 0])
            return self.threshold_outcome({"diffeo": spec.name}, "preserve", C[:, 0, 1:], value={"a00": a00})

        @check(f"diffeo/{spec.name}/rate", "diffeo-approx.scaled-limit")
        def rate():
            return self.rate_outcome({"diffeo": spec.name, "points": len(base)}, expansions())

        @check(f"diffeo/{spec.name}/uniformity", "diffeo-approx.uniformity")
        def uniformity():
            slopes = [k for k in map(self.slope, expansions()) if not math.isinf(k)]
            spread = max(slopes) - min(slopes) if len(slopes) >= 2 else 0.0
            return self.threshold_outcome({"diffeo": spec.name, "points": len(base)}, "uniformity", spread)

    # -- groupoid --------------------------------------------------------------------
    def _groupoid_chart_checks(self, chart, check):
        name = chart.name
        gchart = self.charts[name]
        dim = self.manifest.dim
        n_tuples = int(self.manifest.samples["tuples"])

        @check(f"groupoid/{name}/axioms", "groupoid.axioms")
        def axioms():
            seed, rng = self._seeded(f"groupoid/{name}/axioms")
            g1, g2 = composable_tuples(rng, self.base_points(name, limit=1)[0], n_tuples)
            comp = gchart.compose(g1, g2)
            left = gchart.compose(g1, gchart.iota(*gchart.source_of(g1)))
            unit = gchart.compose(g1, gchart.inverse(g1))
            return self.threshold_outcome(
                {"chart": name, "seed": seed, "n": n_tuples},
                "group_axioms",
                gchart.range_of(comp)[0] - gchart.range_of(g1)[0],
                gchart.source_of(comp)[0] - gchart.source_of(g2)[0],
                left[1] - g1[1],
                unit[1] - gchart.iota(*gchart.range_of(g1))[1],
            )

        @check(f"groupoid/{name}/chart-roundtrip", "groupoid-chart.roundtrip")
        def roundtrip():
            seed, rng = self._seeded(f"groupoid/{name}/roundtrip")
            p0 = self.base_points(name, limit=1)[0]
            draws = [(p0 + rng.uniform(-0.3, 0.3, dim), rng.uniform(-1, 1, dim), rng.uniform(0.05, 0.5)) for _ in range(25)]
            x, X, t = _elements(draws)
            # each sample at its t and, as a boundary element, at t = 0
            x, X, t = np.concatenate([x, x]), np.concatenate([X, X]), np.concatenate([t, 0.0 * t])
            back = gchart.gamma_inv(gchart.gamma(x, X, t))
            parts = (got - want for got, want in zip(back, (x, X, t)))
            return self.threshold_outcome({"chart": name, "seed": seed}, "roundtrip", *parts)

        @check(f"groupoid/{name}/rs-jacobian", "groupoid.range-source-submersion")
        def rs_jacobian():
            seed, rng = self._seeded(f"groupoid/{name}/rs")
            p0 = self.base_points(name, limit=1)[0]
            dets = []
            for _ in range(8):
                x = p0 + rng.uniform(-0.3, 0.3, dim)
                X = rng.uniform(-1, 1, dim)
                t = float(rng.uniform(0.1, 1.0))
                dets.append(np.linalg.det(gchart.source_jacobian(x, X, t)))
            least = worst_abs(dets, least=True)
            return self.threshold_outcome({"chart": name, "seed": seed}, RS_DET_MIN, least, above=True)

        @check(f"groupoid/{name}/continuity", "groupoid.continuity-condition")
        def continuity():
            hm = gchart.eps(self.sweep_points(name)[0])
            X = 0.5 * np.ones(dim)
            ts = 2.0 ** -np.arange(*self.manifest.t_grid_range)
            r = groupoid.continuity_check(hm, hm.inverse(group.dilate(ts[:, None], X)), ts, X)
            ok = _converged(r, self.tol["continuity"]) and not _diverged(r, self.tol["continuity"])
            return Outcome({"chart": name}, _verdict(ok), tuple(r))

        @check(f"groupoid/{name}/continuity-negative", "groupoid.continuity-negative")
        def continuity_negative():
            hm = gchart.eps(self.sweep_points(name)[0])
            v = 0.5 * np.ones(dim)
            ts = 2.0 ** -np.arange(*self.manifest.t_grid_range)
            qs = hm.inverse(ts[:, None, None] * v)  # linear, not graded
            r = groupoid.continuity_check(hm, qs, ts, v)
            return Outcome({"chart": name}, _verdict(_diverged(r, self.tol["continuity"])), tuple(r))

        @check(f"groupoid/{name}/composition-limit", "groupoid.composition-limit")
        def composition_limit():
            seed, rng = self._seeded(f"groupoid/{name}/composition")
            flat = worst_abs(self._levi[name].matrix(self.sweep_points(name)[0])) < FLAT_LEVI
            pts = self.sweep_points(name)
            XY = rng.uniform(-1, 1, (len(pts), 2, dim))  # the draws of one point after another
            traces = [groupoid.composition_limit_check(gchart, x, X, Y, self.t_grid) for x, (X, Y) in zip(pts, XY)]
            # a flat chart composes exactly
            exact = not flat or worst_abs(*traces) < self.tol["flat_exact"]
            return self.rate_outcome({"chart": name, "seed": seed}, traces, ok=exact)

        @check(f"groupoid/{name}/psi-claim", "groupoid.privileged-composition-claim")
        def psi_claim():
            seed, rng = self._seeded(f"groupoid/{name}/psi")
            pts = self.sweep_points(name)
            VW = rng.uniform(-1, 1, (len(pts), 2, dim))
            traces = [groupoid.psi_composition_check(gchart, u, v, w, self.t_grid) for u, (v, w) in zip(pts, VW)]
            return self.rate_outcome({"chart": name, "seed": seed}, traces)

    def _groupoid_diffeo_checks(self, spec, check):
        if self.preserving_residual(spec) >= self.tol["preserve"]:
            return
        src_chart = self.charts[spec.source]
        dst_chart = self.charts[spec.target]
        base = self.base_points(spec.source, limit=3, shrink=0.1)

        @check(f"groupoid/{spec.name}/transition-limit", "groupoid-chart.transition-limit")
        def transition_limit():
            seed, rng = self._seeded(f"groupoid/{spec.name}/transition")
            Xs = rng.uniform(-1, 1, (len(base), self.manifest.dim))
            sweep = functools.partial(approx.diffeo_expansion_check, spec.fwd, src_chart.frame, dst_chart.frame)
            traces = [sweep(x, X[None], self.t_grid) for x, X in zip(base, Xs)]
            return self.rate_outcome({"diffeo": spec.name, "seed": seed}, traces)

        @check(f"groupoid/{spec.name}/continuity-chart-independence", "groupoid.continuity-chart-independence")
        def chart_independence():
            x = base[0]
            hm = src_chart.eps(x)
            X = 0.4 * np.ones(self.manifest.dim)
            ts = 2.0 ** -np.arange(max(3, self.manifest.t_grid_range[0]), self.manifest.t_grid_range[1])
            qs = hm.inverse(group.dilate(ts[:, None], X))
            r1 = groupoid.continuity_check(hm, qs, ts, X)
            r2 = groupoid.continuity_chart_independence(src_chart, dst_chart, spec.fwd, x, qs, ts, X)
            # the mapped trace converges to the graded-tangent image
            ok = _converged(r1, self.tol["continuity"]) and _converged(r2, MAPPED_CONTINUITY)
            return Outcome({"diffeo": spec.name}, _verdict(ok), tuple(r2))

        @check(f"groupoid/{spec.name}/functor", "groupoid.functoriality")
        def functor():
            if spec.inv is None:
                return Outcome(
                    {"diffeo": spec.name}, "flagged", value={"note": "no inverse declared; functor identities skipped"}
                )
            seed, rng = self._seeded(f"groupoid/{spec.name}/functor")
            morph = groupoid.GroupoidMorphism(spec.fwd, spec.inv, src_chart, dst_chart)
            rows1, rows2, charted = [], [], []
            for _ in range(40):
                if rng.uniform() < 0.5:
                    p, mm, q = (base[0] + rng.uniform(-0.5, 0.5, self.manifest.dim) for _ in range(3))
                    t = float(rng.uniform(0.1, 1.5))
                    rows1.append((p, mm, t))
                    rows2.append((mm, q, t))
                else:
                    p = base[0] + rng.uniform(-0.5, 0.5, self.manifest.dim)
                    Xv, Yv = rng.uniform(-1, 1, (2, self.manifest.dim))
                    rows1.append((p, Xv, 0.0))
                    rows2.append((p, Yv, 0.0))
                # chart conjugation identity
                x = base[0] + rng.uniform(-0.3, 0.3, self.manifest.dim)
                Xv = rng.uniform(-1, 1, self.manifest.dim)
                charted.append((x, Xv, float(rng.choice([0.0, 0.125, 0.5]))))
            g1, g2 = _elements(rows1), _elements(rows2)
            image1 = morph.apply(g1)
            lhs = morph.apply(src_chart.compose(g1, g2))
            rhs = dst_chart.compose(image1, morph.apply(g2))
            ru = morph.apply_unit(src_chart.range_of(g1))[0]
            x, Xv, t = _elements(charted)
            x2, X2, t2 = dst_chart.gamma_inv(morph.apply(morph.gamma_precomposed(x, Xv, t)))
            parts = lhs[1] - rhs[1], ru - dst_chart.range_of(image1)[0], x2 - x, X2 - Xv, t2 - t
            return self.threshold_outcome({"diffeo": spec.name, "seed": seed}, "functor", *parts)


def run_suites(manifest: Manifest, selector: str) -> list:
    if selector == "all":
        suites = list(SUITE_NAMES)
    elif selector in SUITE_NAMES:
        suites = [selector]
    else:
        raise ValidationError(f"unknown suite {selector!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    manifest.validate_diffeo_inverses()
    records = SuiteRunner(manifest).run(suites)
    for rec in records:
        if rec.anchor not in ANCHORS:
            raise AssertionError(f"orphan anchor {rec.anchor!r} on {rec.check_id}")
    return records
