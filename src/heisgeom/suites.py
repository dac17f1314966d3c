"""Check suites over a manifest: each check produces one record with a
stable id, a registry anchor, an inputs digest and a pass/fail/flagged/error
verdict.  Checks run one after another in the calling thread; a check whose
body raises becomes an `error` record and the run goes on.  The record list
is sorted by id.

A check body evaluates the Levi matrices and Heisenberg maps of all its base
points in one batched call, which equals one call per point bit for bit.
Every residual goes through `rates.worst_abs`, which keeps a NaN, and a
record whose residuals are not all finite never reads pass or flagged."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import approx, coords, group, groupoid
from .fields import FrameError, LeviForm, pushforward_preserves_H
from .manifests import Manifest, ValidationError
from .rates import RateReport, default_t_grid, fit_report, worst_abs

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


def _worst_rate(reports):
    """The first report that is not exact and has the least slope, or the
    first report when every rate is exact (exact slopes are +inf)."""
    return min(reports, key=lambda rep: (rep.exact, rep.slope))


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

    # -- shared samples ----------------------------------------------------
    def base_points(self, cname: str, limit=None, shrink=None):
        spec = self.manifest.chart(cname)
        s = self.manifest.samples
        return spec.frame.domain.shrunk(shrink or s["shrink"]).grid(
            s["per_axis"], limit=limit or s["base_limit"]
        )

    def sweep_points(self, cname: str):
        # tighter box for graded sweeps: displacements scale with the frame
        return self.base_points(cname, limit=self.manifest.samples["sweep_tuples"], shrink=0.1)

    def _needs_seed(self):
        if self.manifest.seed is None:
            raise ValidationError("randomized checks need a seed (manifest config.seed or --seed)")
        return self.manifest.seed

    def preserving_residual(self, spec) -> float:
        """Runs while the checks are collected, so a chart that cannot hold
        the diffeo's image, or a singular frame, is a `ValidationError`."""
        hit = self._preserving.get(spec.name)
        if hit is None:
            src = self.manifest.chart(spec.source).frame
            dst = self.manifest.chart(spec.target).frame
            pts = self.base_points(spec.source, limit=12)
            try:
                hit = pushforward_preserves_H(spec.fwd, src, dst, pts, self.tol["preserve"]).max_residual
            except FrameError as exc:
                raise ValidationError(f"diffeo {spec.name!r}: {exc}") from exc
            self._preserving[spec.name] = hit
        return hit

    def fit(self, residuals) -> RateReport:
        """The rate verdict of every sweep: the residual trace over the
        manifest's t grid, fitted with its `slope_min` and `zero_floor`."""
        return fit_report(self.t_grid, residuals, self.tol["slope_min"], self.tol["zero_floor"])

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
        tol = self.tol

        @check(f"levi/{name}/antisymmetry", "levi-form.antisymmetry")
        def antisymmetry():
            pts = self.base_points(name)
            raw = lf.raw_matrix(pts)
            worst = worst_abs(raw + raw.mT)
            return Outcome({"chart": name, "points": len(pts)}, _verdict(worst < tol["levi_antisym"]), (worst,))

        @check(f"levi/{name}/bracket-fd", "levi-form.bracket-definition")
        def bracket_fd():
            frame = chart.frame
            h = 1e-5
            pts = self.base_points(name, limit=4)
            diffs = []
            for m, L in zip(pts, lf.matrix(pts)):
                basis = frame.basis_at(m)
                for j in range(1, frame.dim):
                    for k in range(j + 1, frame.dim):
                        Xj, Xk = frame.fields[j], frame.fields[k]
                        J_k = np.zeros((frame.dim, frame.dim))
                        J_j = np.zeros((frame.dim, frame.dim))
                        for a in range(frame.dim):
                            e = np.zeros(frame.dim)
                            e[a] = h
                            J_k[:, a] = (Xk(m + e) - Xk(m - e)) / (2 * h)
                            J_j[:, a] = (Xj(m + e) - Xj(m - e)) / (2 * h)
                        br = J_k @ Xj(m) - J_j @ Xk(m)
                        omega = np.linalg.solve(basis, br)
                        diffs.append(omega[0] - L[j - 1, k - 1])
            worst = worst_abs(diffs)
            return Outcome({"chart": name, "h": h}, _verdict(worst < tol["levi_fd"]), (worst,))

        if chart.expected_levi is None:
            return

        @check(f"levi/{name}/golden", "levi-form.golden")
        def golden():
            pts = self.base_points(name)
            L = lf.matrix(pts)
            worst = worst_abs(L - chart.expected_levi)
            return Outcome(
                {"chart": name, "points": len(pts)},
                _verdict(worst < tol["levi_golden"]),
                (worst,),
                value={"levi": [[round(v, 12) for v in row] for row in L[0].tolist()]},
            )

    # -- coords -----------------------------------------------------------------
    def _coords_checks(self, chart, check):
        name = chart.name
        frame = chart.frame
        lf = self._levi[name]
        tol = self.tol

        @check(f"coords/{name}/b-levi", "privileged.b-vs-levi")
        def b_levi():
            pts = self.base_points(name)
            b = coords.heisenberg_map(frame, pts).b
            worst = worst_abs(b.mT - b - lf.matrix(pts))
            return Outcome({"chart": name, "points": len(pts)}, _verdict(worst < tol["b_levi"]), (worst,))

        @check(f"coords/{name}/normalization", "privileged.normalization")
        def normalization():
            pts = self.base_points(name, limit=8)
            pms = [coords.privileged_map(frame, m) for m in pts]
            worst = worst_abs(
                *(pm.A @ B.T - np.eye(frame.dim) for pm, B in zip(pms, frame.matrix_at(pts))),
                *(pm.forward(m) for pm, m in zip(pms, pts)),
                np.array([pm.b_matrix() for pm in pms]) - coords.heisenberg_map(frame, pts).b,
            )
            return Outcome({"chart": name}, _verdict(worst < tol["normalization"]), (worst,))

        @check(f"coords/{name}/model-fields", "heisenberg-coords.model-fields")
        def model_fields():
            hms = (coords.heisenberg_map(frame, m) for m in self.base_points(name, limit=8))
            worst = worst_abs(*(hm.pushed_model_residual() for hm in hms))
            return Outcome({"chart": name}, _verdict(worst < tol["model_fields"]), (worst,))

        @check(f"coords/{name}/model-structure", "model-fields.structure-constants")
        def model_structure():
            from .fields import bracket

            parts = []
            for m in self.base_points(name, limit=4):
                hm = coords.heisenberg_map(frame, m)
                fields = hm.dilation_model_frame(3)
                L = hm.levi
                for j in range(1, frame.dim):
                    for k in range(1, frame.dim):
                        got = bracket(fields[j], fields[k]).components.coeffs.copy()
                        got[0, 0] -= L[j - 1, k - 1]
                        parts.append(got)
            worst = worst_abs(*parts)
            return Outcome({"chart": name}, _verdict(worst < tol["model_structure"]), (worst,))

        @check(f"coords/{name}/shear-grading", "heisenberg-coords.shear-grading")
        def shear_grading():
            hms = (coords.heisenberg_map(frame, m) for m in self.base_points(name, limit=8))
            worst = worst_abs(*(coords.graded_weight_violation(hm.shear.as_polymap(2)) for hm in hms))
            return Outcome({"chart": name}, _verdict(worst < tol["shear_grading"]), (worst,))

        @check(f"coords/{name}/dilation-exact", "nilpotent-approx.dilation-limit")
        def dilation_exact():
            m = self.base_points(name, limit=1)[0]
            rep = self.fit(coords.dilation_limit_check(frame.fields[1], frame, m, self.t_grid))
            return Outcome({"chart": name, "field": 1}, _verdict(rep.passed), rep.residuals, rep.slope)

        @check(f"coords/{name}/dilation-perturbed", "nilpotent-approx.dilation-limit")
        def dilation_perturbed():
            from .jets import Jet

            m = self.base_points(name, limit=1)[0]
            s = frame.fields[0].components.space
            e = tuple(2 if i == 1 else 0 for i in range(frame.dim))
            X = frame.fields[1] + frame.fields[0].scaled_by_jet(Jet.from_terms(s, {e: 1.0}))
            rep = self.fit(coords.dilation_limit_check(X, frame, m, self.t_grid))
            return Outcome({"chart": name, "field": "perturbed"}, _verdict(rep.passed), rep.residuals, rep.slope)

    # -- group -------------------------------------------------------------------
    def _group_checks(self, chart, check):
        name = chart.name
        tol = self.tol
        lf = self._levi[name]
        d = self.manifest.d
        n_tuples = int(self.manifest.samples["tuples"])

        def group_at_sample():
            return group.TangentGroup(lf.matrix(self.base_points(name, limit=1)[0]))

        @check(f"group/{name}/axioms", "tangent-group.axioms")
        def axioms():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/axioms")
            G = group_at_sample()
            x, y, z = rng.uniform(-2, 2, (3, n_tuples, d + 1))
            worst = worst_abs(
                G.mul(G.mul(x, y), z) - G.mul(x, G.mul(y, z)), G.mul(x, np.zeros(d + 1)) - x, G.mul(x, G.inverse(x))
            )
            return Outcome({"chart": name, "seed": seed, "n": n_tuples}, _verdict(worst < tol["group_axioms"]), (worst,))

        @check(f"group/{name}/dilation-automorphism", "tangent-group.dilations")
        def dilations():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/dilations")
            G = group_at_sample()
            x, y = rng.uniform(-2, 2, (2, n_tuples, d + 1))
            dil = group.dilate
            worst = worst_abs(*(dil(t, G.mul(x, y)) - G.mul(dil(t, x), dil(t, y)) for t in (-1.0, 0.5, 2.0, 10.0)))
            return Outcome({"chart": name, "seed": seed, "n": n_tuples}, _verdict(worst < tol["group_axioms"]), (worst,))

        @check(f"group/{name}/commutator", "tangent-group.commutator")
        def commutator():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/commutator")
            G = group_at_sample()
            x, y = rng.uniform(-2, 2, (2, n_tuples, d + 1))
            comm = G.commutator(x, y)
            want = np.einsum("nj,jk,nk->n", x[:, 1:], G.L, y[:, 1:])
            worst = worst_abs(comm[:, 0] - want, comm[:, 1:])
            return Outcome({"chart": name, "seed": seed, "n": n_tuples}, _verdict(worst < tol["commutator"]), (worst,))

        @check(f"group/{name}/pseudo-norm", "pseudo-norm.homogeneity")
        def pseudo():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/pseudo")
            x = rng.uniform(-2, 2, (n_tuples, d + 1))
            worst = worst_abs(
                *(group.pseudo_norm(group.dilate(t, x)) - abs(t) * group.pseudo_norm(x) for t in (-3.0, 0.25, 7.0))
            )
            return Outcome({"chart": name, "seed": seed}, _verdict(worst < tol["pseudo_norm"]), (worst,))

        @check(f"group/{name}/shear-transport", "graded-shear.transport")
        def shear_transport():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/shear")
            m = self.base_points(name, limit=1)[0]
            b = coords.heisenberg_map(chart.frame, m).b
            csym = rng.uniform(-1, 1, (d, d))
            shear = group.GradedShear((csym + csym.T) / 2)
            pairs = rng.uniform(-2, 2, (100, 2, d + 1))
            normal = group.GradedShear(-(b + b.T) / 2)
            worst = worst_abs(
                group.shear_homomorphism_residual(shear, b, pairs), group.shear_homomorphism_residual(normal, b, pairs)
            )
            worst_norm = worst_abs(normal.transport(b) - (b - b.T) / 2)
            return Outcome(
                {"chart": name, "seed": seed},
                _verdict(worst_abs(worst, worst_norm) < tol["shear_homomorphism"]),
                (worst, worst_norm),
            )

    # -- classify ------------------------------------------------------------------
    def _classify_checks(self, chart, check):
        name = chart.name
        tol = self.tol
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
                worst = worst_abs(*rels)
                label, rank = found[-1].label, found[-1].rank
                ok = worst < tol["classify_relations"]
                if chart.expected_type is not None:
                    ok = ok and label == chart.expected_type
                return Outcome(
                    {"chart": name, "metric": mname},
                    _verdict(ok, any(cls.flagged for cls in found)),
                    (worst,),
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
        tol = self.tol
        src = self.manifest.chart(spec.source).frame
        dst = self.manifest.chart(spec.target).frame
        base = self.base_points(spec.source, limit=4, shrink=0.15)
        preserving = self.preserving_residual(spec) < tol["preserve"]

        @functools.cache
        def expansions():
            """One expansion per base point, shared by the rate and uniformity
            checks; an exception is not cached, so both become `error` records."""
            return [self.fit(approx.diffeo_expansion_check(spec.fwd, src, dst, m, self.t_grid)) for m in base]

        # a map that does not preserve H is the negative control: the detector must fire
        kind = "quadratic-vanishing" if preserving else "negative-control"

        @check(f"diffeo/{spec.name}/{kind}", f"diffeo-approx.{kind}")
        def quadratic():
            order = self.manifest.jet_order
            worst = worst_abs(
                *(approx.horizontal_quadratic(approx.conjugated_jets(spec.fwd, src, dst, m, order=order)) for m in base)
            )
            ok = worst < tol["quad_coeffs"] if preserving else worst > tol["negative_control"]
            return Outcome({"diffeo": spec.name}, _verdict(ok), (worst,))

        if not preserving:
            return

        @check(f"diffeo/{spec.name}/tangent-blocks", "tangent-map.block-structure")
        def blocks():
            maps = [approx.tangent_map_H(spec.fwd, src, dst, m) for m in base]
            worst = worst_abs(*(T.upper_residual for T in maps))
            a00 = maps[-1].a00
            return Outcome({"diffeo": spec.name}, _verdict(worst < tol["preserve"]), (worst,), value={"a00": a00})

        @check(f"diffeo/{spec.name}/rate", "diffeo-approx.scaled-limit")
        def rate():
            worst_rep = _worst_rate(expansions())
            return Outcome(
                {"diffeo": spec.name, "points": len(base)}, _verdict(worst_rep.passed), worst_rep.residuals, worst_rep.slope
            )

        @check(f"diffeo/{spec.name}/uniformity", "diffeo-approx.uniformity")
        def uniformity():
            slopes = [rep.slope for rep in expansions() if not rep.exact]
            spread = max(slopes) - min(slopes) if len(slopes) >= 2 else 0.0
            return Outcome({"diffeo": spec.name, "points": len(base)}, _verdict(spread < tol["uniformity"]), (spread,))

    # -- groupoid --------------------------------------------------------------------
    def _groupoid_chart_checks(self, chart, check):
        name = chart.name
        tol = self.tol
        gchart = self.charts[name]
        dim = self.manifest.dim
        n_tuples = int(self.manifest.samples["tuples"])

        @check(f"groupoid/{name}/axioms", "groupoid.axioms")
        def axioms():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/axioms")
            p0 = self.base_points(name, limit=1)[0]
            rows1, rows2 = [], []
            for _ in range(n_tuples):
                if rng.uniform() < 0.5:
                    p, mm, q = rng.uniform(-1, 1, (3, dim))
                    t = float(rng.uniform(0.1, 2.0))
                    rows1.append((p, mm, t))
                    rows2.append((mm, q, t))
                else:
                    p = p0 + rng.uniform(-0.5, 0.5, dim)
                    X, Y = rng.uniform(-1, 1, (2, dim))
                    rows1.append((p, X, 0.0))
                    rows2.append((p, Y, 0.0))
            g1, g2 = _elements(rows1), _elements(rows2)
            comp = gchart.compose(g1, g2)
            left = gchart.compose(g1, gchart.iota(*gchart.source_of(g1)))
            unit = gchart.compose(g1, gchart.inverse(g1))
            worst = worst_abs(
                gchart.range_of(comp)[0] - gchart.range_of(g1)[0],
                gchart.source_of(comp)[0] - gchart.source_of(g2)[0],
                left[1] - g1[1],
                unit[1] - gchart.iota(*gchart.range_of(g1))[1],
            )
            return Outcome({"chart": name, "seed": seed, "n": n_tuples}, _verdict(worst < tol["group_axioms"]), (worst,))

        @check(f"groupoid/{name}/chart-roundtrip", "groupoid-chart.roundtrip")
        def roundtrip():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/roundtrip")
            p0 = self.base_points(name, limit=1)[0]
            draws = [(p0 + rng.uniform(-0.3, 0.3, dim), rng.uniform(-1, 1, dim), rng.uniform(0.05, 0.5)) for _ in range(25)]
            x, X, t = _elements(draws)
            # each sample at its t and, as a boundary element, at t = 0
            x, X, t = np.concatenate([x, x]), np.concatenate([X, X]), np.concatenate([t, 0.0 * t])
            back = gchart.gamma_inv(gchart.gamma(x, X, t))
            worst = worst_abs(*(got - want for got, want in zip(back, (x, X, t))))
            return Outcome({"chart": name, "seed": seed}, _verdict(worst < tol["roundtrip"]), (worst,))

        @check(f"groupoid/{name}/rs-jacobian", "groupoid.range-source-submersion")
        def rs_jacobian():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/rs")
            p0 = self.base_points(name, limit=1)[0]
            dets = []
            for _ in range(8):
                x = p0 + rng.uniform(-0.3, 0.3, dim)
                X = rng.uniform(-1, 1, dim)
                t = float(rng.uniform(0.1, 1.0))
                dets.extend(np.linalg.det(gchart.rs_jacobians(x, X, t)))
            worst = worst_abs(dets, least=True)
            return Outcome({"chart": name, "seed": seed}, _verdict(worst > 1e-8), (worst,))

        @check(f"groupoid/{name}/continuity", "groupoid.continuity-condition")
        def continuity():
            hm = gchart.eps(self.sweep_points(name)[0])
            X = 0.5 * np.ones(dim)
            ts = 2.0 ** -np.arange(*self.manifest.t_grid_range)
            rep = groupoid.continuity_check(hm, hm.inverse(group.dilate(ts[:, None], X)), ts, X, tol["continuity"])
            return Outcome({"chart": name}, _verdict(rep.converged and not rep.diverged), rep.residuals)

        @check(f"groupoid/{name}/continuity-negative", "groupoid.continuity-negative")
        def continuity_negative():
            hm = gchart.eps(self.sweep_points(name)[0])
            v = 0.5 * np.ones(dim)
            ts = 2.0 ** -np.arange(*self.manifest.t_grid_range)
            qs = hm.inverse(ts[:, None, None] * v)  # linear, not graded
            rep = groupoid.continuity_check(hm, qs, ts, v, tol["continuity"])
            return Outcome({"chart": name}, _verdict(rep.diverged), rep.residuals)

        @check(f"groupoid/{name}/composition-limit", "groupoid.composition-limit")
        def composition_limit():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/composition")
            flat = worst_abs(self._levi[name].matrix(self.sweep_points(name)[0])) < 1e-14
            reps = []
            for x in self.sweep_points(name):
                X, Y = rng.uniform(-1, 1, (2, dim))
                reps.append(self.fit(groupoid.composition_limit_check(gchart, x, X, Y, self.t_grid)))
            worst_rep = _worst_rate(reps)
            ok = worst_rep.passed
            if flat:
                ok = ok and worst_abs(*(rep.residuals for rep in reps)) < tol["flat_exact"]
            return Outcome({"chart": name, "seed": seed}, _verdict(ok), worst_rep.residuals, worst_rep.slope)

        @check(f"groupoid/{name}/psi-claim", "groupoid.privileged-composition-claim")
        def psi_claim():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/psi")
            reps = []
            for u in self.sweep_points(name):
                v, w = rng.uniform(-1, 1, (2, dim))
                reps.append(self.fit(groupoid.psi_composition_check(gchart, u, v, w, self.t_grid)))
            worst_rep = _worst_rate(reps)
            return Outcome({"chart": name, "seed": seed}, _verdict(worst_rep.passed), worst_rep.residuals, worst_rep.slope)

    def _groupoid_diffeo_checks(self, spec, check):
        tol = self.tol
        if self.preserving_residual(spec) >= tol["preserve"]:
            return
        src_chart = self.charts[spec.source]
        dst_chart = self.charts[spec.target]
        base = self.base_points(spec.source, limit=3, shrink=0.1)

        @check(f"groupoid/{spec.name}/transition-limit", "groupoid-chart.transition-limit")
        def transition_limit():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{spec.name}/transition")
            reps = []
            for x in base:
                X = rng.uniform(-1, 1, self.manifest.dim)
                reps.append(self.fit(groupoid.transition_rate_check(src_chart, dst_chart, spec.fwd, x, X, self.t_grid)))
            worst_rep = _worst_rate(reps)
            return Outcome({"diffeo": spec.name, "seed": seed}, _verdict(worst_rep.passed), worst_rep.residuals, worst_rep.slope)

        @check(f"groupoid/{spec.name}/continuity-chart-independence", "groupoid.continuity-chart-independence")
        def chart_independence():
            x = base[0]
            hm = src_chart.eps(x)
            X = 0.4 * np.ones(self.manifest.dim)
            ts = 2.0 ** -np.arange(max(3, self.manifest.t_grid_range[0]), self.manifest.t_grid_range[1])
            qs = hm.inverse(group.dilate(ts[:, None], X))
            rep1 = groupoid.continuity_check(hm, qs, ts, X, tol["continuity"])
            rep2 = groupoid.continuity_chart_independence(src_chart, dst_chart, spec.fwd, x, qs, ts, X, tol=1e-2)
            return Outcome({"diffeo": spec.name}, _verdict(rep1.converged and rep2.converged), rep2.residuals)

        @check(f"groupoid/{spec.name}/functor", "groupoid.functoriality")
        def functor():
            if spec.inv is None:
                return Outcome(
                    {"diffeo": spec.name}, "flagged", value={"note": "no inverse declared; functor identities skipped"}
                )
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{spec.name}/functor")
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
            worst = worst_abs(lhs[1] - rhs[1], ru - dst_chart.range_of(image1)[0], x2 - x, X2 - Xv, t2 - t)
            return Outcome({"diffeo": spec.name, "seed": seed}, _verdict(worst < tol["functor"]), (worst,))


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
