"""Check suites over a manifest: each check produces one record with a
stable id, a registry anchor, an inputs digest and a pass/fail/flagged
verdict; suites run in a worker pool and the record list is sorted by id so
parallelism never changes the report bytes."""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import approx, coords, group, groupoid
from .fields import LeviForm, pushforward_preserves_H
from .manifests import Manifest, ValidationError
from .rates import default_t_grid

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
    verdict: str  # pass / fail / flagged
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


def rng_for(seed: int, name: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.blake2b(f"{seed}:{name}".encode(), digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def _verdict(ok: bool, flagged: bool = False) -> str:
    if not ok:
        return "fail"
    return "flagged" if flagged else "pass"


SUITE_NAMES = ("levi", "coords", "group", "classify", "diffeo", "groupoid")


class SuiteRunner:
    """Builds and runs the selected checks for one manifest."""

    def __init__(self, manifest: Manifest, jobs: int = 4):
        self.manifest = manifest
        self.jobs = max(1, jobs)
        self.tol = manifest.tolerances
        self.t_grid = default_t_grid(*manifest.t_grid_range)
        self.charts = {c.name: groupoid.GroupoidChart(c.frame, c.name, self.tol["composability"]) for c in manifest.charts}
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
        hit = self._preserving.get(spec.name)
        if hit is None:
            src = self.manifest.chart(spec.source).frame
            dst = self.manifest.chart(spec.target).frame
            pts = self.base_points(spec.source, limit=12)
            hit = pushforward_preserves_H(spec.fwd, src, dst, pts, self.tol["preserve"]).max_residual
            self._preserving[spec.name] = hit
        return hit

    # -- check builders -----------------------------------------------------
    def collect(self, suite: str):
        checks = []
        man = self.manifest
        for chart in man.charts:
            if suite == "levi":
                checks += self._levi_checks(chart)
            elif suite == "coords":
                checks += self._coords_checks(chart)
            elif suite == "group":
                checks += self._group_checks(chart)
            elif suite == "classify":
                checks += self._classify_checks(chart)
            elif suite == "groupoid":
                checks += self._groupoid_chart_checks(chart)
        for spec in man.diffeos:
            if suite == "diffeo":
                checks += self._diffeo_checks(spec)
            elif suite == "groupoid":
                checks += self._groupoid_diffeo_checks(spec)
        return checks

    def run(self, suites) -> list:
        checks = []
        for suite in suites:
            checks += self.collect(suite)
        if not checks:
            return []
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            records = list(pool.map(lambda c: c(), checks))
        records.sort(key=lambda r: r.check_id)
        return records

    # -- levi -----------------------------------------------------------------
    def _levi_checks(self, chart):
        name = chart.name
        lf = self._levi[name]
        tol = self.tol

        def antisymmetry():
            pts = self.base_points(name)
            worst = 0.0
            for m in pts:
                raw = lf.raw_matrix(m)
                worst = max(worst, float(np.max(np.abs(raw + raw.T), initial=0.0)))
            return CheckRecord(
                f"levi/{name}/antisymmetry",
                "levi-form.antisymmetry",
                _digest({"manifest": self.manifest.name, "chart": name, "points": len(pts)}),
                _verdict(worst < tol["levi_antisym"]),
                (worst,),
            )

        def golden():
            pts = self.base_points(name)
            worst = 0.0
            sample_L = None
            for m in pts:
                L = lf.matrix(m).L
                if sample_L is None:
                    sample_L = L
                worst = max(worst, float(np.max(np.abs(L - chart.expected_levi))))
            return CheckRecord(
                f"levi/{name}/golden",
                "levi-form.golden",
                _digest({"manifest": self.manifest.name, "chart": name, "points": len(pts)}),
                _verdict(worst < tol["levi_golden"]),
                (worst,),
                value={"levi": [[round(v, 12) for v in row] for row in sample_L.tolist()]},
            )

        def bracket_fd():
            frame = chart.frame
            h = 1e-5
            worst = 0.0
            for m in self.base_points(name, limit=4):
                basis = frame.basis_at(m)
                L = lf.matrix(m).L
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
                        worst = max(worst, abs(omega[0] - L[j - 1, k - 1]))
            return CheckRecord(
                f"levi/{name}/bracket-fd",
                "levi-form.bracket-definition",
                _digest({"manifest": self.manifest.name, "chart": name, "h": h}),
                _verdict(worst < tol["levi_fd"]),
                (worst,),
            )

        checks = [antisymmetry, bracket_fd]
        if chart.expected_levi is not None:
            checks.append(golden)
        return checks

    # -- coords -----------------------------------------------------------------
    def _coords_checks(self, chart):
        name = chart.name
        frame = chart.frame
        lf = self._levi[name]
        tol = self.tol

        def b_levi():
            pts = self.base_points(name)
            worst = 0.0
            for m in pts:
                b = coords.heisenberg_map(frame, m).b
                worst = max(worst, float(np.max(np.abs(b.T - b - lf.matrix(m).L))))
            return CheckRecord(
                f"coords/{name}/b-levi",
                "privileged.b-vs-levi",
                _digest({"manifest": self.manifest.name, "chart": name, "points": len(pts)}),
                _verdict(worst < tol["b_levi"]),
                (worst,),
            )

        def normalization():
            worst = 0.0
            for m in self.base_points(name, limit=8):
                pm = coords.privileged_map(frame, m)
                worst = max(worst, float(np.max(np.abs(pm.A @ frame.matrix_at(m).T - np.eye(frame.dim)))))
                worst = max(worst, float(np.max(np.abs(pm.forward(m)))))
                bj = pm.b_matrix()
                worst = max(worst, float(np.max(np.abs(bj - coords.heisenberg_map(frame, m).b))))
            return CheckRecord(
                f"coords/{name}/normalization",
                "privileged.normalization",
                _digest({"manifest": self.manifest.name, "chart": name}),
                _verdict(worst < tol["normalization"]),
                (worst,),
            )

        def model_fields():
            worst = 0.0
            for m in self.base_points(name, limit=8):
                worst = max(worst, coords.heisenberg_map(frame, m).pushed_model_residual())
            return CheckRecord(
                f"coords/{name}/model-fields",
                "heisenberg-coords.model-fields",
                _digest({"manifest": self.manifest.name, "chart": name}),
                _verdict(worst < tol["model_fields"]),
                (worst,),
            )

        def model_structure():
            from .fields import bracket

            worst = 0.0
            for m in self.base_points(name, limit=4):
                hm = coords.heisenberg_map(frame, m)
                fields = hm.dilation_model_frame(3)
                L = hm.levi
                for j in range(1, frame.dim):
                    for k in range(1, frame.dim):
                        br = bracket(fields[j], fields[k])
                        got = br.components.components[0].coeffs.copy()
                        got[0] -= L[j - 1, k - 1]
                        worst = max(worst, float(np.max(np.abs(got))))
                        for c in br.components.components[1:]:
                            worst = max(worst, float(np.max(np.abs(c.coeffs))))
            return CheckRecord(
                f"coords/{name}/model-structure",
                "model-fields.structure-constants",
                _digest({"manifest": self.manifest.name, "chart": name}),
                _verdict(worst < tol["model_structure"]),
                (worst,),
            )

        def shear_grading():
            worst = 0.0
            for m in self.base_points(name, limit=8):
                hm = coords.heisenberg_map(frame, m)
                worst = max(worst, coords.graded_weight_violation(hm.shear.as_polymap(2)))
            return CheckRecord(
                f"coords/{name}/shear-grading",
                "heisenberg-coords.shear-grading",
                _digest({"manifest": self.manifest.name, "chart": name}),
                _verdict(worst < tol["shear_grading"]),
                (worst,),
            )

        def dilation_exact():
            m = self.base_points(name, limit=1)[0]
            rep = coords.dilation_limit_check(
                frame.fields[1], frame, m, self.t_grid, slope_min=tol["slope_min"]
            )
            return CheckRecord(
                f"coords/{name}/dilation-exact",
                "nilpotent-approx.dilation-limit",
                _digest({"manifest": self.manifest.name, "chart": name, "field": 1}),
                _verdict(rep.passed),
                rep.residuals,
                slope=rep.slope,
            )

        def dilation_perturbed():
            from .jets import Jet

            m = self.base_points(name, limit=1)[0]
            s = frame.fields[0].components.space
            e = tuple(2 if i == 1 else 0 for i in range(frame.dim))
            X = frame.fields[1] + frame.fields[0].scaled_by_jet(Jet.from_terms(s, {e: 1.0}))
            rep = coords.dilation_limit_check(X, frame, m, self.t_grid, slope_min=tol["slope_min"])
            return CheckRecord(
                f"coords/{name}/dilation-perturbed",
                "nilpotent-approx.dilation-limit",
                _digest({"manifest": self.manifest.name, "chart": name, "field": "perturbed"}),
                _verdict(rep.passed),
                rep.residuals,
                slope=rep.slope,
            )

        return [b_levi, normalization, model_fields, model_structure, shear_grading, dilation_exact, dilation_perturbed]

    # -- group -------------------------------------------------------------------
    def _group_checks(self, chart):
        name = chart.name
        tol = self.tol
        lf = self._levi[name]
        d = self.manifest.d
        n_tuples = int(self.manifest.samples["tuples"])

        def group_at_sample():
            m = self.base_points(name, limit=1)[0]
            return group.TangentGroup.from_matrix(lf.matrix(m).L)

        def axioms():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/axioms")
            G = group_at_sample()
            x, y, z = rng.uniform(-2, 2, (3, n_tuples, d + 1))
            worst = float(np.max(np.abs(G.mul(G.mul(x, y), z) - G.mul(x, G.mul(y, z)))))
            worst = max(worst, float(np.max(np.abs(G.mul(x, np.zeros(d + 1)) - x))))
            worst = max(worst, float(np.max(np.abs(G.mul(x, G.inverse(x))))))
            return CheckRecord(
                f"group/{name}/axioms",
                "tangent-group.axioms",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed, "n": n_tuples}),
                _verdict(worst < tol["group_axioms"]),
                (worst,),
            )

        def dilations():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/dilations")
            G = group_at_sample()
            x, y = rng.uniform(-2, 2, (2, n_tuples, d + 1))
            worst = 0.0
            for t in (-1.0, 0.5, 2.0, 10.0):
                worst = max(
                    worst,
                    float(np.max(np.abs(group.dilate(t, G.mul(x, y)) - G.mul(group.dilate(t, x), group.dilate(t, y))))),
                )
            return CheckRecord(
                f"group/{name}/dilation-automorphism",
                "tangent-group.dilations",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed, "n": n_tuples}),
                _verdict(worst < tol["group_axioms"]),
                (worst,),
            )

        def commutator():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/commutator")
            G = group_at_sample()
            x, y = rng.uniform(-2, 2, (2, n_tuples, d + 1))
            comm = G.commutator(x, y)
            want = np.einsum("nj,jk,nk->n", x[:, 1:], G.L, y[:, 1:])
            worst = float(np.max(np.abs(comm[:, 0] - want)))
            worst = max(worst, float(np.max(np.abs(comm[:, 1:]))))
            return CheckRecord(
                f"group/{name}/commutator",
                "tangent-group.commutator",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed, "n": n_tuples}),
                _verdict(worst < tol["commutator"]),
                (worst,),
            )

        def pseudo():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/pseudo")
            x = rng.uniform(-2, 2, (n_tuples, d + 1))
            worst = 0.0
            for t in (-3.0, 0.25, 7.0):
                worst = max(
                    worst,
                    float(np.max(np.abs(group.pseudo_norm(group.dilate(t, x)) - abs(t) * group.pseudo_norm(x)))),
                )
            return CheckRecord(
                f"group/{name}/pseudo-norm",
                "pseudo-norm.homogeneity",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed}),
                _verdict(worst < tol["pseudo_norm"]),
                (worst,),
            )

        def shear_transport():
            seed = self._needs_seed()
            rng = rng_for(seed, f"group/{name}/shear")
            m = self.base_points(name, limit=1)[0]
            b = coords.heisenberg_map(chart.frame, m).b
            csym = rng.uniform(-1, 1, (d, d))
            shear = group.GradedShear((csym + csym.T) / 2)
            pairs = [(rng.uniform(-2, 2, d + 1), rng.uniform(-2, 2, d + 1)) for _ in range(100)]
            worst = group.shear_homomorphism_residual(shear, b, pairs)
            normal = group.GradedShear(-(b + b.T) / 2)
            worst = max(worst, group.shear_homomorphism_residual(normal, b, pairs))
            bnew = normal.transport(b)
            worst_norm = float(np.max(np.abs(bnew - (b - b.T) / 2)))
            return CheckRecord(
                f"group/{name}/shear-transport",
                "graded-shear.transport",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed}),
                _verdict(max(worst, worst_norm) < tol["shear_homomorphism"]),
                (worst, worst_norm),
            )

        return [axioms, dilations, commutator, pseudo, shear_transport]

    # -- classify ------------------------------------------------------------------
    def _classify_checks(self, chart):
        name = chart.name
        tol = self.tol
        lf = self._levi[name]
        metrics = {"identity": None, **self.manifest.metrics}

        def one_metric(mname):
            def check():
                worst = 0.0
                flagged = False
                label = None
                rank = None
                for m in self.base_points(name, limit=4):
                    G = group.TangentGroup.from_matrix(lf.matrix(m).L)
                    g = metrics[mname]
                    cls = group.classify_fiber(G, metric=g)
                    rel = cls.relations(G.L)
                    worst = max(worst, float(np.max(np.abs(rel - group.canonical_constants(G.d, cls.n)))))
                    flagged = flagged or cls.flagged
                    label, rank = cls.label, cls.rank
                ok = worst < tol["classify_relations"]
                if chart.expected_type is not None:
                    ok = ok and label == chart.expected_type
                return CheckRecord(
                    f"classify/{name}/{mname}",
                    "fiber-classification.adapted-frame",
                    _digest({"manifest": self.manifest.name, "chart": name, "metric": mname}),
                    _verdict(ok, flagged),
                    (worst,),
                    value={"label": label, "rank": rank},
                )

            return check

        def metric_independence():
            results = set()
            for mname, g in metrics.items():
                for m in self.base_points(name, limit=4):
                    G = group.TangentGroup.from_matrix(lf.matrix(m).L)
                    cls = group.classify_fiber(G, metric=g)
                    results.add((cls.rank, cls.label))
            return CheckRecord(
                f"classify/{name}/metric-independence",
                "fiber-classification.metric-independence",
                _digest({"manifest": self.manifest.name, "chart": name, "metrics": sorted(metrics)}),
                _verdict(len(results) == 1),
                (float(len(results) - 1),),
                value={"types": sorted(f"{r}:{l}" for r, l in results)},
            )

        checks = [one_metric(mname) for mname in sorted(metrics)]
        if len(metrics) > 1:
            checks.append(metric_independence)
        return checks

    # -- diffeo --------------------------------------------------------------------
    def _diffeo_checks(self, spec):
        tol = self.tol
        src = self.manifest.chart(spec.source).frame
        dst = self.manifest.chart(spec.target).frame
        base = self.base_points(spec.source, limit=4, shrink=0.15)

        def quadratic():
            preserving = self.preserving_residual(spec) < tol["preserve"]
            worst = 0.0
            for m in base:
                conj = approx.conjugated_jets(spec.fwd, src, dst, m, order=self.manifest.jet_order)
                worst = max(worst, float(np.max(np.abs(approx.horizontal_quadratic(conj)), initial=0.0)))
            if preserving:
                return CheckRecord(
                    f"diffeo/{spec.name}/quadratic-vanishing",
                    "diffeo-approx.quadratic-vanishing",
                    _digest({"manifest": self.manifest.name, "diffeo": spec.name}),
                    _verdict(worst < tol["quad_coeffs"]),
                    (worst,),
                )
            # negative control: the detector must fire
            return CheckRecord(
                f"diffeo/{spec.name}/negative-control",
                "diffeo-approx.negative-control",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name}),
                _verdict(worst > tol["negative_control"]),
                (worst,),
            )

        def blocks():
            worst = 0.0
            a00 = None
            for m in base:
                T = approx.tangent_map_H(spec.fwd, src, dst, m)
                worst = max(worst, T.upper_residual)
                a00 = T.a00
            return CheckRecord(
                f"diffeo/{spec.name}/tangent-blocks",
                "tangent-map.block-structure",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name}),
                _verdict(worst < tol["preserve"]),
                (worst,),
                value={"a00": a00},
            )

        def rate():
            worst_rep = None
            for m in base:
                rep = approx.diffeo_expansion_check(
                    spec.fwd, src, dst, m, self.t_grid,
                    sample_half=0.6, slope_min=tol["slope_min"],
                    quad_tol=tol["quad_coeffs"], order=self.manifest.jet_order,
                    zero_floor=tol["zero_floor"],
                )
                if worst_rep is None or (not rep.rate.exact and (worst_rep.rate.exact or rep.rate.slope < worst_rep.rate.slope)):
                    worst_rep = rep
            return CheckRecord(
                f"diffeo/{spec.name}/rate",
                "diffeo-approx.scaled-limit",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name, "points": len(base)}),
                _verdict(worst_rep.passed),
                worst_rep.rate.residuals,
                slope=worst_rep.rate.slope,
            )

        def uniformity():
            slopes = []
            for m in base:
                rep = approx.diffeo_expansion_check(
                    spec.fwd, src, dst, m, self.t_grid,
                    sample_half=0.6, slope_min=tol["slope_min"],
                    quad_tol=tol["quad_coeffs"], order=self.manifest.jet_order,
                    zero_floor=tol["zero_floor"],
                )
                if not rep.rate.exact:
                    slopes.append(rep.rate.slope)
            spread = max(slopes) - min(slopes) if len(slopes) >= 2 else 0.0
            return CheckRecord(
                f"diffeo/{spec.name}/uniformity",
                "diffeo-approx.uniformity",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name, "points": len(base)}),
                _verdict(spread < tol["uniformity"]),
                (spread,),
            )

        if self.preserving_residual(spec) < tol["preserve"]:
            return [quadratic, blocks, rate, uniformity]
        return [quadratic]

    # -- groupoid --------------------------------------------------------------------
    def _groupoid_chart_checks(self, chart):
        name = chart.name
        tol = self.tol
        gchart = self.charts[name]
        dim = self.manifest.dim
        n_tuples = int(self.manifest.samples["tuples"])

        def axioms():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/axioms")
            p0 = self.base_points(name, limit=1)[0]
            worst = 0.0
            for _ in range(n_tuples):
                interior = rng.uniform() < 0.5
                if interior:
                    p, mm, q = rng.uniform(-1, 1, (3, dim))
                    t = float(rng.uniform(0.1, 2.0))
                    g1, g2 = groupoid.Interior(p, mm, t), groupoid.Interior(mm, q, t)
                else:
                    p = p0 + rng.uniform(-0.5, 0.5, dim)
                    X, Y = rng.uniform(-1, 1, (2, dim))
                    g1, g2 = groupoid.Boundary(p, X), groupoid.Boundary(p, Y)
                comp = gchart.compose(g1, g2)
                ru, su = gchart.range_of(comp), gchart.source_of(comp)
                worst = max(worst, float(np.max(np.abs(ru.m - gchart.range_of(g1).m))))
                worst = max(worst, float(np.max(np.abs(su.m - gchart.source_of(g2).m))))
                s1 = gchart.source_of(g1)
                left = gchart.compose(g1, gchart.iota(s1.m, s1.t))
                if isinstance(left, groupoid.Boundary):
                    worst = max(worst, float(np.max(np.abs(left.X - g1.X))))
                else:
                    worst = max(worst, float(np.max(np.abs(left.q - g1.q))))
                inv = gchart.inverse(g1)
                unit = gchart.compose(g1, inv)
                if isinstance(unit, groupoid.Boundary):
                    worst = max(worst, float(np.max(np.abs(unit.X))))
                else:
                    worst = max(worst, float(np.max(np.abs(unit.q - unit.p))))
            return CheckRecord(
                f"groupoid/{name}/axioms",
                "groupoid.axioms",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed, "n": n_tuples}),
                _verdict(worst < tol["group_axioms"]),
                (worst,),
            )

        def roundtrip():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/roundtrip")
            p0 = self.base_points(name, limit=1)[0]
            worst = 0.0
            for _ in range(25):
                x = p0 + rng.uniform(-0.3, 0.3, dim)
                X = rng.uniform(-1, 1, dim)
                t = float(rng.uniform(0.05, 0.5))
                e = gchart.gamma(x, X, t)
                x2, X2, t2 = gchart.gamma_inv(e)
                worst = max(worst, float(np.max(np.abs(x2 - x))), float(np.max(np.abs(X2 - X))), abs(t2 - t))
                b = gchart.gamma(x, X, 0.0)
                x2, X2, _ = gchart.gamma_inv(b)
                worst = max(worst, float(np.max(np.abs(X2 - X))))
            return CheckRecord(
                f"groupoid/{name}/chart-roundtrip",
                "groupoid-chart.roundtrip",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed}),
                _verdict(worst < tol["roundtrip"]),
                (worst,),
            )

        def rs_jacobian():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/rs")
            p0 = self.base_points(name, limit=1)[0]
            worst = np.inf
            for _ in range(8):
                x = p0 + rng.uniform(-0.3, 0.3, dim)
                X = rng.uniform(-1, 1, dim)
                t = float(rng.uniform(0.1, 1.0))
                Jr, Js = gchart.rs_jacobians(x, X, t)
                worst = min(worst, abs(np.linalg.det(Jr)), abs(np.linalg.det(Js)))
            return CheckRecord(
                f"groupoid/{name}/rs-jacobian",
                "groupoid.range-source-submersion",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed}),
                _verdict(worst > 1e-8),
                (float(worst),),
            )

        def continuity():
            x = self.sweep_points(name)[0]
            X = 0.5 * np.ones(dim)
            seq = []
            for k in range(self.manifest.t_grid_range[0], self.manifest.t_grid_range[1]):
                t = 2.0**-k
                seq.append((x, gchart.eps(x).inverse(group.dilate(t, X)), t))
            rep = groupoid.continuity_check(gchart, seq, X, tol["continuity"])
            return CheckRecord(
                f"groupoid/{name}/continuity",
                "groupoid.continuity-condition",
                _digest({"manifest": self.manifest.name, "chart": name}),
                _verdict(rep.converged and not rep.diverged),
                rep.residuals,
            )

        def continuity_negative():
            x = self.sweep_points(name)[0]
            v = 0.5 * np.ones(dim)
            seq = []
            for k in range(self.manifest.t_grid_range[0], self.manifest.t_grid_range[1]):
                t = 2.0**-k
                seq.append((x, gchart.eps(x).inverse(t * v), t))  # linear, not graded
            rep = groupoid.continuity_check(gchart, seq, v, tol["continuity"])
            return CheckRecord(
                f"groupoid/{name}/continuity-negative",
                "groupoid.continuity-negative",
                _digest({"manifest": self.manifest.name, "chart": name}),
                _verdict(rep.diverged),
                rep.residuals,
            )

        def composition_limit():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/composition")
            worst_rep = None
            flat = bool(np.max(np.abs(self._levi[name].matrix(self.sweep_points(name)[0]).L)) < 1e-14)
            exact_worst = 0.0
            for x in self.sweep_points(name):
                X, Y = rng.uniform(-1, 1, (2, dim))
                rep = groupoid.composition_limit_check(
                    self.charts[name], x, X, Y, self.t_grid,
                    slope_min=tol["slope_min"], zero_floor=tol["zero_floor"],
                )
                exact_worst = max(exact_worst, rep.rate.max_residual)
                if worst_rep is None or (not rep.rate.exact and (worst_rep.rate.exact or rep.rate.slope < worst_rep.rate.slope)):
                    worst_rep = rep
            ok = worst_rep.rate.passed
            if flat:
                ok = ok and exact_worst < tol["flat_exact"]
            return CheckRecord(
                f"groupoid/{name}/composition-limit",
                "groupoid.composition-limit",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed}),
                _verdict(ok),
                worst_rep.rate.residuals,
                slope=worst_rep.rate.slope,
            )

        def psi_claim():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{name}/psi")
            worst_rep = None
            for u in self.sweep_points(name):
                v, w = rng.uniform(-1, 1, (2, dim))
                rep = groupoid.psi_composition_check(
                    self.charts[name], u, v, w, self.t_grid,
                    slope_min=tol["slope_min"], zero_floor=tol["zero_floor"],
                )
                if worst_rep is None or (not rep.rate.exact and (worst_rep.rate.exact or rep.rate.slope < worst_rep.rate.slope)):
                    worst_rep = rep
            return CheckRecord(
                f"groupoid/{name}/psi-claim",
                "groupoid.privileged-composition-claim",
                _digest({"manifest": self.manifest.name, "chart": name, "seed": seed}),
                _verdict(worst_rep.rate.passed),
                worst_rep.rate.residuals,
                slope=worst_rep.rate.slope,
            )

        return [axioms, roundtrip, rs_jacobian, continuity, continuity_negative, composition_limit, psi_claim]

    def _groupoid_diffeo_checks(self, spec):
        tol = self.tol
        if self.preserving_residual(spec) >= tol["preserve"]:
            return []
        src_chart = self.charts[spec.source]
        dst_chart = self.charts[spec.target]
        base = self.base_points(spec.source, limit=3, shrink=0.1)

        def transition_limit():
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{spec.name}/transition")
            worst_rep = None
            for x in base:
                X = rng.uniform(-1, 1, self.manifest.dim)
                rep, _ = groupoid.transition_rate_check(
                    src_chart, dst_chart, spec.fwd, x, X, self.t_grid,
                    slope_min=tol["slope_min"], zero_floor=tol["zero_floor"],
                )
                if worst_rep is None or (not rep.exact and (worst_rep.exact or rep.slope < worst_rep.slope)):
                    worst_rep = rep
            return CheckRecord(
                f"groupoid/{spec.name}/transition-limit",
                "groupoid-chart.transition-limit",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name, "seed": seed}),
                _verdict(worst_rep.passed),
                worst_rep.residuals,
                slope=worst_rep.slope,
            )

        def chart_independence():
            x = base[0]
            X = 0.4 * np.ones(self.manifest.dim)
            seq = []
            for k in range(max(3, self.manifest.t_grid_range[0]), self.manifest.t_grid_range[1]):
                t = 2.0**-k
                seq.append((x, src_chart.eps(x).inverse(group.dilate(t, X)), t))
            rep1 = groupoid.continuity_check(src_chart, seq, X, tol["continuity"])
            rep2 = groupoid.continuity_chart_independence(
                src_chart, dst_chart, spec.fwd, seq, x, X, tol=1e-2
            )
            return CheckRecord(
                f"groupoid/{spec.name}/continuity-chart-independence",
                "groupoid.continuity-chart-independence",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name}),
                _verdict(rep1.converged and rep2.converged),
                rep2.residuals,
            )

        def functor():
            if spec.inv is None:
                return CheckRecord(
                    f"groupoid/{spec.name}/functor",
                    "groupoid.functoriality",
                    _digest({"manifest": self.manifest.name, "diffeo": spec.name}),
                    "flagged",
                    (),
                    value={"note": "no inverse declared; functor identities skipped"},
                )
            seed = self._needs_seed()
            rng = rng_for(seed, f"groupoid/{spec.name}/functor")
            morph = groupoid.GroupoidMorphism(spec.fwd, spec.inv, src_chart, dst_chart)
            worst = 0.0
            for _ in range(40):
                if rng.uniform() < 0.5:
                    p, mm, q = (base[0] + rng.uniform(-0.5, 0.5, self.manifest.dim) for _ in range(3))
                    t = float(rng.uniform(0.1, 1.5))
                    g1, g2 = groupoid.Interior(p, mm, t), groupoid.Interior(mm, q, t)
                else:
                    p = base[0] + rng.uniform(-0.5, 0.5, self.manifest.dim)
                    Xv, Yv = rng.uniform(-1, 1, (2, self.manifest.dim))
                    g1, g2 = groupoid.Boundary(p, Xv), groupoid.Boundary(p, Yv)
                lhs = morph.apply(src_chart.compose(g1, g2))
                rhs = dst_chart.compose(morph.apply(g1), morph.apply(g2))
                if isinstance(lhs, groupoid.Boundary):
                    worst = max(worst, float(np.max(np.abs(lhs.X - rhs.X))))
                else:
                    worst = max(worst, float(np.max(np.abs(lhs.q - rhs.q))))
                ru = morph.apply_unit(src_chart.range_of(g1))
                worst = max(worst, float(np.max(np.abs(ru.m - dst_chart.range_of(morph.apply(g1)).m))))
                # chart conjugation identity
                x = base[0] + rng.uniform(-0.3, 0.3, self.manifest.dim)
                Xv = rng.uniform(-1, 1, self.manifest.dim)
                t = float(rng.choice([0.0, 0.125, 0.5]))
                e = morph.gamma_precomposed(x, Xv, t)
                x2, X2, t2 = dst_chart.gamma_inv(morph.apply(e))
                worst = max(worst, float(np.max(np.abs(x2 - x))), float(np.max(np.abs(X2 - Xv))), abs(t2 - t))
            return CheckRecord(
                f"groupoid/{spec.name}/functor",
                "groupoid.functoriality",
                _digest({"manifest": self.manifest.name, "diffeo": spec.name, "seed": seed}),
                _verdict(worst < tol["functor"]),
                (worst,),
            )

        return [transition_limit, chart_independence, functor]


def run_suites(manifest: Manifest, selector: str, jobs: int = 4) -> list:
    if selector == "all":
        suites = list(SUITE_NAMES)
    elif selector in SUITE_NAMES:
        suites = [selector]
    else:
        raise ValidationError(f"unknown suite {selector!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    manifest.validate_diffeo_inverses()
    runner = SuiteRunner(manifest, jobs=jobs)
    records = runner.run(suites)
    for rec in records:
        if rec.anchor not in ANCHORS:
            raise AssertionError(f"orphan anchor {rec.anchor!r} on {rec.check_id}")
    return records
