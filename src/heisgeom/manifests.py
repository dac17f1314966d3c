"""Manifest ingestion and the built-in example manifests.

A manifest is one JSON document:

    {
      "name": ...,
      "dimension": d + 1,
      "charts": [{"name", "domain": [[lo, hi], ...],
                  "frame": [field][component] -> [[coeff, [exponents]], ...],
                  "expected_levi": optional d x d matrix,
                  "expected_type": optional label}],
      "diffeos": [{"name", "source", "target",
                   "components": [[ [coeff, [exponents]], ...], ...],
                   "inverse": optional, same shape}],
      "metrics": {"name": d x d SPD matrix, ...},
      "config": {"jet_order", "seed", "t_grid": [kmin, kmax],
                 "samples": {...}, "tolerances": {...}}
    }

Polynomials are sparse monomial lists [coefficient, exponent-vector]; degrees
must not exceed the jet order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fields import Box, HFrame, VectorField
from .group import canonical_constants
from .jets import PolyMap, jet_space


class ValidationError(ValueError):
    """Manifest fails schema or consistency validation."""


DEFAULT_TOLERANCES = {
    "levi_antisym": 1e-10,
    "levi_golden": 1e-12,
    "levi_fd": 1e-6,
    "b_levi": 1e-10,
    "normalization": 1e-10,
    "model_fields": 1e-10,
    "model_structure": 1e-10,
    "shear_grading": 1e-12,
    "group_axioms": 1e-12,
    "commutator": 1e-12,
    "pseudo_norm": 1e-12,
    "shear_homomorphism": 1e-10,
    "classify_relations": 1e-8,
    "preserve": 1e-10,
    "quad_coeffs": 1e-10,
    "negative_control": 1e-6,
    "slope_min": 0.85,
    "uniformity": 0.1,
    "roundtrip": 1e-10,
    "functor": 1e-10,
    "composability": 1e-9,
    "continuity": 1e-6,
    "zero_floor": 1e-10,
    "flat_exact": 1e-15,
}

DEFAULT_SAMPLES = {
    "per_axis": 3,
    "base_limit": 30,
    "shrink": 0.25,
    "tuples": 1000,
    "sweep_tuples": 4,
}


# Bounds on config.samples, from what the checks build.  groupoid/*/axioms
# composes `tuples` element pairs as arrays, and the (tuples, dim, dim)
# matrices of their Heisenberg maps dominate: tracemalloc reads a peak of
# about 55 B per tuple * dim^2 in dimensions 3, 5 and 7, so tuples * dim^2
# <= 9e5 keeps it near 50 MB in every dimension (the group checks'
# (3, tuples, dim) arrays are smaller).  `base_limit`
# and `sweep_tuples` count base points, each with its own Heisenberg maps and
# rate sweeps: 1e3 of each run in about 5 s in dimension 3.  `Box.grid`
# thins the per_axis ** dimension grid by float64 indices, exact to 2^53.
_MAX_TUPLE_ENTRIES = 900_000
_MAX_POINTS = 1_000
_MAX_GRID = 2**53


def _check_samples(samples: dict, dim: int):
    caps = {"tuples": _MAX_TUPLE_ENTRIES // dim**2, "base_limit": _MAX_POINTS, "sweep_tuples": _MAX_POINTS}
    for key, cap in caps.items():
        if not 1 <= samples[key] <= cap:
            raise ValidationError(f"config.samples.{key}: {samples[key]} is outside [1, {cap}] in dimension {dim}")
    # per_axis >= 2 in dimension >= 54 has over 2^53 points, so the powers stay small
    per_axis = samples["per_axis"]
    if not 1 <= per_axis or min(per_axis, _MAX_GRID + 1) ** min(dim, 54) > _MAX_GRID:
        raise ValidationError(f"config.samples.per_axis: {per_axis} ** {dim} grid points is outside [1, 2^53]")
    if not 0 < samples["shrink"] <= 1:
        raise ValidationError(f"config.samples.shrink: {samples['shrink']} is outside (0, 1]")


def _config_number(val, kind, where):
    """`val` as an exact `kind` (int or float), else a ValidationError naming `where`."""
    try:
        if not isinstance(val, bool) and float(val) == kind(val):  # rejects 2.5 as an int, and nan
            return kind(val)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{where}: {val!r} is not {'an integer' if kind is int else 'a number'}")


def _check_jet_space(dim: int, order: int):
    """The frames are read into jet_space(dim, order), where a dense product
    forms comb(order + 2 dim, order) column pairs, as many as the monomials of
    degree <= order in 2 dim variables; refuse more than 2e6 (jet_space(7, 8)
    forms 319,770), counting no further than that."""
    size = 1
    for i in range(1, order + 1):
        size = size * (2 * dim + i) // i  # comb(2 dim + i, i)
        if size > 2_000_000:
            raise ValidationError(f"jet order {order} in dimension {dim} needs over 2e6 monomial products")


def _typed(val, kind, where):
    """`val` if it is a JSON object (`kind` dict) or array (list), else a
    ValidationError naming `where`."""
    if not isinstance(val, kind):
        raise ValidationError(f"{where}: expected {'an object' if kind is dict else 'a list'}, got {type(val).__name__}")
    return val


def _float_array(val, shape, where) -> np.ndarray:
    """`val` as a finite float array of `shape`, else a ValidationError naming `where`."""
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: not an array of numbers") from exc
    if arr.shape != shape:
        raise ValidationError(f"{where}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where}: non-finite entry")
    return arr


def _parse_poly_terms(entry, dim, max_degree, where):
    terms = {}
    if not isinstance(entry, list):
        raise ValidationError(f"{where}: expected a list of [coeff, exponents] pairs")
    for k, item in enumerate(entry):
        try:
            coeff, exps = item
            exps = tuple(_config_number(e, int, f"{where}[{k}]") for e in exps)
            coeff = float(coeff)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{where}[{k}]: malformed monomial {item!r}") from exc
        if len(exps) != dim:
            raise ValidationError(f"{where}[{k}]: exponent vector has arity {len(exps)}, expected {dim}")
        if any(e < 0 for e in exps):
            raise ValidationError(f"{where}[{k}]: negative exponent")
        if sum(exps) > max_degree:
            raise ValidationError(
                f"{where}[{k}]: degree {sum(exps)} exceeds the jet order {max_degree}"
            )
        terms[exps] = terms.get(exps, 0.0) + coeff
    return terms


def _parse_polymap(entries, dim_in, n_out, order, where) -> PolyMap:
    if len(_typed(entries, list, where)) != n_out:
        raise ValidationError(f"{where}: expected {n_out} components, got {len(entries)}")
    rows, exps, coeffs = [], [], []
    for i, entry in enumerate(entries):
        for exp, coeff in _parse_poly_terms(entry, dim_in, order, f"{where}[{i}]").items():
            if not np.isfinite(coeff):
                raise ValidationError(f"{where}[{i}]: non-finite coefficient {coeff!r}")
            rows.append(i)
            exps.append(exp)
            coeffs.append(coeff)
    s = jet_space(dim_in, order)
    table = np.zeros((n_out, s.size))
    np.add.at(table, (rows, s.columns(np.array(exps, dtype=np.int64).reshape(-1, dim_in))), coeffs)
    return PolyMap._of(s, table, np.zeros(dim_in))


@dataclass(frozen=True, eq=False)
class ChartSpec:
    name: str
    frame: HFrame
    expected_levi: np.ndarray | None
    expected_type: str | None


@dataclass(frozen=True, eq=False)
class DiffeoSpec:
    name: str
    source: str
    target: str
    fwd: PolyMap
    inv: PolyMap | None


@dataclass(frozen=True, eq=False)
class Manifest:
    name: str
    dim: int
    charts: tuple
    diffeos: tuple
    metrics: dict
    jet_order: int
    seed: int | None
    t_grid_range: tuple
    samples: dict
    tolerances: dict

    @property
    def d(self) -> int:
        return self.dim - 1

    def chart(self, name: str) -> ChartSpec:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(name)

    @classmethod
    def from_dict(
        cls, doc: dict, jet_order: int | None = None, seed: int | None = None, tol: dict | None = None
    ) -> "Manifest":
        """The validated manifest; `jet_order`, `seed` and `tol` (the --tol
        overrides, name -> number or numeric string) take precedence over its config."""
        doc = _typed(doc, dict, "manifest")
        try:
            name = str(doc["name"])
            dim = _config_number(doc["dimension"], int, "dimension")
            charts_doc = _typed(doc["charts"], list, "charts")
        except KeyError as exc:
            raise ValidationError(f"manifest missing required field: {exc}") from exc
        if dim < 2:
            raise ValidationError("dimension must be at least 2 (one transverse + one horizontal)")
        config = _typed(doc.get("config", {}), dict, "config")
        order = _config_number(jet_order if jet_order is not None else config.get("jet_order", 3), int, "config.jet_order")
        if order < 1:
            raise ValidationError("jet order must be >= 1")
        _check_jet_space(dim, order)
        use_seed = seed if seed is not None else config.get("seed")
        if use_seed is not None:
            use_seed = _config_number(use_seed, int, "config.seed")

        charts = []
        seen = set()
        for ci, cdoc in enumerate(charts_doc):
            where = f"charts[{ci}]"
            cdoc = _typed(cdoc, dict, where)
            cname = str(cdoc.get("name", f"chart{ci}"))
            if cname in seen:
                raise ValidationError(f"{where}: duplicate chart name {cname!r}")
            seen.add(cname)
            dom = _float_array(cdoc.get("domain"), (dim, 2), f"{where}.domain")
            if np.any(dom[:, 1] <= dom[:, 0]):
                raise ValidationError(f"{where}.domain: empty box")
            frame_doc = cdoc.get("frame")
            if not isinstance(frame_doc, list) or len(frame_doc) != dim:
                raise ValidationError(f"{where}.frame: expected {dim} vector fields")
            fields = []
            for fi, fdoc in enumerate(frame_doc):
                pm = _parse_polymap(fdoc, dim, dim, order, f"{where}.frame[{fi}]")
                fields.append(VectorField(pm))
            frame = HFrame(tuple(fields), Box(dom[:, 0], dom[:, 1]))
            exp_levi = cdoc.get("expected_levi")
            if exp_levi is not None:
                exp_levi = _float_array(exp_levi, (dim - 1, dim - 1), f"{where}.expected_levi")
            charts.append(ChartSpec(cname, frame, exp_levi, cdoc.get("expected_type")))

        diffeos = []
        for di, ddoc in enumerate(_typed(doc.get("diffeos", []), list, "diffeos")):
            where = f"diffeos[{di}]"
            ddoc = _typed(ddoc, dict, where)
            dname = str(ddoc.get("name", f"diffeo{di}"))
            src, dst = str(ddoc.get("source")), str(ddoc.get("target"))
            if src not in seen or dst not in seen:
                raise ValidationError(f"{where}: unknown source/target chart")
            fwd = _parse_polymap(ddoc.get("components"), dim, dim, order, f"{where}.components")
            inv = None
            if "inverse" in ddoc:
                inv = _parse_polymap(ddoc["inverse"], dim, dim, order, f"{where}.inverse")
            diffeos.append(DiffeoSpec(dname, src, dst, fwd, inv))

        metrics = {}
        for mname, mat in _typed(doc.get("metrics", {}), dict, "metrics").items():
            g = _float_array(mat, (dim - 1, dim - 1), f"metrics[{mname}]")
            if np.max(np.abs(g - g.T)) > 1e-12:
                raise ValidationError(f"metrics[{mname}]: not symmetric")
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"metrics[{mname}]: not positive definite") from exc
            metrics[str(mname)] = g

        t_grid = _typed(config.get("t_grid", [2, 12]), list, "config.t_grid")
        t_range = tuple(_config_number(k, int, f"config.t_grid[{i}]") for i, k in enumerate(t_grid))
        # 2^-k underflows to zero past k = 1074
        if len(t_range) != 2 or not 1 <= t_range[0] < t_range[1] <= 1074:
            raise ValidationError("config.t_grid must be [kmin, kmax] with 1 <= kmin < kmax <= 1074")
        samples = {**DEFAULT_SAMPLES, **_typed(config.get("samples", {}), dict, "config.samples")}
        for key, default in DEFAULT_SAMPLES.items():
            samples[key] = _config_number(samples[key], type(default), f"config.samples.{key}")
        _check_samples(samples, dim)
        given = _typed(config.get("tolerances", {}), dict, "config.tolerances")
        tolerances = dict(DEFAULT_TOLERANCES)
        for where, entries in (("config.tolerances", given), ("--tol", tol or {})):
            for key, val in entries.items():
                if key not in tolerances:
                    raise ValidationError(f"{where}: unknown tolerance {key!r}; known: {', '.join(sorted(tolerances))}")
                tolerances[key] = _config_number(val, float, f"{where}.{key}")
        return cls(
            name,
            dim,
            tuple(charts),
            tuple(diffeos),
            metrics,
            order,
            use_seed,
            t_range,
            samples,
            tolerances,
        )

    def validate_diffeo_inverses(self):
        """phi^-1 . phi = id spot check on declared inverses, on at most 8
        points of a 2-per-axis grid."""
        for spec in self.diffeos:
            if spec.inv is None:
                continue
            src = self.chart(spec.source)
            pts = src.frame.domain.shrunk(0.2).grid(2, limit=8)
            round1 = spec.inv.eval_many(spec.fwd.eval_many(pts))
            if np.max(np.abs(round1 - pts)) > 1e-9:
                raise ValidationError(f"diffeos[{spec.name}]: declared inverse fails phi^-1(phi(x)) = x")


# -- builtin example manifests -------------------------------------------------


def _heisenberg_frame_doc(n: int):
    dim = 2 * n + 1
    zero = [0] * dim

    def e(i):
        v = [0] * dim
        v[i] = 1
        return v

    frame = [[[[1.0, zero]] if i == 0 else [] for i in range(dim)]]
    for j in range(1, n + 1):
        comps = [[] for _ in range(dim)]
        comps[0] = [[1.0, e(n + j)]]
        comps[j] = [[1.0, zero]]
        frame.append(comps)
    for j in range(1, n + 1):
        comps = [[] for _ in range(dim)]
        comps[0] = [[-1.0, e(j)]]
        comps[n + j] = [[1.0, zero]]
        frame.append(comps)
    return frame


def _box(dim, half):
    return [[-half, half]] * dim


def _builtin_heisenberg3():
    zero3 = [0, 0, 0]
    return {
        "name": "heisenberg3",
        "dimension": 3,
        "charts": [
            {
                "name": "hb3",
                "domain": _box(3, 10.0),
                "frame": _heisenberg_frame_doc(1),
                "expected_levi": canonical_constants(2, 1).tolist(),
                "expected_type": "H3",
            }
        ],
        "diffeos": [
            {
                "name": "left-translate",
                "source": "hb3",
                "target": "hb3",
                # y -> (0,1,0).y in the group law
                "components": [
                    [[1.0, [1, 0, 0]], [-1.0, [0, 0, 1]]],
                    [[1.0, zero3], [1.0, [0, 1, 0]]],
                    [[1.0, [0, 0, 1]]],
                ],
                "inverse": [
                    [[1.0, [1, 0, 0]], [1.0, [0, 0, 1]]],
                    [[-1.0, zero3], [1.0, [0, 1, 0]]],
                    [[1.0, [0, 0, 1]]],
                ],
            },
            {
                "name": "dilate-half",
                "source": "hb3",
                "target": "hb3",
                "components": [
                    [[0.25, [1, 0, 0]]],
                    [[0.5, [0, 1, 0]]],
                    [[0.5, [0, 0, 1]]],
                ],
                "inverse": [
                    [[4.0, [1, 0, 0]]],
                    [[2.0, [0, 1, 0]]],
                    [[2.0, [0, 0, 1]]],
                ],
            },
            {
                "name": "rotate",
                "source": "hb3",
                "target": "hb3",
                "components": [
                    [[1.0, [1, 0, 0]]],
                    [[0.8, [0, 1, 0]], [-0.6, [0, 0, 1]]],
                    [[0.6, [0, 1, 0]], [0.8, [0, 0, 1]]],
                ],
                "inverse": [
                    [[1.0, [1, 0, 0]]],
                    [[0.8, [0, 1, 0]], [0.6, [0, 0, 1]]],
                    [[-0.6, [0, 1, 0]], [0.8, [0, 0, 1]]],
                ],
            },
            {
                # negative control: vertical shear against the *same* frame is
                # not H-preserving and must trip the quadratic detector
                "name": "noncontact-shear",
                "source": "hb3",
                "target": "hb3",
                "components": [
                    [[1.0, [1, 0, 0]], [1.0, [0, 1, 1]]],
                    [[1.0, [0, 1, 0]]],
                    [[1.0, [0, 0, 1]]],
                ],
                "inverse": [
                    [[1.0, [1, 0, 0]], [-1.0, [0, 1, 1]]],
                    [[1.0, [0, 1, 0]]],
                    [[1.0, [0, 0, 1]]],
                ],
            },
        ],
        "metrics": {"spd": [[1.5, 0.4], [0.4, 1.1]]},
        "config": {"jet_order": 3, "seed": 20260810, "t_grid": [2, 12]},
    }


def _builtin_heisenberg5():
    return {
        "name": "heisenberg5",
        "dimension": 5,
        "charts": [
            {
                "name": "hb5",
                "domain": _box(5, 10.0),
                "frame": _heisenberg_frame_doc(2),
                "expected_levi": canonical_constants(4, 2).tolist(),
                "expected_type": "H5",
            }
        ],
        "diffeos": [],
        "metrics": {},
        "config": {"jet_order": 3, "seed": 20260810, "t_grid": [2, 12], "samples": {"base_limit": 25}},
    }


def _builtin_foliation_flat():
    zero3 = [0, 0, 0]
    return {
        "name": "foliation-flat",
        "dimension": 3,
        "charts": [
            {
                "name": "flat",
                "domain": _box(3, 10.0),
                "frame": [
                    [[[1.0, zero3]], [], []],
                    [[], [[1.0, zero3]], []],
                    [[], [], [[1.0, zero3]]],
                ],
                "expected_levi": [[0.0, 0.0], [0.0, 0.0]],
                "expected_type": "R3",
            }
        ],
        "diffeos": [],
        "metrics": {},
        "config": {"jet_order": 3, "seed": 20260810, "t_grid": [2, 12]},
    }


def _builtin_contact_darboux():
    zero3 = [0, 0, 0]
    return {
        "name": "contact-darboux",
        "dimension": 3,
        "charts": [
            {
                "name": "darboux0",
                "domain": _box(3, 10.0),
                "frame": _heisenberg_frame_doc(1),
                "expected_levi": canonical_constants(2, 1).tolist(),
                "expected_type": "H3",
            },
            {
                # image of darboux0 under the cubic vertical shear below:
                # X_1' = d_1 + (2 x_2 + 1.2 x_1^2) d_0, X_2' = d_2
                "name": "darboux1",
                "domain": _box(3, 60.0),
                "frame": [
                    [[[1.0, zero3]], [], []],
                    [[[2.0, [0, 0, 1]], [1.2, [0, 2, 0]]], [[1.0, zero3]], []],
                    [[], [], [[1.0, zero3]]],
                ],
                "expected_levi": canonical_constants(2, 1).tolist(),
                "expected_type": "H3",
            },
        ],
        "diffeos": [
            {
                "name": "darboux-change",
                "source": "darboux0",
                "target": "darboux1",
                "components": [
                    [[1.0, [1, 0, 0]], [1.0, [0, 1, 1]], [0.4, [0, 3, 0]]],
                    [[1.0, [0, 1, 0]]],
                    [[1.0, [0, 0, 1]]],
                ],
                "inverse": [
                    [[1.0, [1, 0, 0]], [-1.0, [0, 1, 1]], [-0.4, [0, 3, 0]]],
                    [[1.0, [0, 1, 0]]],
                    [[1.0, [0, 0, 1]]],
                ],
            }
        ],
        "metrics": {},
        "config": {"jet_order": 3, "seed": 20260810, "t_grid": [2, 12]},
    }


def _builtin_degenerate_rank2():
    zero5 = [0] * 5

    def e(i):
        v = [0] * 5
        v[i] = 1
        return v

    x3sq = [0, 0, 0, 2, 0]
    L = np.zeros((4, 4))
    L[0, 1], L[1, 0] = -2.0, 2.0
    return {
        "name": "degenerate-rank2",
        "dimension": 5,
        "charts": [
            {
                "name": "deg",
                "domain": _box(5, 10.0),
                "frame": [
                    [[[1.0, zero5]], [], [], [], []],
                    [[[1.0, e(2)]], [[1.0, zero5]], [], [], []],
                    [[[-1.0, e(1)]], [], [[1.0, zero5]], [], []],
                    [[[1.0, x3sq]], [], [], [[1.0, zero5]], []],
                    [[], [], [], [], [[1.0, zero5]]],
                ],
                "expected_levi": L.tolist(),
                "expected_type": "H3xR2",
            }
        ],
        "diffeos": [],
        "metrics": {
            "spd": [
                [2.0, 0.3, 0.0, 0.1],
                [0.3, 1.5, 0.2, 0.0],
                [0.0, 0.2, 1.8, -0.25],
                [0.1, 0.0, -0.25, 1.2],
            ]
        },
        "config": {"jet_order": 3, "seed": 20260810, "t_grid": [2, 12], "samples": {"base_limit": 25}},
    }


BUILTIN_DOCS = {
    "heisenberg3": _builtin_heisenberg3,
    "heisenberg5": _builtin_heisenberg5,
    "foliation-flat": _builtin_foliation_flat,
    "contact-darboux": _builtin_contact_darboux,
    "degenerate-rank2": _builtin_degenerate_rank2,
}


def builtin_names() -> list:
    return sorted(BUILTIN_DOCS)


def builtin_doc(name: str) -> dict:
    try:
        return BUILTIN_DOCS[name]()
    except KeyError as exc:
        raise KeyError(f"unknown builtin manifest {name!r}; available: {', '.join(builtin_names())}") from exc


def load_doc(name_or_path) -> dict:
    """Raw manifest document from a builtin name or a JSON file path."""
    if str(name_or_path) in BUILTIN_DOCS:
        return builtin_doc(str(name_or_path))
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_manifest(name_or_path, jet_order: int | None = None, seed: int | None = None) -> Manifest:
    """Builtin name or JSON file path."""
    return Manifest.from_dict(load_doc(name_or_path), jet_order=jet_order, seed=seed)
