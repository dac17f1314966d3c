"""Benchmark workloads: which manifests each one runs, and why.

A workload is a list of manifests, each passed to ``heisgeom run --suite all``.
Builtin manifests are passed by name; ``scale-h7`` is generated here from the
workload seed and passed by path.
"""

from __future__ import annotations

import json
from pathlib import Path

# Seed at which the reference reports under heisbench/reference/ were taken.
# At this seed groupoid/c7/composition-limit fails on scale-h7 (slope 0.84
# against 0.85): its first grid point, t = 1/4, is pre-asymptotic.
REFERENCE_SEED = 42

H7_NAME = "scale-h7"


def _mono(coeff, exps):
    return [float(coeff), list(exps)]


def _unit(dim, i, power=1):
    e = [0] * dim
    e[i] = power
    return e


def scale_h7_doc(seed: int) -> dict:
    """The 7-dimensional contact manifest with a degree-3 frame.

    T = d0,  X_j = dj + (x_{3+j} + 1.2 x_j^2 + 0.3 x_j^3) d0,
    Y_j = d_{3+j} - (x_j + 0.5 x_{3+j}^3) d0,  j = 1..3,
    on the box [-2, 2]^7.  [X_j, Y_j] = -2 d0, so the Levi matrix has the H7
    pattern.  The seed becomes the manifest's config seed; it drives every
    randomized check.
    """
    n, dim = 3, 7
    zero = [0] * dim
    frame = [[[_mono(1.0, zero)]] + [[] for _ in range(dim - 1)]]
    for j in range(1, n + 1):
        comps = [[] for _ in range(dim)]
        comps[0] = [
            _mono(1.0, _unit(dim, n + j)),
            _mono(1.2, _unit(dim, j, 2)),
            _mono(0.3, _unit(dim, j, 3)),
        ]
        comps[j] = [_mono(1.0, zero)]
        frame.append(comps)
    for j in range(1, n + 1):
        comps = [[] for _ in range(dim)]
        comps[0] = [_mono(-1.0, _unit(dim, j)), _mono(-0.5, _unit(dim, n + j, 3))]
        comps[n + j] = [_mono(1.0, zero)]
        frame.append(comps)
    levi = [[0.0] * (dim - 1) for _ in range(dim - 1)]
    for j in range(n):
        levi[j][n + j] = -2.0
        levi[n + j][j] = 2.0
    return {
        "name": H7_NAME,
        "dimension": dim,
        "charts": [
            {
                "name": "c7",
                "domain": [[-2.0, 2.0]] * dim,
                "frame": frame,
                "expected_levi": levi,
                "expected_type": "H7",
            }
        ],
        "diffeos": [],
        "metrics": {},
        "config": {"jet_order": 3, "seed": int(seed), "t_grid": [2, 12], "samples": {"tuples": 200}},
    }


WORKLOADS = {
    # Frame normalization: two 5-dimensional builtins whose run time is
    # dominated by heisenberg_map -> PolyMap.jacobian -> Jet.__call__/partial
    # and by the groupoid axioms check.  The largest jet table is the order-6
    # one of the dilation check, 462 monomials; in the traced baseline its 8
    # table builds took 0.15 s of an ~11 s pass.  Batched frame evaluation
    # shows its gain here.
    "normalize-h5": ["heisenberg5", "degenerate-rank2"],
    # Diffeomorphisms: the only workload with them (five, one a negative
    # control, plus a two-chart transition), so the only one that exercises
    # approx, groupoid transitions and morphisms, pushforward_preserves_H and
    # many short rate fits.  Jets are composed and inverted as whole maps;
    # per-check overhead and orchestration changes show here first.
    "diffeo-h3": ["heisenberg3", "contact-darboux", "foliation-flat"],
    # Scaling: a generated H7 contact manifest with a cubic frame.  The
    # dilation-limit check works at order 8 and builds jet_space(7, 8), whose
    # O(size^2) table build and 2187 x 6435 monomial matrix dominate time and
    # peak RSS.  The composition-limit and psi-claim rate fits fail at some
    # seeds, the reference seed among them.
    "scale-h7": [H7_NAME],
}


def manifest_args(names, seed: int, workdir: Path) -> list:
    """The ``--manifest`` values for manifest names, writing generated ones to workdir."""
    out = []
    for name in names:
        if name == H7_NAME:
            path = Path(workdir) / f"{H7_NAME}-{seed}.json"
            path.write_text(json.dumps(scale_h7_doc(seed), indent=1), encoding="utf-8")
            out.append(str(path))
        else:
            out.append(name)
    return out
