"""Layer microbenchmarks, one per process so that every jet_space build is cold.

    python3 heisbench/micro.py space DIM ORDER   cold jet_space build, then Jet * Jet
    python3 heisbench/micro.py frame SEED        heisenberg_map per point, PolyMap.compose

Prints one JSON object of timings.  Inputs come from SEED (``space`` uses
DIM * 1000 + ORDER), so a run repeats exactly.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np


def per_call(fn, min_seconds: float = 0.1, repeats: int = 5) -> float:
    """Median seconds per call of fn over `repeats` rounds of >= min_seconds."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_seconds / repeats:
            break
        n *= 2
    rounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        rounds.append((time.perf_counter() - t0) / n)
    return statistics.median(rounds)


def space(dim: int, order: int) -> dict:
    from heisgeom.jets import Jet, jet_space

    t0 = time.perf_counter()
    s = jet_space(dim, order)
    build = time.perf_counter() - t0
    rng = np.random.default_rng(dim * 1000 + order)
    a = Jet(s, rng.uniform(-1, 1, s.size), np.zeros(dim))
    b = Jet(s, rng.uniform(-1, 1, s.size), np.zeros(dim))
    return {"build_s": build, "size": s.size, "mul_s": per_call(lambda: a * b)}


def frame(seed: int) -> dict:
    from heisgeom.coords import heisenberg_map
    from heisgeom.jets import Jet, PolyMap, jet_space
    from heisgeom.manifests import load_manifest

    rng = np.random.default_rng(seed)
    fr = load_manifest("heisenberg5").charts[0].frame
    pts = iter(rng.uniform(-2.0, 2.0, (1 << 16, fr.dim)))
    hmap = per_call(lambda: heisenberg_map(fr, next(pts)))

    dim, order = 5, 4
    s = jet_space(dim, order)
    zero = np.zeros(dim)
    outer = PolyMap(tuple(Jet(s, rng.uniform(-1, 1, s.size), zero) for _ in range(dim)))
    inner_coeffs = rng.uniform(-1, 1, (dim, s.size))
    inner_coeffs[:, 0] = 0.0
    inner = PolyMap(tuple(Jet(s, c, zero) for c in inner_coeffs))
    compose = per_call(lambda: outer.compose(inner))
    return {"heisenberg_map_s": hmap, "compose_s": compose}


if __name__ == "__main__":
    kind = sys.argv[1]
    if kind == "space":
        result = space(int(sys.argv[2]), int(sys.argv[3]))
    elif kind == "frame":
        result = frame(int(sys.argv[2]))
    else:
        sys.exit(f"unknown microbenchmark {kind!r}")
    print(json.dumps(result))
