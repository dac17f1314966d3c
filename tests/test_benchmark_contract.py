"""What the benchmark under `heisbench/` reads from the package.

The benchmark is versioned apart from `src/`, so a change to the package
can break it without failing any other test here.  These tests run its
microbenchmarks on small inputs and check that every name its tracer
self-test patches still exists."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
import micro  # noqa: E402

from heisgeom import approx, coords, fields, groupoid, jets, manifests, suites  # noqa: E402


def test_microbenchmarks_run():
    got = micro.space(3, 3)
    assert got["size"] == 20 and got["build_s"] >= 0 and got["mul_s"] > 0
    got = micro.frame(42)
    assert got["heisenberg_map_s"] > 0 and got["compose_s"] > 0


def test_the_names_the_tracer_patches_exist():
    for attr in ("partial", "__call__", "zero"):
        assert attr in vars(jets.Jet), attr
    assert "eps" in vars(groupoid.GroupoidChart)
    # the from-import aliases the tracer rebinds in each module
    assert groupoid.heisenberg_map is approx.heisenberg_map is coords.heisenberg_map
    assert manifests.jet_space is jets.jet_space
    assert suites.pushforward_preserves_H is fields.pushforward_preserves_H
