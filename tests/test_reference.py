"""Every builtin's checks, and those of the generated scale-h7 manifest, at the
benchmark's reference seed agree with the reference reports under
heisbench/reference/, compared by the benchmark's own `compare`: a refactor
that moves a verdict, a digest or a residual beyond the benchmark's tolerance
fails here."""

import sys
from pathlib import Path

import pytest

from heisgeom.manifests import Manifest, builtin_names, load_doc
from heisgeom.suites import run_suites

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from reference import compare, load_reference  # noqa: E402
from workloads import H7_NAME, REFERENCE_SEED, scale_h7_doc  # noqa: E402


@pytest.mark.parametrize("name", [*builtin_names(), H7_NAME])
def test_checks_match_benchmark_reference(name):
    doc = scale_h7_doc(REFERENCE_SEED) if name == H7_NAME else load_doc(name)
    manifest = Manifest.from_dict(doc, seed=REFERENCE_SEED)
    checks = [rec.to_json() for rec in run_suites(manifest, "all")]
    # compare lists (id, reason, wrong); a non-pass verdict that the reference
    # also has, such as scale-h7's composition-limit fail, is not wrong
    assert [entry for entry in compare(checks, load_reference(name), exact=True) if entry[2]] == []


@pytest.mark.parametrize("seed", [8, 15, REFERENCE_SEED])
def test_scale_h7_passes_every_check(seed):
    # at these seeds a whole-grid fit of composition-limit (and at 8 of
    # psi-claim) fell below slope_min on a pre-asymptotic head at large t
    manifest = Manifest.from_dict(scale_h7_doc(seed), seed=seed)
    assert [(rec.check_id, rec.verdict) for rec in run_suites(manifest, "all") if rec.verdict != "pass"] == []
