"""Every builtin's checks at the benchmark's reference seed agree with the
reference reports under heisbench/reference/, compared by the benchmark's own
`compare`: a refactor that moves a verdict, a digest or a residual beyond the
benchmark's tolerance fails here."""

import sys
from pathlib import Path

import pytest

from heisgeom.manifests import Manifest, builtin_names, load_doc
from heisgeom.suites import run_suites

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "heisbench"))
from reference import compare, load_reference  # noqa: E402
from workloads import REFERENCE_SEED  # noqa: E402


@pytest.mark.parametrize("name", builtin_names())
def test_checks_match_benchmark_reference(name):
    manifest = Manifest.from_dict(load_doc(name), seed=REFERENCE_SEED)
    checks = [rec.to_json() for rec in run_suites(manifest, "all")]
    assert compare(checks, load_reference(name), exact=True) == []
