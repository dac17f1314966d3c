"""Self-tests of the heisgeom benchmark.

    python3 -m pytest heisbench/tests -q

The smoke test runs the benchmark itself on foliation-flat --suite levi and
takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings() -> dict:
    """Every module attribute, and every attribute of every class, of the heisgeom package."""
    import heisgeom.cli  # noqa: F401  (imports every module)

    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "heisgeom" or modname.startswith("heisgeom.")):
            continue
        for attr, obj in vars(mod).items():
            out[(modname, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == modname:
                for cattr, cobj in vars(obj).items():
                    out[(modname, attr, cattr)] = cobj
    return out


def test_tracer_installs_and_restores_every_wrapper():
    before = _bindings()
    tracer = Tracer().install()
    try:
        during = _bindings()
        changed = {key for key, obj in before.items() if during[key] is not obj}
        assert len(changed) == len(tracer.patched_names())
        for key in [
            ("heisgeom.coords", "heisenberg_map"),
            ("heisgeom.groupoid", "heisenberg_map"),
            ("heisgeom.approx", "heisenberg_map"),
            ("heisgeom.jets", "jet_space"),
            ("heisgeom.manifests", "jet_space"),
            ("heisgeom.suites", "pushforward_preserves_H"),
            ("heisgeom.jets", "Jet", "partial"),
            ("heisgeom.jets", "Jet", "__call__"),
            ("heisgeom.jets", "Jet", "zero"),
            ("heisgeom.groupoid", "GroupoidChart", "eps"),
        ]:
            assert key in changed, key
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert not tracer.installed
    assert all(after[key] is obj for key, obj in before.items())


def test_tracer_counts_calls_through_from_import_aliases():
    from heisgeom import approx, coords, groupoid
    from heisgeom.manifests import load_manifest

    frame = load_manifest("heisenberg3").charts[0].frame
    u = np.zeros(3)
    with Tracer() as tracer:
        coords.heisenberg_map(frame, u)
        groupoid.heisenberg_map(frame, u)
        approx.heisenberg_map(frame, u)
        chart = groupoid.GroupoidChart(frame)
        with ThreadPoolExecutor(max_workers=1) as pool:  # checks run in a worker thread
            pool.submit(lambda: [chart.eps(u), chart.eps(u)]).result()
    snap = tracer.snapshot()
    funcs = snap["functions"]
    assert funcs["coords.heisenberg_map"]["calls"] == 4
    assert funcs["groupoid.GroupoidChart.eps"]["calls"] == 2
    assert snap["edges"]["groupoid.GroupoidChart.eps -> coords.heisenberg_map"] == 1
    assert funcs["jets.PolyMap.jacobian"]["calls"] == 4 * 2  # one per horizontal field
    for row in funcs.values():
        assert 0 <= row["self_wall_s"] <= row["wall_s"] + 1e-9
        assert row["self_cpu_s"] <= row["cpu_s"] + 1e-9


def _ref_and_copy(name="scale-h7"):
    ref = reference.load_reference(name)
    return ref, copy.deepcopy(ref)


def _find(checks, cid):
    return next(c for c in checks if c["id"] == cid)


def test_reference_accepts_itself_and_tiny_float_noise():
    ref, checks = _ref_and_copy()
    assert reference.compare(checks, ref, exact=True) == [
        ("groupoid/c7/composition-limit", "verdict fail, as in the reference", False)
    ]
    for c in checks:
        c["residuals"] = [r * (1 + 1e-9) for r in c["residuals"]]
    assert all(not wrong for *_, wrong in reference.compare(checks, ref, exact=True))


def test_reference_flags_a_perturbed_residual():
    ref, checks = _ref_and_copy()
    target = next(c for c in checks if c["verdict"] == "pass" and c["residuals"] and c["residuals"][-1] > 1e-6)
    target["residuals"][-1] *= 1 + 1e-5
    bad = reference.compare(checks, ref, exact=True)
    assert (target["id"], "residuals differ from the reference", True) in bad
    # away from the reference seed only verdicts are compared
    assert all(cid != target["id"] for cid, *_ in reference.compare(checks, ref, exact=False))


def test_reference_flags_changed_inputs_and_values():
    ref, checks = _ref_and_copy()
    sampled = _find(checks, "groupoid/c7/axioms")
    sampled["inputs_digest"] = "0" * 12  # e.g. fewer sampled tuples, same tiny residuals
    labelled = _find(checks, "classify/c7/identity")
    labelled["value"] = {**labelled["value"], "rank": 4}
    bad = reference.compare(checks, ref, exact=True)
    assert ("groupoid/c7/axioms", "inputs digest differs from the reference", True) in bad
    assert ("classify/c7/identity", "residuals differ from the reference", True) in bad
    assert {cid for cid, *_ in reference.compare(checks, ref, exact=False)} == {"groupoid/c7/composition-limit"}


def test_reference_accepts_fail_to_pass_and_flags_pass_to_fail():
    ref, checks = _ref_and_copy()
    fixed = _find(checks, "groupoid/c7/composition-limit")
    fixed["verdict"], fixed["slope"] = "pass", 0.99
    fixed["residuals"] = [r / 2 for r in fixed["residuals"]]
    assert reference.compare(checks, ref, exact=True) == []

    broken = _find(checks, "groupoid/c7/psi-claim")
    broken["verdict"] = "fail"
    assert reference.compare(checks, ref, exact=True) == [
        ("groupoid/c7/psi-claim", "verdict fail, reference pass", True)
    ]
    # at another seed a rate fit may fail on its own: bad, but not wrong
    assert reference.compare(checks, ref, exact=False) == [
        ("groupoid/c7/psi-claim", "verdict fail, reference pass", False)
    ]


def test_reference_flags_missing_and_unknown_checks():
    ref, checks = _ref_and_copy("foliation-flat")
    dropped = checks.pop(0)
    checks.append({**checks[0], "id": "levi/flat/new-check"})
    bad = reference.compare(checks, ref, exact=False)
    assert ("levi/flat/new-check", "not in the reference", True) in bad
    assert (dropped["id"], "missing from the report", True) in bad


def test_scale_h7_manifest_comes_from_the_seed():
    from heisgeom.manifests import Manifest

    doc = workloads.scale_h7_doc(7)
    assert doc["config"]["seed"] == 7
    assert workloads.scale_h7_doc(7) == doc
    m = Manifest.from_dict(doc)
    assert (m.dim, m.jet_order, m.samples["tuples"]) == (7, 3, 200)
    assert max(jet.degree() for f in m.charts[0].frame.fields for jet in f.components.components) == 3


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    doc = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[key]} == table
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in doc["end_to_end"])
               for m in doc["end_to_end"])


def _smoke_argv(seed, trace=0):
    return ["--workload", "smoke", "--suite", "levi", "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]


@pytest.mark.parametrize("seed, wrong", [(workloads.REFERENCE_SEED, True), (3, False)])
def test_a_crashed_run_is_bad_and_wrong_at_the_reference_seed(seed, wrong, tmp_path, monkeypatch, capsys):
    crash = tmp_path / "crash.py"
    crash.write_text("raise RuntimeError('boom')\n", encoding="utf-8")
    monkeypatch.setattr(run, "TIMED_CLI", crash)
    monkeypatch.setitem(workloads.WORKLOADS, "smoke", ["foliation-flat"])
    assert run.main(_smoke_argv(seed)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is not wrong
    assert result["failed"] == result["attempted"] >= 3


def test_run_time_leaves_out_the_child_set_up(tmp_path):
    bench = run.Bench("diffeo-h3", workloads.REFERENCE_SEED, tmp_path, suite="levi")
    child = bench.heisgeom(2)  # foliation-flat
    assert child.code == 0 and bench.bad == []
    assert child.start < child.run_start < child.end
    assert 0 < child.run_s < child.wall_s


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, key, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "smoke", ["foliation-flat"])
    assert run.main(_smoke_argv(workloads.REFERENCE_SEED, trace)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
