"""Reference reports and the comparison of a run's checks against them.

heisbench/reference/<manifest>.json holds the `checks` section of
`heisgeom run --suite all --jobs 1 --seed REFERENCE_SEED` for every manifest
of every workload.  `python3 heisbench/reference.py` rewrites them.

A check is bad when its verdict is not `pass`, or when it disagrees with the
reference: its verdict differs (a reference `fail` that now passes does not
count), it is missing on either side, or, at the reference seed only, its
inputs digest differs (heisgeom hashes the sample counts into it), its
`value` differs, or a residual, the slope or a number in `value` differs
by more than ATOL + RTOL * |reference value|.

A bad check is also wrong, which makes the report incorrect, when its id is
missing on either side or when it disagrees at the reference seed.  At other
seeds the rate fits of some checks pass or fail with the seed, so there a
changed verdict is bad but not wrong.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, manifest_args

RTOL = 1e-7
ATOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(manifest_name: str) -> Path:
    return REFERENCE_DIR / f"{manifest_name}.json"


def load_reference(manifest_name: str) -> list:
    with open(reference_path(manifest_name), encoding="utf-8") as fh:
        return json.load(fh)["checks"]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= ATOL + RTOL * abs(b)


def _same_value(a, b) -> bool:
    """A check's `value`: nested lists and dicts of numbers and strings."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and not isinstance(a, bool) and not isinstance(b, bool):
        return _close(a, b)
    return a == b


def _same_numbers(check: dict, ref: dict) -> bool:
    res, ref_res = check.get("residuals", []), ref.get("residuals", [])
    if len(res) != len(ref_res) or not all(_close(a, b) for a, b in zip(res, ref_res)):
        return False
    return (
        _close(check.get("slope"), ref.get("slope"))
        and check.get("exact") == ref.get("exact")
        and _same_value(check.get("value"), ref.get("value"))
    )


def compare(checks: list, reference: list, exact: bool = True) -> list:
    """Bad checks of one report as (check id, reason, wrong).

    `exact` says the report was made at the reference seed, so verdicts and
    residuals must agree with the reference.
    """
    ref = {c["id"]: c for c in reference}
    bad = []
    for check in checks:
        cid, verdict = check["id"], check["verdict"]
        r = ref.pop(cid, None)
        if r is None:
            bad.append((cid, "not in the reference", True))
            continue
        improved = r["verdict"] == "fail" and verdict == "pass"
        if verdict != r["verdict"] and not improved:
            bad.append((cid, f"verdict {verdict}, reference {r['verdict']}", exact))
        elif exact and not improved and check.get("inputs_digest") != r.get("inputs_digest"):
            bad.append((cid, "inputs digest differs from the reference", True))
        elif exact and not improved and not _same_numbers(check, r):
            bad.append((cid, "residuals differ from the reference", True))
        elif verdict != "pass":
            bad.append((cid, f"verdict {verdict}, as in the reference", False))
    bad += [(cid, "missing from the report", True) for cid in ref]
    return bad


def record(workdir: Path) -> None:
    """Run every manifest of every workload at the reference seed and store its checks."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workdir.mkdir(parents=True, exist_ok=True)
    for names in WORKLOADS.values():
        for name, arg in zip(names, manifest_args(names, REFERENCE_SEED, workdir)):
            out = workdir / f"{name}.report.json"
            cmd = [sys.executable, "-m", "heisgeom.cli", "run", "--manifest", arg, "--suite", "all",
                   "--jobs", "1", "--seed", str(REFERENCE_SEED), "--out", str(out)]
            code = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL).returncode
            if code not in (0, 1):
                raise SystemExit(f"{name}: heisgeom run exited with {code}")
            report = json.loads(out.read_text(encoding="utf-8"))
            path = reference_path(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            doc = {"manifest": name, "seed": REFERENCE_SEED, "checks": report["checks"]}
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{path.relative_to(root)}: {len(report['checks'])} checks, summary {report['summary']}")
    shutil.rmtree(workdir)


if __name__ == "__main__":
    record(Path(__file__).resolve().parent.parent / ".heisbench_work" / "reference")
