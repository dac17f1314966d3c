"""Run the benchmark over several seeds and record the numbers with the machine.

    python3 heisbench/record_baseline.py --seeds 1-10 --seconds 30 --out heisbench/baseline.json
    python3 heisbench/record_baseline.py --seeds 42     # every workload once, at the reference seed

For every workload it makes one untraced run per seed, printing each
end-to-end metric and bad_check_frac, and one traced run at the reference
seed.  With two seeds or more it prints each end-to-end metric's median and
spread: the distance between the first and third quartile over the median,
as `statistics.quantiles(values, n=4)` gives them.  --out writes those
figures, every run's result, and the machine: nproc, the Python and NumPy
versions and heisgeom.kernel_name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    probe = ("import json, numpy, heisgeom; print(json.dumps("
             "{'numpy': numpy.__version__, 'kernel': heisgeom.kernel_name}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                    text=True, check=True).stdout)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": got["numpy"],
        "heisgeom.kernel_name": got["kernel"],
        "platform": platform.platform(),
    }


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", help="write the record here")
    args = parser.parse_args()

    record = {"machine": machine(), "seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in record["seeds"]:
            result = bench(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} bad_check_frac="
                  f"{result['failed']}/{result['attempted']} {values}", flush=True)
        summary = {}
        if len(runs) > 1:
            for name in runs[0]["metrics"]:
                s = summary[name] = spread([r["metrics"][name]["value"] for r in runs])
                print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
        record["workloads"][workload] = {
            "end_to_end": summary,
            "runs": runs,
            "traced_at_reference_seed": bench(workload, REFERENCE_SEED, args.seconds, 1),
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
