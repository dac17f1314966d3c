"""The heisgeom benchmark.

    python3 heisbench/run.py --workload normalize-h5 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; heisgeom is taken from ./src.  Every
`heisgeom run --suite all --jobs 1` starts in a fresh process, one at a
time (a closed loop with one client): the jet_space and eps caches live for
the life of a process, and a CLI user pays them on every run.  Each child
runs through timed_cli.py, which notes when the checks start, so that
run_s leaves out the child's own set-up.

--trace 0 measures the end-to-end metrics.  --trace 1 makes one untraced
and one traced `--suite all` pass, one untraced run per suite, and the layer
microbenchmarks, and reports the per-layer metrics.  Either way every
report is checked against heisbench/reference/, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import reference
from workloads import REFERENCE_SEED, WORKLOADS, manifest_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIMED_CLI = HERE / "timed_cli.py"

SETUP_PROBES = 8  # before the passes, and again after them
CHILD_TIMEOUT_S = 170.0
SUITES = ("levi", "coords", "group", "classify", "diffeo", "groupoid")
MICRO_SPACES = ((3, 8), (5, 6), (7, 6))

# name -> (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_COUNTED = (
    "coords.heisenberg_map", "jets.PolyMap.jacobian", "jets.Jet.partial", "jets.Jet.call",
    "groupoid.GroupoidChart.eps", "jets.jet_mul", "jets.Jet.add", "jets.PolyMap.compose",
    "jets.jet_compose", "jets.jet_invert", "fields.bracket", "fields.pushforward_field",
    "rates.fit_report", "group.TangentGroup.mul",
)
_TIMED = (
    "coords.heisenberg_map", "coords.dilation_limit_check", "approx.diffeo_expansion_check",
    "groupoid.transition_rate_check",
)
LAYER_MODULES = ("jets", "fields", "coords", "group", "approx", "groupoid", "rates", "manifests")

PER_LAYER = {
    **{f"{name}.calls": ("count", "lower") for name in _COUNTED},
    **{f"{name}.cpu_s": ("s", "lower") for name in _TIMED},
    "groupoid.eps.hit_ratio": ("ratio", "higher"),
    "jets.jet_space.builds": ("count", "lower"),
    "jets.jet_space.build_s": ("s", "lower"),
    "jets.jet_space.max_size": ("monomials", "lower"),
    "jets.jet_space.hit_ratio": ("ratio", "higher"),
    **{f"{mod}.self_cpu_s": ("s", "lower") for mod in LAYER_MODULES},
    "suites.untraced_cpu_s": ("s", "lower"),
    **{f"suites.{suite}.run_s": ("s", "lower") for suite in SUITES},
    "trace.run_s": ("s", "lower"),
    "trace.cpu_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    **{f"micro.jet_space_build_s.d{d}o{o}": ("s", "lower") for d, o in MICRO_SPACES},
    **{f"micro.jet_mul_us.d{d}o{o}": ("us", "lower") for d, o in MICRO_SPACES},
    "micro.heisenberg_map_us.h5": ("us", "lower"),
    "micro.polymap_compose_us.d5o4": ("us", "lower"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """One finished child process: wall time, rusage and exit code.

    Start and end are time.monotonic() readings, which a child's own
    time.monotonic() can be compared with.  `run_s` is the wall time from
    `run_start`, when the child says its checks began, to the end; it is the
    whole wall time until `run_start` is set.
    """

    def __init__(self, argv, stderr_path=None):
        err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
        self.start = time.monotonic()
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        finally:
            if stderr_path:
                err.close()
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, self.rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        self.end = time.monotonic()
        self.wall_s = self.end - self.start
        self.run_start = self.start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = self.rusage.ru_utime + self.rusage.ru_stime
        self.rss_mb = self.rusage.ru_maxrss / 1024.0

    @property
    def run_s(self) -> float:
        return self.end - self.run_start


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path, suite: str = "all"):
        self.seed = seed
        self.workdir = workdir
        self.suite = suite
        self.names = WORKLOADS[workload]
        self.manifests = manifest_args(self.names, seed, workdir)
        self.refs = {name: reference.load_reference(name) for name in self.names}
        self.attempted = 0
        self.bad = []  # (manifest, check id, reason, wrong)
        self._runs = 0

    # -- one heisgeom run, checked against the reference ---------------------
    def heisgeom(self, index: int, suite: str | None = None, traced_stats: Path | None = None) -> Child:
        name, manifest = self.names[index], self.manifests[index]
        suite = suite or self.suite
        self._runs += 1
        out = self.workdir / f"report-{self._runs}.json"
        err = self.workdir / f"stderr-{self._runs}.txt"
        stamp = self.workdir / f"stamp-{self._runs}.json"
        args = ["run", "--manifest", manifest, "--suite", suite, "--jobs", "1",
                "--seed", str(self.seed), "--out", str(out)]
        if traced_stats is None:
            argv = [sys.executable, str(TIMED_CLI), str(stamp), *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_stats), *args]
        child = Child(argv, stderr_path=err)
        if stamp.exists():
            child.run_start = json.loads(stamp.read_text(encoding="utf-8"))["monotonic"]
            if not child.start <= child.run_start <= child.end:
                raise RuntimeError("the child's time.monotonic() is not the parent's clock")
        ref = [c for c in self.refs[name] if suite == "all" or c["id"].startswith(suite + "/")]
        stderr = err.read_text(encoding="utf-8", errors="replace")
        if child.code not in (0, 1) or "Traceback" in stderr or not out.exists():
            last = stderr.strip().splitlines()[-1:] or [""]
            reason = f"run crashed (exit {child.code}) {last[0]}".strip()
            # At the reference seed every check of the run should have
            # matched the reference, so a crash there makes the report wrong.
            self.attempted += len(ref)
            self.bad += [(name, c["id"], reason, self.seed == REFERENCE_SEED) for c in ref]
        else:
            checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
            bad = reference.compare(checks, ref, exact=self.seed == REFERENCE_SEED)
            self.attempted += len({c["id"] for c in checks} | {c["id"] for c in ref})
            self.bad += [(name, *entry) for entry in bad]
        for path in (out, err, stamp):
            path.unlink(missing_ok=True)
        return child

    def full_pass(self) -> list:
        """One run of every manifest of the workload."""
        return [self.heisgeom(i) for i in range(len(self.names))]

    def setup_probes(self) -> list:
        """CPU times (user + system) of SETUP_PROBES set-up probe processes.

        CPU time rather than wall time: NumPy's import starts BLAS threads,
        and the wall time of a probe swings by half with whether a second
        core happens to be free.
        """
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.seed), *self.manifests]
        times = []
        for _ in range(SETUP_PROBES):
            child = Child(argv)
            if child.code != 0:
                raise RuntimeError(f"set-up probe exited with {child.code}")
            times.append(child.cpu_s)
        return times

    # -- the two modes --------------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        setups = self.setup_probes()
        passes = [self.full_pass()]
        # as many whole passes as fit the requested time, at least one
        n_passes = max(1, round(seconds / sum(c.wall_s for c in passes[0])))
        passes += [self.full_pass() for _ in range(n_passes - 1)]
        setups += self.setup_probes()  # after the passes too, so drift in machine speed averages out
        return {
            "run_s": statistics.median(sum(c.run_s for c in p) for p in passes),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(sum(c.cpu_s for c in p) for p in passes),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in passes),
        }

    def per_layer(self) -> dict:
        untraced = sum(c.run_s for c in self.full_pass())
        stats = []
        for i in range(len(self.names)):
            path = self.workdir / f"trace-{i}.json"
            self.heisgeom(i, traced_stats=path)
            stats.append(json.loads(path.read_text(encoding="utf-8")))
        metrics = layer_metrics(stats)
        metrics["trace.untraced_run_s"] = untraced
        metrics["trace.overhead_frac"] = metrics["trace.run_s"] / untraced - 1.0
        for suite in SUITES:
            metrics[f"suites.{suite}.run_s"] = sum(
                self.heisgeom(i, suite=suite).run_s for i in range(len(self.names))
            )
        metrics.update(micro_metrics(self.seed))
        self.trace_stats = stats
        return metrics


def merge_stats(stats: list) -> tuple:
    functions, edges, builds = {}, {}, []
    for s in stats:
        for name, row in s["functions"].items():
            acc = functions.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for key, n in s["edges"].items():
            edges[key] = edges.get(key, 0) + n
        builds += s["builds"]
    return functions, edges, builds


def layer_metrics(stats: list) -> dict:
    functions, edges, builds = merge_stats(stats)

    def get(name, key):
        return functions.get(name, {}).get(key, 0)

    out = {f"{name}.calls": get(name, "calls") for name in _COUNTED}
    out.update({f"{name}.cpu_s": get(name, "cpu_s") for name in _TIMED})
    eps_calls = get("groupoid.GroupoidChart.eps", "calls")
    eps_built = edges.get("groupoid.GroupoidChart.eps -> coords.heisenberg_map", 0)
    out["groupoid.eps.hit_ratio"] = 1.0 - eps_built / eps_calls if eps_calls else 0.0
    space_calls = get("jets.jet_space", "calls")
    out["jets.jet_space.builds"] = len(builds)
    out["jets.jet_space.build_s"] = sum(b["seconds"] for b in builds)
    out["jets.jet_space.max_size"] = max((b["size"] for b in builds), default=0)
    out["jets.jet_space.hit_ratio"] = 1.0 - len(builds) / space_calls if space_calls else 0.0
    traced_self = 0.0
    for mod in LAYER_MODULES:
        own = sum(row["self_cpu_s"] for name, row in functions.items() if name.startswith(mod + "."))
        out[f"{mod}.self_cpu_s"] = own
        traced_self += own
    cpu = sum(s["process_cpu_s"] for s in stats)
    out["suites.untraced_cpu_s"] = cpu - traced_self
    out["trace.run_s"] = sum(s["wall_s"] for s in stats)
    out["trace.cpu_s"] = cpu
    return out


def top_functions(stats: list, n: int = 12) -> list:
    functions, _, _ = merge_stats(stats)
    rows = sorted(functions.items(), key=lambda kv: -kv[1]["self_cpu_s"])[:n]
    return [(name, row["calls"], row["cpu_s"], row["self_cpu_s"]) for name, row in rows]


def micro_metrics(seed: int) -> dict:
    def run(*args) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "micro.py"), *map(str, args)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    out = {}
    for d, o in MICRO_SPACES:
        got = run("space", d, o)
        out[f"micro.jet_space_build_s.d{d}o{o}"] = got["build_s"]
        out[f"micro.jet_mul_us.d{d}o{o}"] = got["mul_s"] * 1e6
    got = run("frame", seed)
    out["micro.heisenberg_map_us.h5"] = got["heisenberg_map_s"] * 1e6
    out["micro.polymap_compose_us.d5o4"] = got["compose_s"] * 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", default="all", help="heisgeom suite in place of all, for smoke runs")
    args = parser.parse_args(argv)

    if not (SRC / "heisgeom" / "__init__.py").is_file():
        print(f"error: no heisgeom package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".heisbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, workdir, args.suite)
        values = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in table.items()}
    bad_frac = len(bench.bad) / max(1, bench.attempted)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{bench.attempted} checks, {len(bench.bad)} bad, bad_check_frac = {bad_frac:.6g}")
    seen = Counter((name, "all checks" if reason.startswith("run crashed") else cid, reason)
                   for name, cid, reason, _ in bench.bad)
    for (name, what, reason), n in seen.items():
        print(f"  bad: {name} {what}: {reason} ({n}x)")
    if args.trace:
        print("  top traced functions by self CPU (name, calls, cpu_s, self_cpu_s):")
        for name, calls, cpu, own in top_functions(bench.trace_stats):
            print(f"    {name:<44} {calls:>9} {cpu:10.4f} {own:10.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not any(wrong for *_, wrong in bench.bad),
        "attempted": bench.attempted,
        "failed": len(bench.bad),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
