"""Run the heisgeom CLI in this process with the tracer installed.

    python3 heisbench/traced_cli.py STATS.json run --manifest ... [heisgeom args]

Writes the merged trace tables, the CLI call's wall time from the start of
its checks (as `timed_cli.py` splits it), its CPU time, and its exit code
to STATS.json, also when the CLI raises, then exits as the CLI would.
"""

from __future__ import annotations

import json
import sys
import time

from timed_cli import on_run_start
from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import heisgeom.cli  # loads every layer module before the tracer patches them

    started = []
    on_run_start(lambda: started.append(time.perf_counter()))
    tracer = Tracer().install()
    w0, c0 = time.perf_counter(), time.process_time()
    code = 1  # what the interpreter returns if main raises
    try:
        code = heisgeom.cli.main(argv)
    finally:
        wall, cpu = time.perf_counter() - (started or [w0])[0], time.process_time() - c0
        tracer.uninstall()
        out = tracer.snapshot()
        out.update({"wall_s": wall, "process_cpu_s": cpu, "exit_code": code})
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
