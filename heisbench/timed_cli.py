"""Run the heisgeom CLI in this process and note when its checks start.

    python3 heisbench/timed_cli.py STAMP.json run --manifest ... [heisgeom args]

When the CLI enters `run_suites` (the interpreter has started, heisgeom is
imported, and the manifest is loaded and validated), this writes
`{"monotonic": time.monotonic()}` to STAMP.json.  time.monotonic reads
CLOCK_MONOTONIC, which all processes of a Linux machine share, so the caller
can split the child's wall time into set-up and run.  Then it exits as the
CLI would.
"""

from __future__ import annotations

import json
import sys
import time


def on_run_start(callback) -> None:
    """Call `callback()` each time heisgeom.cli enters run_suites."""
    import heisgeom.cli

    run_suites = heisgeom.cli.run_suites

    def stamped(*args, **kwargs):
        callback()
        return run_suites(*args, **kwargs)

    heisgeom.cli.run_suites = stamped


def main() -> int:
    stamp_path, argv = sys.argv[1], sys.argv[2:]
    import heisgeom.cli

    def stamp():
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump({"monotonic": time.monotonic()}, fh)

    on_run_start(stamp)
    return heisgeom.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
