"""The set-up a `heisgeom run` pays before its first check.

    python3 heisbench/setup_probe.py SEED MANIFEST [MANIFEST ...]

Imports heisgeom and loads and validates each manifest through
`load_manifest`.  The caller times the whole process, so interpreter start
is included.
"""

import sys

import heisgeom  # noqa: F401
from heisgeom.manifests import load_manifest

if __name__ == "__main__":
    for name in sys.argv[2:]:
        load_manifest(name, seed=int(sys.argv[1]))
