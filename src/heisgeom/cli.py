"""Command-line interface: manifest ingestion, suite orchestration, report
emission.

Exit codes: 0 all checks pass, 1 at least one check failed, was flagged or
raised (an `error` record), 2 manifest parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import __version__
from .manifests import Manifest, ValidationError, builtin_names, load_doc
from .suites import SUITE_NAMES, run_suites

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3


def build_report(manifest: Manifest, selector: str, records) -> dict:
    counts = {"pass": 0, "fail": 0, "flagged": 0, "error": 0}
    for rec in records:
        counts[rec.verdict] += 1
    return {
        "schema": "heisgeom-report.v1",
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool": {"name": "heisgeom", "version": __version__},
        "manifest": manifest.name,
        "suite": selector,
        "seed": manifest.seed,
        "jet_order": manifest.jet_order,
        "checks": [rec.to_json() for rec in records],
        "summary": counts,
    }


def _parse_tol(pairs) -> dict:
    """NAME=VALUE pairs as strings; `Manifest.from_dict` checks names and numbers."""
    out = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--tol expects NAME=VALUE, got {item!r}")
        out[name] = value
    return out


def _load(args) -> Manifest:
    try:
        doc = load_doc(args.manifest)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(str(exc)) from exc
    return Manifest.from_dict(doc, jet_order=args.jet_order, seed=args.seed, tol=_parse_tol(args.tol))


class _ParseFailure(Exception):
    pass


def cmd_run(args) -> int:
    try:
        manifest = _load(args)
        records = run_suites(manifest, args.suite)
    except _ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR

    report = build_report(manifest, args.suite, records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    width = max((len(r.check_id) for r in records), default=10)
    for rec in records:
        tail = ""
        if rec.verdict == "error":
            tail = f"  {rec.value['error']}: {rec.value['message']}"
        elif rec.slope is not None:
            tail = "  slope=exact" if rec.slope == float("inf") else f"  slope={rec.slope:.3f}"
        elif rec.residuals:
            tail = f"  max-resid={max(rec.residuals):.3e}"
        print(f"[{rec.verdict.upper():>7}] {rec.check_id:<{width}}{tail}")
    s = report["summary"]
    print(f"{s['pass']} passed, {s['fail']} failed, {s['flagged']} flagged, {s['error']} errored "
          f"({manifest.name}, suite={args.suite}, seed={manifest.seed})")
    if s["fail"] or s["flagged"] or s["error"]:
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def cmd_list_examples(_args) -> int:
    for name in builtin_names():
        doc = load_doc(name)
        manifest = Manifest.from_dict(doc)
        charts = ", ".join(c.name for c in manifest.charts)
        print(f"{name}: dim {manifest.dim}, charts [{charts}], "
              f"{len(manifest.diffeos)} diffeos, {len(manifest.metrics)} metrics")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisgeom",
        description="Construct tangent groups and groupoids from chart data and "
        "verify the coordinate normalizations, group laws, dilation limits and "
        "composition limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run check suites over a manifest")
    run_p.add_argument("--manifest", required=True, help="builtin name or JSON path")
    run_p.add_argument(
        "--suite",
        default="all",
        choices=[*SUITE_NAMES, "all"],
    )
    run_p.add_argument("--out", help="write the JSON report here")
    run_p.add_argument("--jet-order", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--tol", action="append", metavar="NAME=VALUE", help="override a tolerance")
    run_p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: checks run one at a time")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list-examples", help="list the builtin manifests")
    list_p.set_defaults(func=cmd_list_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
