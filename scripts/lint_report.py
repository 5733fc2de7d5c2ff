#!/usr/bin/env python3
"""Lint mmsynth telemetry artifacts: the JSONL trace, the aggregated run
report, and the --stats-json sidecar.

Fails (exit 1) when:

* any trace line is not valid JSON, or the meta stamp (first event by
  sequence number) is missing or carries the wrong trace schema version;
* the run report is missing its schema version, the expected phases
  (synth with encode/solve children), or rung summaries, or has an
  `inprocess` phase (one per solver inprocessing pass) anywhere but
  directly under `solve`;
* rung outcomes fall outside the documented vocabulary, or no rung
  decided the run (every minimization has at least one SAT/UNSAT rung);
* the stats sidecar (when given) is missing its schema version or call
  records.

Stdlib only, so the CI leg needs nothing beyond python3.
"""

import argparse
import json
import sys

TRACE_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1
STATS_SCHEMA_VERSION = 2
RUNG_OUTCOMES = {"sat", "unsat", "unknown", "skipped", "panicked"}

errors = []


def check(cond, message):
    if not cond:
        errors.append(message)


def lint_trace(path):
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as e:
                check(False, f"{path}:{lineno}: unparseable trace line: {e}")
    check(events, f"{path}: empty trace")
    if not events:
        return
    first = min(events, key=lambda e: e.get("seq", float("inf")))
    kind = first.get("kind", {})
    point = kind.get("Point", {})
    check(point.get("name") == "meta", f"{path}: first event is not the meta stamp")
    attrs = dict(point.get("attrs", []))
    version = attrs.get("trace_schema_version", {}).get("U64")
    check(
        version == TRACE_SCHEMA_VERSION,
        f"{path}: trace_schema_version is {version}, want {TRACE_SCHEMA_VERSION}",
    )


def phase_names(nodes):
    for node in nodes:
        yield node["name"]
        yield from phase_names(node.get("children", []))


def phase_parents(nodes, parent=None):
    """Yields (name, parent name) for every phase node."""
    for node in nodes:
        yield node["name"], parent
        yield from phase_parents(node.get("children", []), node["name"])


def lint_report(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    check(
        report.get("schema_version") == REPORT_SCHEMA_VERSION,
        f"{path}: schema_version is {report.get('schema_version')!r}, "
        f"want {REPORT_SCHEMA_VERSION}",
    )
    names = set(phase_names(report.get("phases", [])))
    for phase in ("synth", "encode", "solve"):
        check(phase in names, f"{path}: phase {phase!r} missing (got {sorted(names)})")
    for name, parent in phase_parents(report.get("phases", [])):
        if name == "inprocess":
            check(
                parent == "solve",
                f"{path}: inprocess phase under {parent!r}, want 'solve'",
            )
    rungs = report.get("rungs", [])
    check(rungs, f"{path}: no rung summaries")
    for rung in rungs:
        check(
            rung.get("outcome") in RUNG_OUTCOMES,
            f"{path}: rung outcome {rung.get('outcome')!r} not in {sorted(RUNG_OUTCOMES)}",
        )
    check(
        any(r.get("outcome") in ("sat", "unsat") for r in rungs),
        f"{path}: no rung decided the run",
    )


def lint_stats(path):
    with open(path, encoding="utf-8") as fh:
        stats = json.load(fh)
    check(
        stats.get("schema_version") == STATS_SCHEMA_VERSION,
        f"{path}: schema_version is {stats.get('schema_version')!r}, "
        f"want {STATS_SCHEMA_VERSION}",
    )
    check(stats.get("calls"), f"{path}: no call records")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", required=True, help="JSONL trace from --trace-out")
    parser.add_argument("--report", required=True, help="run report from --report-json")
    parser.add_argument("--stats", help="optional sidecar from --stats-json")
    args = parser.parse_args()

    lint_trace(args.trace)
    lint_report(args.report)
    if args.stats:
        lint_stats(args.stats)

    if errors:
        for e in errors:
            print(f"lint_report: {e}", file=sys.stderr)
        return 1
    print("lint_report: all telemetry artifacts check out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
