#!/usr/bin/env python3
"""Lint mmsynthd Prometheus scrapes (the GET /metrics exposition text).

Fails (exit 1) when:

* a scrape has malformed exposition lines, samples without a `# HELP` /
  `# TYPE` header, duplicate series, or an unknown metric type;
* a histogram family is internally inconsistent: bucket counts decrease
  as `le` grows, the `+Inf` bucket disagrees with `_count`, or `_sum` /
  `_count` samples are missing;
* a family the daemon registers at start (queue, jobs, cache, solver,
  progress) is absent, or — with --require-jobs — the per-job families
  (`mmsynth_jobs_total`, `mmsynth_job_duration_us`, `mmsynth_rungs_total`)
  are absent from a scrape taken after work was done;
* given two scrapes, any counter series in the first is missing from or
  decreased in the second (counters only go up within one daemon life).

Stdlib only, so the CI leg needs nothing beyond python3.
"""

import argparse
import re
import sys

# Families ServiceMetrics::register + MetricsBridgeSink::new create at
# daemon start, so every scrape must contain them — even before any job.
EAGER_FAMILIES = {
    "mmsynth_queue_depth": "gauge",
    "mmsynth_jobs_inflight": "gauge",
    "mmsynth_admissions_total": "counter",
    "mmsynth_sheds_total": "counter",
    "mmsynth_retries_total": "counter",
    "mmsynth_panics_total": "counter",
    "mmsynth_cache_hits_total": "counter",
    "mmsynth_cache_misses_total": "counter",
    "mmsynth_cache_stores_total": "counter",
    "mmsynth_cache_quarantined_total": "counter",
    "mmsynth_cache_entries": "gauge",
    "mmsynth_cache_disk_bytes": "gauge",
    "mmsynth_progress_frames_total": "counter",
    "mmsynth_solver_conflicts_total": "counter",
    "mmsynth_solver_propagations_total": "counter",
    "mmsynth_solver_decisions_total": "counter",
    "mmsynth_solver_restarts_total": "counter",
}

# Families registered lazily by the first resolved job.
JOB_FAMILIES = {
    "mmsynth_jobs_total": "counter",
    "mmsynth_job_duration_us": "histogram",
    "mmsynth_rungs_total": "counter",
}

SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")

errors = []


def check(cond, message):
    if not cond:
        errors.append(message)


def parse_scrape(path):
    """Returns (types, samples): family name -> declared type, and
    (name, label block) -> float value."""
    types = {}
    helped = set()
    samples = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            if line.startswith("# HELP "):
                parts = line.split(None, 3)
                check(len(parts) >= 4, f"{where}: HELP line without help text")
                if len(parts) >= 3:
                    helped.add(parts[2])
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                check(len(parts) == 4, f"{where}: malformed TYPE line")
                if len(parts) == 4:
                    _, _, name, kind = parts
                    check(
                        kind in ("counter", "gauge", "histogram"),
                        f"{where}: unknown metric type {kind!r}",
                    )
                    check(name not in types, f"{where}: duplicate TYPE for {name}")
                    types[name] = kind
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            check(m, f"{where}: unparseable sample line {line!r}")
            if not m:
                continue
            name, block, value = m.group(1), m.group(2) or "", m.group(3)
            family = re.sub(r"_(bucket|sum|count)$", "", name)
            check(
                name in types or family in types,
                f"{where}: sample {name} has no TYPE header",
            )
            check(
                name in helped or family in helped,
                f"{where}: sample {name} has no HELP header",
            )
            try:
                parsed = float(value)
            except ValueError:
                check(False, f"{where}: non-numeric value {value!r} for {name}")
                continue
            key = (name, block)
            check(key not in samples, f"{where}: duplicate series {name}{block}")
            samples[key] = parsed
    check(types, f"{path}: empty scrape")
    return types, samples


def strip_le(block):
    """Drops the `le` label from a bucket's label block."""
    inner = block[1:-1]
    labels = [p for p in inner.split(",") if p and not p.startswith("le=")]
    return "{" + ",".join(labels) + "}" if labels else ""


def lint_histograms(path, types, samples):
    for family, kind in types.items():
        if kind != "histogram":
            continue
        # Group buckets by their non-le label block.
        series = {}
        for (name, block), value in samples.items():
            if name != f"{family}_bucket":
                continue
            le_match = re.search(r'le="([^"]*)"', block)
            check(le_match, f"{path}: bucket of {family} without le label")
            if not le_match:
                continue
            le = float("inf") if le_match.group(1) == "+Inf" else float(le_match.group(1))
            series.setdefault(strip_le(block), []).append((le, value))
        check(series, f"{path}: histogram {family} has no buckets")
        for block, buckets in series.items():
            buckets.sort()
            check(
                buckets[-1][0] == float("inf"),
                f"{path}: {family}{block} lacks a +Inf bucket",
            )
            cumulative = [v for _, v in buckets]
            check(
                all(a <= b for a, b in zip(cumulative, cumulative[1:])),
                f"{path}: {family}{block} bucket counts decrease",
            )
            count = samples.get((f"{family}_count", block))
            check(count is not None, f"{path}: {family}{block} lacks _count")
            check(
                (f"{family}_sum", block) in samples,
                f"{path}: {family}{block} lacks _sum",
            )
            if count is not None:
                check(
                    buckets[-1][1] == count,
                    f"{path}: {family}{block} +Inf bucket {buckets[-1][1]} "
                    f"!= _count {count}",
                )


def lint_families(path, types, required):
    for family, kind in sorted(required.items()):
        check(family in types, f"{path}: required family {family} missing")
        if family in types:
            check(
                types[family] == kind,
                f"{path}: {family} is {types[family]}, want {kind}",
            )


def counter_series(types, samples):
    """Every (name, block) -> value that must be non-decreasing: counter
    samples plus histogram buckets/sums/counts."""
    out = {}
    for (name, block), value in samples.items():
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if types.get(name) == "counter" or types.get(family) == "histogram":
            out[(name, block)] = value
    return out


def lint_monotone(first_path, first, second_path, second):
    before = counter_series(*first)
    after = counter_series(*second)
    for key, value in sorted(before.items()):
        name, block = key
        check(
            key in after,
            f"{second_path}: counter {name}{block} vanished (present in "
            f"{first_path})",
        )
        if key in after:
            check(
                after[key] >= value,
                f"{second_path}: counter {name}{block} decreased "
                f"{value} -> {after[key]}",
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "scrapes",
        nargs="+",
        help="one or more /metrics scrape files, oldest first",
    )
    parser.add_argument(
        "--require-jobs",
        action="store_true",
        help="also require the per-job families (scrape taken after work)",
    )
    args = parser.parse_args()

    required = dict(EAGER_FAMILIES)
    if args.require_jobs:
        required.update(JOB_FAMILIES)

    parsed = []
    for path in args.scrapes:
        types, samples = parse_scrape(path)
        lint_histograms(path, types, samples)
        lint_families(path, types, required)
        parsed.append((path, (types, samples)))
    for (p1, s1), (p2, s2) in zip(parsed, parsed[1:]):
        lint_monotone(p1, s1, p2, s2)

    if errors:
        for e in errors:
            print(f"lint_metrics: {e}", file=sys.stderr)
        return 1
    print(
        f"lint_metrics: {len(args.scrapes)} scrape(s) check out "
        f"({len(required)} required families)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
