#!/usr/bin/env python3
"""Compare benchmark/load runs against checked-in gates.

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json [CURRENT2.json ...]
  tools/bench_diff.py --slo REPORT.json [REPORT2.json ...]

Benchmark mode: BASELINE is the regression-gate file (BENCH_batch.json); its
`gates` list holds benchmark names with the items-per-second floor they must
sustain. CURRENT files are `--benchmark_out` JSON from the binaries. A
benchmark regresses when its items_per_second drops below
floor * (1 - tolerance); a gate entry may carry its own `tolerance`
overriding the file-level one (used to hold the instrumented engine hot path
within 3%). Gated benchmarks missing from the current run fail the gate (a
renamed benchmark must come with a baseline update), and so does a gate
name listed twice in BASELINE (two floors for one benchmark).

SLO mode (--slo): REPORT files are `bench_load --report` JSON. Every
violation prints as one line with the gate name, the limit, the measured
value and the percent delta — the diffable evidence the CI log keeps.

Exit code 1 on any regression/violation in either mode.
"""
import json
import sys


def load_results(paths):
    results = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            results[bench["name"]] = bench
    return results


def delta_pct(old, new):
    """Signed percent change from old to new; 'n/a' when old is 0."""
    if old == 0:
        return "n/a"
    return f"{(new - old) / abs(old) * 100.0:+.1f}%"


def slo_mode(paths):
    """One line per SLO violation: gate, limit (old), actual (new), delta."""
    failed = False
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        profile = report.get("profile", "?")
        violations = report.get("violations", [])
        scenario = report.get("scenario", {})
        header = (f"{path}: profile={profile} users={scenario.get('users', '?')} "
                  f"iterations={scenario.get('iterations_done', '?')} "
                  f"wall={scenario.get('wall_s', 0):.1f}s")
        if report.get("ok", False) and not violations:
            print(f"{header}  ok")
            continue
        failed = True
        print(f"{header}  FAIL ({len(violations)} violations)")
        for v in violations:
            gate, limit, actual = v["gate"], v["limit"], v["actual"]
            # Floor gates (counts/min_iterations) fail low, latency/rate
            # gates fail high; the signed delta tells which without a flag.
            print(f"  - {gate}: limit {limit:.6g} -> actual {actual:.6g} "
                  f"({delta_pct(limit, actual)})")
    if failed:
        print("\nload SLO gate FAILED")
        return 1
    print("\nload SLO gate passed")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[1] == "--slo":
        return slo_mode(argv[2:])
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    current = load_results(argv[2:])

    default_tolerance = baseline.get("tolerance", 0.15)
    failures = []
    seen = set()
    for gate in baseline["gates"]:
        if gate["name"] in seen:
            failures.append(f"{gate['name']}: gated twice in {argv[1]}")
        seen.add(gate["name"])
    print(f"{'benchmark':44} {'floor':>12} {'current':>12} {'delta':>8}  verdict")
    for gate in baseline["gates"]:
        name, floor = gate["name"], gate["min_items_per_second"]
        tolerance = gate.get("tolerance", default_tolerance)
        bench = current.get(name)
        if bench is None:
            failures.append(f"{name}: missing from current run "
                            f"(floor {floor:.3e}, current absent)")
            print(f"{name:44} {floor:12.3e} {'absent':>12} {'':>8}  FAIL")
            continue
        ips = bench.get("items_per_second")
        if ips is None:
            failures.append(f"{name}: no items_per_second counter "
                            f"(floor {floor:.3e}, current n/a)")
            print(f"{name:44} {floor:12.3e} {'no-items':>12} {'':>8}  FAIL")
            continue
        threshold = floor * (1.0 - tolerance)
        ok = ips >= threshold
        delta = delta_pct(floor, ips)
        print(f"{name:44} {floor:12.3e} {ips:12.3e} {delta:>8}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{name}: {ips:.3e} items/s < {threshold:.3e} "
                f"(floor {floor:.3e} - {tolerance:.0%}, delta {delta})")

    if failures:
        print("\nbench regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
