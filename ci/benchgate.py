#!/usr/bin/env python3
"""Benchmark regression gate for the scan-path benchmarks.

Compares two `go test -bench` outputs (base = merge-base, head = PR) and
fails if any scan benchmark's median ns/op regressed by more than the
threshold. Benchmarks missing from the base (i.e. added by the PR) are
skipped: a new benchmark has no baseline to regress against.

Usage:
    benchgate.py BASE.txt HEAD.txt [--threshold 15] [--filter PREFIX]...
    benchgate.py --self-test

The self-test feeds the comparator synthetic outputs with a known 20%
regression and a known no-op, and exits non-zero unless the gate fails the
former and passes the latter — run it in CI before trusting the gate.
"""

import argparse
import re
import statistics
import sys

BENCH_LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op")


def parse(text):
    """Return {bench name: [ns/op, ...]} for every benchmark line."""
    out = {}
    for line in text.splitlines():
        m = BENCH_LINE.match(line.strip())
        if m:
            out.setdefault(m.group(1), []).append(float(m.group(2)))
    return out


def medians(samples):
    return {name: statistics.median(vals) for name, vals in samples.items()}


def compare(base_text, head_text, threshold_pct, name_filter):
    """Return (failures, report_lines, compared).

    A failure is a >threshold regression; compared counts head benchmarks
    that actually had a baseline to regress against. name_filter is one name
    prefix or a tuple of them.
    """
    base = medians(parse(base_text))
    head = medians(parse(head_text))
    failures = []
    lines = []
    compared = 0
    for name in sorted(head):
        if name_filter and not name.startswith(name_filter):
            continue
        if name not in base:
            lines.append(f"  {name}: new benchmark (no baseline), skipped")
            continue
        compared += 1
        delta = 100.0 * (head[name] - base[name]) / base[name]
        verdict = "ok"
        if delta > threshold_pct:
            verdict = f"REGRESSION (> {threshold_pct:.0f}%)"
            failures.append(name)
        lines.append(
            f"  {name}: {base[name]:.0f} -> {head[name]:.0f} ns/op "
            f"({delta:+.1f}%) {verdict}"
        )
    if not lines:
        lines.append("  (no matching benchmarks in head output)")
    return failures, lines, compared


def self_test(threshold_pct):
    def fake(named_ns):
        # Three -count samples per benchmark, slight spread around the median.
        out = []
        for name, ns in named_ns.items():
            for factor in (0.98, 1.0, 1.02):
                out.append(f"{name}-4  100  {ns * factor:.0f} ns/op  8 B/op")
        return "\n".join(out)

    base = fake({"BenchmarkScanSerialCold": 1000000, "BenchmarkScanZonePruned": 50000})
    regressed = fake({"BenchmarkScanSerialCold": 1200000, "BenchmarkScanZonePruned": 50000})
    unchanged = fake({"BenchmarkScanSerialCold": 1010000, "BenchmarkScanZonePruned": 49000})
    added = fake({"BenchmarkScanSerialCold": 1000000, "BenchmarkScanBrandNew": 77})

    fails, _, _ = compare(base, regressed, threshold_pct, "BenchmarkScan")
    if fails != ["BenchmarkScanSerialCold"]:
        print(f"self-test: gate MISSED a 20% regression (failures={fails})")
        return 1
    fails, _, _ = compare(base, unchanged, threshold_pct, "BenchmarkScan")
    if fails:
        print(f"self-test: gate false-positived on a 1% change ({fails})")
        return 1
    fails, _, _ = compare(base, added, threshold_pct, "BenchmarkScan")
    if fails:
        print(f"self-test: gate failed a benchmark with no baseline ({fails})")
        return 1
    fails, _, compared = compare("", added, threshold_pct, "BenchmarkScan")
    if fails or compared != 0:
        print(f"self-test: empty baseline was not neutral (fails={fails}, compared={compared})")
        return 1
    print("self-test: gate fails the injected regression and passes the rest")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base", nargs="?", help="bench output at the merge-base")
    ap.add_argument("head", nargs="?", help="bench output at the PR head")
    ap.add_argument("--threshold", type=float, default=15.0, help="max allowed median regression, percent")
    ap.add_argument("--filter", action="append",
                    help="only gate benchmarks with this prefix; repeat to gate several (default BenchmarkScan)")
    ap.add_argument("--self-test", action="store_true", help="verify the gate catches a synthetic regression")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test(args.threshold))
    if not args.base or not args.head:
        ap.error("base and head files are required (or use --self-test)")

    # A merge-base that predates a benchmark produces an empty or missing
    # baseline file (the base bench step is `|| true`). That is a normal
    # state for a PR adding its own benchmark under the gate, not an error:
    # stay neutral instead of crashing or failing the PR.
    base_text = ""
    try:
        with open(args.base) as f:
            base_text = f.read()
    except OSError:
        print(f"benchgate: base file {args.base!r} unreadable, treating as empty baseline")
    with open(args.head) as f:
        head_text = f.read()
    filters = tuple(args.filter or ["BenchmarkScan"])
    failures, lines, compared = compare(base_text, head_text, args.threshold, filters)
    print(f"benchgate: comparing medians, threshold {args.threshold:.0f}%, filter {', '.join(filters)}")
    print("\n".join(lines))
    if failures:
        print(f"benchgate: FAIL — {len(failures)} benchmark(s) regressed: {', '.join(failures)}")
        sys.exit(1)
    if compared == 0:
        print("benchgate: NEUTRAL — no baseline benchmark found at the merge-base "
              "for these filters (benchmark added by this PR); nothing to gate")
        sys.exit(0)
    print("benchgate: PASS")


if __name__ == "__main__":
    main()
