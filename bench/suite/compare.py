#!/usr/bin/env python3
"""Compares two bench_suite result files, baseline first.

    python3 bench/suite/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians and
quartiles, B's change against A, the metric's bound and a verdict:

  improved    B is better than A by more than the bound
  regressed   B is worse than A by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  one side's spread (IQR / median) is wider than the bound,
              so the medians cannot be told apart; when every trial of B
              reads better (or worse) than every trial of A the verdict is
              improved (or regressed) regardless

failed_share regresses on any increase.  Exit status: 1 on any regression,
2 when the files cannot be compared (different workloads, run counts,
threads or machine), 0 otherwise.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def comparable(a, b):
    """Returns the reasons two result files measure different things."""
    reasons = []
    pa, pb = a["provenance"], b["provenance"]
    for key in ("nproc", "cpu_model", "threads"):
        if pa[key] != pb[key]:
            reasons.append(f"{key}: {pa[key]!r} vs {pb[key]!r}")
    wa, wb = a["workloads"], b["workloads"]
    if sorted(wa) != sorted(wb):
        reasons.append(f"workloads: {sorted(wa)} vs {sorted(wb)}")
    for name in sorted(set(wa) & set(wb)):
        if wa[name]["cells"] != wb[name]["cells"]:
            reasons.append(f"{name}: cells or runs per cell differ")
    return reasons


def verdict(name, ma, mb):
    """(delta, verdict) for one metric; delta > 0 means B is worse."""
    a_med, b_med = ma["median"], mb["median"]
    sign = 1.0 if ma["better"] == "lower" else -1.0
    if name == "failed_share":
        return b_med - a_med, "regressed" if b_med > a_med else "unchanged"
    worse = sign * (b_med - a_med) / a_med
    bound = ma["bound"]
    spread = max((ma["q3"] - ma["q1"]) / a_med, (mb["q3"] - mb["q1"]) / b_med)
    if spread > bound:
        b_worst = max(sign * x for x in mb["samples"])
        b_best = min(sign * x for x in mb["samples"])
        if b_worst < min(sign * x for x in ma["samples"]):
            return worse, "improved"
        if b_best > max(sign * x for x in ma["samples"]):
            return worse, "regressed"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if -worse > bound:
        return worse, "improved"
    return worse, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    reasons = comparable(a, b)
    if reasons:
        print("refusing to compare:", file=sys.stderr)
        for r in reasons:
            print(f"  {r}", file=sys.stderr)
        return 2

    def summary(m):
        return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"

    print(f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'worse by':>9} {'bound':>6}  verdict")
    regressions = 0
    for name in sorted(a["workloads"]):
        ea, eb = a["workloads"][name]["end_to_end"], b["workloads"][name]["end_to_end"]
        for metric in ea:
            ma, mb = ea[metric], eb[metric]
            delta, v = verdict(metric, ma, mb)
            regressions += v == "regressed"
            shown = f"{delta:+.4f}" if metric == "failed_share" else f"{delta:+.2%}"
            print(f"{name:<15} {metric:<13} {summary(ma):<32} {summary(mb):<32} "
                  f"{shown:>9} {ma['bound']:>6.2f}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
