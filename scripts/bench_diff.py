#!/usr/bin/env python3
"""Compare two bench artifacts and warn on regressions.

Usage: bench_diff.py CURRENT [PREVIOUS] [--threshold PCT] [--strict]

PREVIOUS defaults to the committed baseline at the repository root with the
same file name as CURRENT — the BENCH_*.json artifacts are committed, so
the default diff is "this run vs the trajectory the repo promises".

Two schemas are understood:
  * saturation ("modes"): per-mode invocations_per_sec, higher is better;
  * latency_breakdown ("configs"): per-config mean_latency_ms, lower is
    better, plus a note whenever a config's dominant phase changed.

A regression beyond the threshold (default 10%) produces a WARNING line;
the exit code stays 0 (the diff is advisory -- sim-time numbers are
deterministic, so a warning means the *code* changed, not the machine).
Pass --strict to turn warnings into a non-zero exit; scripts/check.sh
--bench (and so CI) does.
"""

import argparse
import json
import pathlib
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def diff_modes(current, previous, threshold):
    """Saturation schema: higher invocations_per_sec is better."""
    regressed = False
    prev_modes = {m["name"]: m for m in previous.get("modes", [])}
    for mode in current.get("modes", []):
        name = mode["name"]
        now = mode.get("invocations_per_sec", 0.0)
        if name not in prev_modes:
            print(f"{name}: {now:.0f} inv/s (no previous data)")
            continue
        before = prev_modes[name].get("invocations_per_sec", 0.0)
        delta = 0.0 if before == 0 else (now - before) / before * 100.0
        line = f"{name}: {before:.0f} -> {now:.0f} inv/s ({delta:+.1f}%)"
        if delta < -threshold:
            regressed = True
            print(f"WARNING: throughput regression over {threshold:.0f}%: {line}")
        else:
            print(line)
        # Allocation discipline: per-invocation heap churn must not creep up.
        # Tolerance is one alloc/invocation or 10%, whichever is larger, so
        # tiny counter jitter never fires but a leaked per-message buffer does.
        alloc_now = mode.get("allocs_per_inv")
        alloc_before = prev_modes[name].get("allocs_per_inv")
        if alloc_now is not None and alloc_before is not None:
            budget = alloc_before + max(1.0, alloc_before * 0.10)
            alloc_line = f"  allocs/inv: {alloc_before:.2f} -> {alloc_now:.2f}"
            if alloc_now > budget:
                regressed = True
                print(f"WARNING: allocation regression:{alloc_line}")
            else:
                print(alloc_line)
        net_now = mode.get("net_allocs_per_inv")
        if mode.get("steady_state") and net_now is not None and net_now > 0.5:
            regressed = True
            print(f"WARNING: {name} leaks in steady state: "
                  f"net {net_now:.2f} allocs/invocation")
    speedup = current.get("speedup")
    if speedup is not None:
        print(f"batched/unbatched speedup: {speedup:.2f}x")
    profile = current.get("profile", {})
    if profile and not profile.get("reconciled", True):
        regressed = True
        print("WARNING: traced run did not reconcile against its histograms")
    return regressed


def diff_configs(current, previous, threshold):
    """Latency-breakdown schema: lower mean_latency_ms is better."""
    regressed = False
    prev_configs = {c["name"]: c for c in previous.get("configs", [])}
    for config in current.get("configs", []):
        name = config["name"]
        now = config.get("mean_latency_ms", 0.0)
        if not config.get("reconciled", True):
            regressed = True
            print(f"WARNING: {name} did not reconcile against its histograms")
        if name not in prev_configs:
            print(f"{name}: {now:.3f} ms (no previous data)")
            continue
        before = prev_configs[name].get("mean_latency_ms", 0.0)
        delta = 0.0 if before == 0 else (now - before) / before * 100.0
        line = f"{name}: {before:.3f} -> {now:.3f} ms ({delta:+.1f}%)"
        if delta > threshold:
            regressed = True
            print(f"WARNING: latency regression over {threshold:.0f}%: {line}")
        else:
            print(line)
        dom_before = prev_configs[name].get("dominant")
        dom_now = config.get("dominant")
        if dom_before and dom_now and dom_before != dom_now:
            print(f"  note: dominant phase changed: {dom_before} -> {dom_now}")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("previous", nargs="?", default=None,
                        help="baseline artifact (default: the committed "
                             "repo-root file with CURRENT's name)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression warning threshold in percent")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a regression is found")
    args = parser.parse_args()

    previous_path = args.previous
    if previous_path is None:
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        previous_path = repo_root / pathlib.Path(args.current).name
        if not previous_path.exists():
            print(f"no committed baseline at {previous_path}; nothing to diff")
            return 0

    current = load(args.current)
    previous = load(previous_path)

    if "modes" in current:
        regressed = diff_modes(current, previous, args.threshold)
    elif "configs" in current:
        regressed = diff_configs(current, previous, args.threshold)
    else:
        print(f"unrecognised artifact schema in {args.current}", file=sys.stderr)
        return 2

    return 1 if (regressed and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
