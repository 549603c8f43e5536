"""Fail CI when the DES perf record regresses vs the committed baseline.

Compares a fresh ``run_des_bench.py`` payload against the committed
``BENCH_des.json``.  Absolute times are host-specific, so the guard
compares ratios whose two sides were measured on the same host in the
same run: the engine against e2ebench's fixed host probe in both wait
modes, tier-1's reference scheduler against the current scheduler,
tier-1's reference executor against the current executor on the
contention-free run and in total over the contended op shapes, and
unsharded against sharded.  A >25% drop in a serial ratio fails.

Parallel scaling (``workers > 1``) depends on the core count, so those
comparisons run only when the fresh host's ``cpu_count`` matches the
committed record's; otherwise they are skipped with a note — the serial
numbers alone still guard the engine fast paths and the decomposition
win.

Usage::

    PYTHONPATH=src python benchmarks/run_des_bench.py --out BENCH_des_ci.json
    python benchmarks/check_des_regression.py BENCH_des.json BENCH_des_ci.json
"""

from __future__ import annotations

import json
import sys

#: tolerated relative drop in any guarded speedup ratio.
ALLOWED_REGRESSION = 0.25


def check(committed: dict, fresh: dict) -> list[str]:
    """Return the list of failure messages (empty = pass)."""
    failures: list[str] = []
    floor = 1.0 - ALLOWED_REGRESSION

    def ratio_check(label: str, pinned: float, current: float) -> None:
        if current < pinned * floor:
            failures.append(
                f"{label}: {current:.3g} vs committed {pinned:.3g} "
                f"(> {ALLOWED_REGRESSION:.0%} regression)"
            )

    for shape, pinned in committed["event_loop"].items():
        current = fresh["event_loop"].get(shape)
        if current is None:
            print(f"[skip] event_loop shape {shape!r}: absent from the "
                  "fresh run")
            continue
        for ratio in ("probe_over_raw", "probe_over_timeout_mode"):
            ratio_check(f"event_loop.{shape}.{ratio}", pinned[ratio],
                        current[ratio])

    for section in ("scheduler", "executor"):
        pinned, current = committed[section], fresh[section]
        if current["n_tasks"] != pinned["n_tasks"]:
            print(f"[skip] {section}: committed and fresh runs used "
                  "different workloads")
        else:
            ratio_check(f"{section}.speedup", pinned["speedup"],
                        current["speedup"])

    pinned = committed["contended"]
    current = fresh["contended"]
    sizes = {label: row["n_tasks"] for label, row in pinned.items()
             if label != "total"}
    if sizes != {label: current[label]["n_tasks"] for label in sizes
                 if label in current}:
        print("[skip] contended: committed and fresh runs used different "
              "workloads")
    else:
        ratio_check("contended.total.speedup", pinned["total"]["speedup"],
                    current["total"]["speedup"])

    same_cpus = (committed["host"].get("cpu_count")
                 == fresh["host"].get("cpu_count"))
    for shape, pinned in committed["sharding"].items():
        current = fresh["sharding"].get(shape)
        if current is None or current["n_tasks"] != pinned["n_tasks"]:
            print(f"[skip] sharding shape {shape!r}: committed and fresh "
                  "runs used different workloads")
            continue
        ratio_check(
            f"sharding.{shape}.speedup_w1_vs_unsharded",
            pinned["speedup_w1_vs_unsharded"],
            current["speedup_w1_vs_unsharded"],
        )
        if same_cpus:
            ratio_check(
                f"sharding.{shape}.speedup_w4_vs_unsharded",
                pinned["speedup_w4_vs_unsharded"],
                current["speedup_w4_vs_unsharded"],
            )
        else:
            print(f"[skip] sharding.{shape} workers-4 scaling: cpu_count "
                  f"{fresh['host'].get('cpu_count')} != committed "
                  f"{committed['host'].get('cpu_count')} — comparing "
                  "serial numbers only")
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    committed = json.loads(open(argv[0]).read())
    fresh = json.loads(open(argv[1]).read())
    failures = check(committed, fresh)
    if failures:
        for line in failures:
            print(f"REGRESSION {line}", file=sys.stderr)
        return 1
    print("DES perf record within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
