"""Compare the simulated results recorded by two benchmark runs.

    python3 e2ebench/compare.py e2ebench/results/A.json e2ebench/results/B.json

Cold-phase ops (and campaign cells) are matched by spec digest.  The
step reports how many matched ops changed their result digest or a
simulated counter, so a speed-only change can show that every
simulated statistic stayed identical.  It only reports: the exit
status is 0 whatever changed, and 2 when an input cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-op fields that must not move under a change that claims speed only.
FIELDS = ("digest", "n_tasks", "total_failures", "n_events",
          "peak_queue_length", "makespan")


def cold_ops(path: str) -> dict[str, dict]:
    """``{spec_digest: op}`` of the cold-phase ops of one run output."""
    data = json.loads(Path(path).read_text())
    return {op["spec_digest"]: op for op in data["ops"]
            if op["phase"] == "cold"}


def compare(a: dict[str, dict], b: dict[str, dict]) -> dict:
    """Matched, changed and unmatched op counts, plus what changed."""
    matched = sorted(a.keys() & b.keys())
    changed = []
    for sd in matched:
        fields = [f for f in FIELDS if a[sd].get(f) != b[sd].get(f)]
        if fields:
            changed.append({"name": a[sd]["name"], "spec_digest": sd,
                            "fields": fields})
    return {
        "matched": len(matched),
        "digest_changed": sum("digest" in c["fields"] for c in changed),
        "counters_changed": sum(c["fields"] != ["digest"] for c in changed),
        "only_in_a": len(a.keys() - b.keys()),
        "only_in_b": len(b.keys() - a.keys()),
        "changed": changed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="e2ebench/compare.py",
        description="Report ops whose simulated results differ between "
                    "two benchmark run outputs.")
    parser.add_argument("a", help="first run output (JSON)")
    parser.add_argument("b", help="second run output (JSON)")
    args = parser.parse_args(argv)
    try:
        report = compare(cold_ops(args.a), cold_ops(args.b))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read run output: {exc}", file=sys.stderr)
        return 2
    print(f"{report['matched']} op(s) matched by spec digest; "
          f"{report['digest_changed']} changed digest, "
          f"{report['counters_changed']} changed a simulated counter; "
          f"{report['only_in_a']} only in A, {report['only_in_b']} only in B")
    for change in report["changed"]:
        print(f"  {change['name']} {change['spec_digest'][:12]}: "
              f"{', '.join(change['fields'])}")
    print(json.dumps({k: v for k, v in report.items() if k != "changed"}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
