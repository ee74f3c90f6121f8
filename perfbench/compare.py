#!/usr/bin/env python3
"""Compare two result files written by ``perfbench/run.py``.

    python3 perfbench/compare.py .perfbench_out/A.json .perfbench_out/B.json

Prints each metric of both results with the change from A to B, judged by
the metric's direction in ``BENCHMARK.json``. Refuses (exit status 2) to
compare results of different workloads or results taken on different kernel
backends, since those measure different code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    for key, label in (("workload", "workloads"), ("trace", "trace settings")):
        if a[key] != b[key]:
            print(f"refusing to compare: different {label} ({a[key]} vs {b[key]})",
                  file=sys.stderr)
            return 2
    if a["env"]["backend"] != b["env"]["backend"]:
        print(f"refusing to compare: backend {a['env']['backend']} vs {b['env']['backend']}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {a['workload']}: seed {a['seed']} vs seed {b['seed']}")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        if va is None or vb is None:
            print(f"  {name:36s} {va!s:>14s} {vb!s:>14s}  absent on one side")
            continue
        change = (vb - va) / va if va else float("nan")
        gained = change > 0 if better.get(name) == "higher" else change < 0
        verdict = "same" if change == 0 else ("better" if gained else "worse")
        print(f"  {name:36s} {va:14.6g} {vb:14.6g}  {change:+8.2%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
