"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/steady.py --workload fact_olap --seeds 1-10 [--json out.json]

Runs ``run.py`` once per seed, one run at a time, with ``run_seconds`` from
BENCHMARK.json, and prints for each end-to-end metric the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), their distance as
a share of the median, and that share against a third of the metric's bound.
Exits 1 if a run fails, reports a wrong answer, or omits a metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", help="also write the runs and the summary here")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or set(result["metrics"]) != set(metrics):
            print(f"seed {seed}: wrong answers or metrics\n{proc.stdout}", file=sys.stderr)
            return 1
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"seed {seed} ({wall:.0f} s): " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':20s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound/3':>7s}")
    for name, m in metrics.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": m["bound"]}
        flag = "" if spread < m["bound"] / 3 or name == "setup_s" else "  <-- wide"
        print(f"{name:20s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
              f"{m['bound'] / 3:7.3f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                               "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
