"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train-desk --seeds 1-10 --seconds 15
    python3 perfbench/spread.py --workload train-desk --seeds 1-10 --out perfbench/baseline/train-desk.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles from ``statistics.quantiles(values,
n=4)``, and the spread: the distance between the quartiles as a share of
the median. For end-to-end metrics it also prints the bound from
``BENCHMARK.json`` and whether the spread is below a third of it
("steady"), within it, or out of it.
``--seconds`` defaults to ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = parser.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        machine = json.loads(lines[0].split(" ", 1)[1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": values})
        shown = " ".join(f"{k}={v:.6g}" for k, v in values.items()) if not args.trace else ""
        print(f"seed {seed}: wall {wall:.1f} s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds and not args.trace:
            bound = bounds[name]
            verdict = ("steady" if spread < bound / 3 else
                       "within bound, not steady" if spread <= bound else "OUT OF BOUND")
            summary[name]["bound"] = bound
            print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"bound {bound} {verdict}")
    print(f"all correct: {all(r['correct'] for r in runs)}; "
          f"failed: {sum(r['failed'] for r in runs)}; "
          f"mean wall per run {statistics.mean(r['wall_s'] for r in runs):.1f} s")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "machine": machine, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
