"""Run workloads repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py                       # every workload, 10 seeds
    python3 perfbench/steadiness.py --workloads dual-route --runs 5
    python3 perfbench/steadiness.py --runs 1              # every workload once
    python3 perfbench/steadiness.py --trace 1 --runs 3    # per-layer metrics

Each run is a separate ``run.py`` process with its own seed (first seed,
first seed + 1, ...), started only after the previous one has ended.  For
every workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median`` next to the metric's bound, plus the ops attempted
and failed.  The whole table, with an environment header, is written to
``perfbench/results/steadiness-trace<t>-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180  # a run must end within this


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    table = {}
    for workload in args.workloads:
        results = [run_once(workload, args.first_seed + i, args.seconds,
                            args.trace) for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, attempted {attempted}, "
              f"failed {failed}, correct {correct}")
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            row = rows[m["name"]] = {"unit": m["unit"], "values": values,
                                     **summarize(values)}
            bound = bounds[m["name"]]
            print(f"  {m['name']:30s} {row['median']:<12.6g} {m['unit']:6s} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""))
        table[workload] = {"attempted": attempted, "failed": failed,
                           "correct": correct, "metrics": rows}
    env = environment(",".join(args.workloads), args.first_seed,
                      args.seconds, args.trace)
    env["runs"] = args.runs
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / (
        f"steadiness-trace{args.trace}-{args.first_seed}.json")
    out.write_text(json.dumps({"env": env, "workloads": table}, indent=1))
    print(f"written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
