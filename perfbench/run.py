"""arcpi benchmark: one workload, timed or traced, in one Python process.

    python3 perfbench/run.py --workload gauss-274 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --quick [--trace 1]

A run imports arcpi from ``src/`` of the checkout it sits in, sets up,
then runs a closed loop of identical ops until the next op would end past
``--seconds``.  Every op's output is checked by ``checks`` against values
arcpi did not compute.  Set-up (import, inputs, warm reference_pi) is
repeated before the loop and after every timed op; ``setup_s`` is the
median of all of them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, with the tracing overhead against the untraced ops.  The last line
of standard output is one JSON object; a fuller record with an
environment header goes to ``perfbench/results/``.  ``--quick`` runs one
op of every workload instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, ContextManager

import checks
import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5  # before the first op
SETUP_PER_OP = 3   # after every timed op
REFERENCE_REPEATS = 3


def load_arcpi() -> SimpleNamespace:
    """Import arcpi afresh from the checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "arcpi" or n.startswith("arcpi.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{
        name: importlib.import_module(f"arcpi.{name}")
        for name in ("cli", "pi", "arctan", "quadrature")})
    if not Path(mods.pi.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"arcpi imported from {mods.pi.__file__}")
    return mods


def set_up(workload: Workload, seed: int, repeats: int
           ) -> tuple[list[float], SimpleNamespace, Any]:
    """Import arcpi, make the inputs and warm reference_pi, ``repeats``
    times; returns each time and the last set-up's modules and inputs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        mods = load_arcpi()
        inputs = workload.make_inputs(seed)
        mods.pi.reference_pi(workload.digits)
        times.append(perf_counter() - start)
    return times, mods, inputs


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Loop:
    """Closed loop of identical ops with their checks and tallies."""

    def __init__(self, workload: Workload, seed: int, reference: str) -> None:
        self.workload, self.seed, self.reference = workload, seed, reference
        self.attempted = self.failed = self.wrong = 0
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.set_up(SETUP_REPEATS)

    def set_up(self, repeats: int) -> None:
        times, self.mods, self.inputs = set_up(
            self.workload, self.seed, repeats)
        self.setup_times += times

    def op(self, around: Callable[[], ContextManager] = nullcontext
           ) -> tuple[float, float] | None:
        """Run and check one op; its wall and CPU seconds, or None if it
        failed.  ``around`` wraps the program call only, never the check."""
        self.attempted += 1
        cpu = cpu_seconds()
        start = perf_counter()
        try:
            with around():
                out = self.workload.op(self.mods, self.inputs)
        except Exception as exc:  # a failed op is counted, not fatal
            self.failed += 1
            self.errors.append(f"op {self.attempted}: {exc!r}")
            return None
        took = perf_counter() - start, cpu_seconds() - cpu
        try:
            self.workload.check(out, self.inputs, self.reference)
        except checks.CheckError as exc:
            self.wrong += 1
            self.errors.append(f"op {self.attempted}: wrong output: {exc}")
        return took


def timed_run(loop: Loop, seconds: float, max_ops: int | None) -> dict:
    """Ops until the next would end past ``seconds``.  Set-up is sampled
    again after every op, so setup_s spans the whole run."""
    walls: list[float] = []
    cpus: list[float] = []
    start = perf_counter()
    while True:
        took = loop.op()
        if took is not None:
            walls.append(took[0])
            cpus.append(took[1])
        loop.set_up(SETUP_PER_OP)
        elapsed = perf_counter() - start
        mean = elapsed / loop.attempted
        if (max_ops and loop.attempted >= max_ops) or elapsed + mean > seconds:
            break
    if not walls:
        raise RuntimeError("no op succeeded: " + "; ".join(loop.errors))
    return {
        "metrics": {
            "ops_per_s": len(walls) / sum(walls),
            "op_s_p50": statistics.median(walls),
            "cpu_s_per_op": statistics.fmean(cpus),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(loop.setup_times),
        },
        "durations": walls,
        "cpu_durations": cpus,
        "setup_times": loop.setup_times,
    }


def cold_reference_seconds(digits: int) -> float:
    """Median time of a first reference_pi(digits) in a fresh interpreter,
    import excluded."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import arcpi.pi as pi; t = time.perf_counter(); "
            "pi.reference_pi(int(sys.argv[2])); "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(REFERENCE_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(digits)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def traced_run(loop: Loop, seconds: float, max_pairs: int | None) -> dict:
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced_ok: list[int] = []
    start = perf_counter()
    try:
        while True:
            took = loop.op()
            if took is not None:
                untraced.append(took[0])
            with tracing.instrument(tracer, loop.mods):
                took = loop.op(tracer.operation)
            if took is not None:
                traced_ok.append(tracer.op)
            elapsed = perf_counter() - start
            pairs = loop.attempted // 2
            if ((max_pairs and pairs >= max_pairs)
                    or elapsed + elapsed / pairs > seconds):
                break
    finally:
        tracer.close()
    if not untraced or not traced_ok:
        raise RuntimeError("no op succeeded: " + "; ".join(loop.errors))
    per_op = [tracing.op_metrics([s for s in tracer.spans if s.op == op])
              for op in traced_ok]
    metrics = {name: statistics.median(m[name] for m in per_op)
               for name in per_op[0]}
    metrics["trace.untraced_op_s_p50"] = statistics.median(untraced)
    metrics["trace.overhead_ratio"] = (
        metrics["trace.op_s"] / metrics["trace.untraced_op_s_p50"] - 1)
    metrics["pi.reference_s"] = cold_reference_seconds(loop.workload.digits)
    return {"metrics": metrics, "durations": untraced, "per_op": per_op,
            "spans": tracing.span_records(tracer.spans)}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float,
                trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
    }


def run_workload(benchmark: dict, workload: Workload, seed: int,
                 seconds: float, trace: int, limit: int | None = None) -> dict:
    loop = Loop(workload, seed, checks.constant_digits(ROOT))
    run = (traced_run(loop, seconds, limit) if trace
           else timed_run(loop, seconds, limit))
    metrics = run.pop("metrics")
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"env": environment(workload.name, seed, seconds, trace),
              "result": result, "errors": loop.errors, **run}
    path = RESULTS / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1))
    return result


def print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one op (one traced pair with --trace 1) of "
                             "every workload")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required without --quick")
    if not (SRC / "arcpi" / "__init__.py").is_file():
        print(f"error: no arcpi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A worker cap inherited from the environment would change the op.
    os.environ.pop("ARCPI_MAX_WORKERS", None)
    if args.quick:
        for name, workload in WORKLOADS.items():
            print_result(name, run_workload(benchmark, workload, args.seed,
                                            0.0, args.trace, limit=1))
        return 0
    result = run_workload(benchmark, WORKLOADS[args.workload], args.seed,
                          args.seconds, args.trace)
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
