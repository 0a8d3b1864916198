"""Per-layer tracing from outside the program.

The layers are arcpi's modules: cli, pi, arctan, quadrature, kernels and
exact.  ``instrument`` swaps each public function a module calls through
its own globals (for example ``arcpi.pi.arctan_closed_form``) for a
wrapper that records a span, and restores the originals on exit.  The
program's route is unchanged; only the clock is read around each call.

Spans stay in memory on a ``Tracer`` and are written out when the run
ends.  Two kinds of work are recorded as counters instead of spans:

* derivative-oracle calls made by the quadrature rules (thousands per
  op): the oracle passed to ``integrate_*`` is wrapped, and its time and
  call count are attached to the quadrature span as the kernels layer;
* ``closed_form_block`` calls made inside pool workers: the workers are
  forked from the traced process, inherit the wrapper, and send
  ``(terms, seconds)`` back through a queue that the enclosing
  ``arctan_closed_form`` span drains.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Iterator

LAYERS = ("cli", "pi", "arctan", "quadrature", "kernels", "exact")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self.worker_blocks = multiprocessing.SimpleQueue()

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def operation(self) -> Iterator[Span]:
        """One benchmark op; its self time is the untraced remainder."""
        self.op += 1
        span = self.begin("bench.op")
        try:
            yield span
        finally:
            self.end(span)

    def close(self) -> None:
        self.worker_blocks.close()


def _traced(tracer: Tracer, name: str, fn: Callable,
            after: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result
    return wrapper


def _traced_block(tracer: Tracer, fn: Callable) -> Callable:
    """closed_form_block(x, p, ells): a span in the traced process, a
    queue message in a forked pool worker."""
    @functools.wraps(fn)
    def wrapper(x, p, ells):
        terms = len(ells) * p.inner_terms
        if os.getpid() != tracer.pid:
            start = perf_counter()
            result = fn(x, p, ells)
            tracer.worker_blocks.put((terms, perf_counter() - start))
            return result
        span = tracer.begin("arctan.closed_form_block")
        try:
            return fn(x, p, ells)
        finally:
            tracer.end(span)
            span.attrs["terms"] = terms
    return wrapper


def _after_closed_form(tracer: Tracer) -> Callable:
    def after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
        span.attrs["parallel"] = bool(workers and workers > 1)
        span.attrs["bits"] = (result.numerator.bit_length()
                              + result.denominator.bit_length())
        worker_blocks = []
        while not tracer.worker_blocks.empty():
            worker_blocks.append(tracer.worker_blocks.get())
        span.attrs["worker_blocks"] = worker_blocks
    return after


def _traced_rule(tracer: Tracer, name: str, rule: Callable) -> Callable:
    """A quadrature rule whose derivative oracle is timed and counted.

    An oracle call is useful when its midpoint-rule weight is nonzero,
    which holds exactly for even orders.
    """
    @functools.wraps(rule)
    def wrapper(f, *args, **kwargs):
        counts = {"oracle_s": 0.0, "calls": 0, "useful": 0}

        def oracle(m, t):
            start = perf_counter()
            value = f(m, t)
            counts["oracle_s"] += perf_counter() - start
            counts["calls"] += 1
            counts["useful"] += m % 2 == 0
            return value

        span = tracer.begin(name)
        try:
            return rule(oracle, *args, **kwargs)
        finally:
            tracer.end(span)
            span.attrs.update(counts)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, mods: SimpleNamespace) -> Iterator[None]:
    """Wrap every layer-boundary call for the duration of the block."""
    cli, pi, arctan = mods.cli, mods.pi, mods.arctan
    closed_form = _traced(tracer, "arctan.arctan_closed_form",
                          arctan.arctan_closed_form,
                          _after_closed_form(tracer))
    patches: list[tuple[Any, str, Callable]] = [
        (cli, "main", _traced(tracer, "cli.main", cli.main)),
        (arctan, "arctan_closed_form", closed_form),
        (arctan, "closed_form_block",
         _traced_block(tracer, arctan.closed_form_block)),
    ]
    boundaries = {
        cli: ("measure", "decimal_expand"),
        pi: ("pi_gauss", "pi_closed_form", "pi_derivative_form",
             "reference_pi", "decimal_expand", "matching_digits"),
        arctan: ("arctan_derivative_form",),
    }
    for module, names in boundaries.items():
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                layer = fn.__module__.rsplit(".", 1)[-1]
                patches.append(
                    (module, name, _traced(tracer, f"{layer}.{name}", fn)))
    if hasattr(pi, "arctan_closed_form"):
        patches.append((pi, "arctan_closed_form", closed_form))
    for module in (pi, arctan):
        for name in ("integrate_all_orders", "integrate_even_orders"):
            rule = getattr(module, name, None)
            if rule is not None:
                patches.append((module, name, _traced_rule(
                    tracer, f"quadrature.{name}", rule)))
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced op, from its spans."""
    by_id = {s.id: s for s in spans}
    child_seconds = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent in child_seconds:
            child_seconds[s.parent] += s.seconds
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for s in spans:
        oracle_s = s.attrs.get("oracle_s", 0.0)
        self_s[s.layer] += s.seconds - child_seconds[s.id] - oracle_s
        self_s["kernels"] += oracle_s

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def parent_name(s: Span) -> str | None:
        return by_id[s.parent].name if s.parent in by_id else None

    closed = named("arctan.arctan_closed_form")
    blocks_by_call: dict[int, list[tuple[int, float]]] = {}
    for s in closed:
        blocks_by_call[s.id] = list(s.attrs["worker_blocks"])
    for s in named("arctan.closed_form_block"):
        if s.parent in blocks_by_call:
            blocks_by_call[s.parent].append((s.attrs["terms"], s.seconds))
    parallel = [s for s in closed if s.attrs["parallel"]]
    pool_overheads = [s.seconds - max(sec for _, sec in blocks_by_call[s.id])
                      for s in parallel if blocks_by_call[s.id]]
    imbalances = [
        max(sec for _, sec in blocks) / statistics.fmean(
            sec for _, sec in blocks)
        for blocks in blocks_by_call.values() if blocks]
    quad = [s for s in spans if s.layer == "quadrature"]
    calls = sum(s.attrs["calls"] for s in quad)
    cli_main = sum(s.seconds for s in named("cli.main"))
    measured = sum(s.seconds for s in named("pi.measure")
                   if parent_name(s) == "cli.main")
    return {
        "cli.overhead_s": cli_main - measured if cli_main else 0.0,
        "cli.self_s": self_s["cli"],
        "pi.self_s": self_s["pi"],
        "pi.gauss_term_s_max": max(
            (s.seconds for s in closed if parent_name(s) == "pi.pi_gauss"),
            default=0.0),
        "arctan.closed_form_s": sum(s.seconds for s in closed),
        "arctan.self_s": self_s["arctan"],
        "arctan.terms": sum(terms for blocks in blocks_by_call.values()
                            for terms, _ in blocks),
        "arctan.result_bits": sum(s.attrs["bits"] for s in closed),
        "arctan.pool_overhead_s": (statistics.fmean(pool_overheads)
                                   if pool_overheads else 0.0),
        "arctan.parallel_calls": len(parallel),
        "arctan.block_imbalance": (statistics.fmean(imbalances)
                                   if imbalances else 0.0),
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.oracle_calls": calls,
        "quadrature.useful_call_ratio": _ratio(
            sum(s.attrs["useful"] for s in quad), calls),
        "kernels.deriv_s": self_s["kernels"],
        "kernels.deriv_s_per_call": _ratio(self_s["kernels"], calls),
        "exact.grade_s": self_s["exact"],
        "trace.remainder_s": self_s["bench"],
        "trace.op_s": sum(s.seconds for s in named("bench.op")),
    }


def span_records(spans: list[Span]) -> list[dict[str, Any]]:
    """Spans as plain dicts for the trace file, times relative to the
    first span."""
    origin = spans[0].start if spans else 0.0
    return [{"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
             "start_s": s.start - origin, "seconds": s.seconds,
             **s.attrs} for s in spans]
