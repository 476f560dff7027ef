"""Outside-in span tracing of the oscconv modules.

The tracer replaces public functions at the module attribute their
callers look up (``oscconv.inference.integrate``, ``oscconv.cli.match_filters``
and so on), records one span per call with its start, end and parent in
memory, and puts every original back on ``restore``. Nothing inside the
package is edited: a function is seen only where one module calls into
another, or where the benchmark calls into the package.

Span ``.s`` figures are self times: a span's duration minus the part of
it covered by its child spans.

The tracing overhead is estimated, not taken as the difference of two
pass times (one pass of a long workload varies by more than the tracer
costs): the number of spans times the calibrated cost of one wrapped
call, plus the measured time the wrappers spend counting work.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name). A function called from several modules
# is patched at each caller's name and reported under one span name.
PATCHES = (
    ("oscconv.cli", "main", "cli.main"),
    ("oscconv.cli", "read_pgm", "pgm.read_pgm"),
    ("oscconv.cli", "default_bank", "encoding.default_bank"),
    ("oscconv.cli", "fsk_encode", "encoding.fsk_encode"),
    ("oscconv.cli", "integrate", "dynamics.integrate"),
    ("oscconv.cli", "sweep_locking", "dynamics.sweep_locking"),
    ("oscconv.cli", "match_filters", "inference.match_filters"),
    ("oscconv.cli", "feature_map_onn", "inference.feature_map_onn"),
    ("oscconv.cli", "convolve_valid", "oracle.convolve_valid"),
    ("oscconv.inference", "integrate", "dynamics.integrate"),
    ("oscconv.inference", "fsk_encode", "encoding.fsk_encode"),
    ("oscconv.inference", "dom", "inference.dom"),
    ("oscconv.inference", "classify_lock", "inference.classify_lock"),
    ("oscconv.inference", "measure_lock_time", "inference.measure_lock_time"),
    ("oscconv.inference", "dot", "oracle.dot"),
    # sweep_locking and the lazy SimulationTrace readouts resolve these
    # through the dynamics module's own globals
    ("oscconv.dynamics", "integrate", "dynamics.integrate"),
    ("oscconv.dynamics", "instantaneous_frequency", "dynamics.instantaneous_frequency"),
    ("oscconv.dynamics", "peak_detector", "dynamics.peak_detector"),
    # the oracle_maps workload calls the oracle module directly
    ("oscconv.oracle", "convolve_valid", "oracle.convolve_valid"),
)

# Layer of each span name, for the per-layer shares of traced wall time.
LAYERS = ("dynamics", "encoding", "inference", "oracle", "cli_pgm")


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return "cli_pgm" if module in ("cli", "pgm") else module


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    failed: bool = False


class IntegrateCounts:
    """Work counted at the dynamics.integrate boundary.

    rows come from the returned trace's shape, so the count is the same
    whether rows are integrated one per call or many per call. A row is
    one (omega, initial state) pair; rows seen before are redundant.
    """

    def __init__(self):
        self.rows = 0
        self.row_steps = 0
        self.state_bytes = 0  # computed: largest states array one call returned
        self._seen: set[bytes] = set()
        self.redundant_rows = 0

    def observe(self, args, kwargs, trace) -> None:
        omega = np.atleast_2d(np.asarray(args[0] if args else kwargs["omega"]))
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        init = args[2] if len(args) > 2 else kwargs.get("init")
        init = None if init is None else np.atleast_2d(np.asarray(init))
        states = getattr(trace, "states", None)
        rows = len(omega) if states is None or states.ndim < 3 else int(np.prod(states.shape[:-2]))
        self.rows += rows
        self.row_steps += rows * int(round(cfg.t_end / cfg.dt))
        if states is not None:
            self.state_bytes = max(self.state_bytes, int(states.nbytes))
        for i in range(len(omega)):
            key = hashlib.sha256(omega[i].tobytes())
            key.update(repr(cfg).encode())
            key.update(init[min(i, len(init) - 1)].tobytes() if init is not None else b"cfg-seed")
            digest = key.digest()
            if digest in self._seen:
                self.redundant_rows += 1
            self._seen.add(digest)


class Tracer:
    """In-memory span recorder that patches module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.integrate = IntegrateCounts()
        self.errors = 0  # FilterError entries and failed feature-map windows
        self.windows = 0  # oracle map cells produced
        self.observe_s = 0.0  # wrapper time spent counting work after calls

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "dynamics.integrate":
            self.integrate.observe(args, kwargs, result)
        elif name in ("inference.match_filters", "inference.feature_map_onn"):
            self.errors += len(result.errors)
        elif name == "oracle.convolve_valid":
            self.windows += int(result.values.size)

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            observed = time.perf_counter()
            self._observe(name, args, kwargs, result)
            self.observe_s += time.perf_counter() - observed
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


def wrapper_cost_s(calls: int = 20000, repeats: int = 7) -> float:
    """Median host seconds one span wrapper adds to a call of a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        tracer.observe_s = 0.0
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - middle
        # the counting time is measured in the traced pass, so leave it out here
        costs.append((middle - start - tracer.observe_s - bare) / calls)
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, start: float, end: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    [start, end] is the pass's timed part; the layer shares are self
    times of the spans inside it over its length. Counts and times also
    include the spans of the set-up (the filter bank build); the shares
    and the tracing overhead count only the timed part.
    """
    spans: dict[str, list[tuple[float, float]]] = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    timed_spans = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        spans.setdefault(span.name, []).append((span.end - span.start, own))
        if span.start >= start:
            busy[layer_of(span.name)] += own
            timed_spans += 1

    def calls(name):
        return float(len(spans.get(name, ())))

    def self_s(name):
        return sum(own for _, own in spans.get(name, ()))

    counts = tracer.integrate
    integrate_ms = [d * 1e3 for d, _ in spans.get("dynamics.integrate", ())]
    integrate_s = self_s("dynamics.integrate")
    convolve_s = self_s("oracle.convolve_valid")
    metrics = {
        "dynamics.integrate.calls": (calls("dynamics.integrate"), "count"),
        "dynamics.integrate.rows": (float(counts.rows), "count"),
        "dynamics.integrate.row_steps": (float(counts.row_steps), "count"),
        "dynamics.integrate.s": (integrate_s, "s"),
        "dynamics.integrate.us_per_row_step": (
            1e6 * integrate_s / counts.row_steps if counts.row_steps else 0.0, "us"),
        "dynamics.integrate.call_ms.p50": (
            float(np.percentile(integrate_ms, 50)) if integrate_ms else 0.0, "ms"),
        "dynamics.integrate.call_ms.p90": (
            float(np.percentile(integrate_ms, 90)) if integrate_ms else 0.0, "ms"),
        "dynamics.integrate.state_bytes": (float(counts.state_bytes), "bytes-computed"),
        "dynamics.integrate.failures": (
            float(sum(s.failed for s in tracer.spans if s.name == "dynamics.integrate")), "count"),
        "dynamics.integrate.redundant_rows": (float(counts.redundant_rows), "count"),
        "dynamics.instantaneous_frequency.calls": (calls("dynamics.instantaneous_frequency"), "count"),
        "dynamics.instantaneous_frequency.s": (self_s("dynamics.instantaneous_frequency"), "s"),
        "dynamics.peak_detector.s": (self_s("dynamics.peak_detector"), "s"),
        "dynamics.sweep_locking.self_s": (self_s("dynamics.sweep_locking"), "s"),
        "encoding.fsk_encode.calls": (calls("encoding.fsk_encode"), "count"),
        "encoding.fsk_encode.s": (self_s("encoding.fsk_encode"), "s"),
        "encoding.default_bank.s": (self_s("encoding.default_bank"), "s"),
        "inference.match_filters.self_s": (self_s("inference.match_filters"), "s"),
        "inference.feature_map_onn.self_s": (self_s("inference.feature_map_onn"), "s"),
    }
    for name in ("dom", "classify_lock", "measure_lock_time"):
        metrics[f"inference.{name}.calls"] = (calls(f"inference.{name}"), "count")
        metrics[f"inference.{name}.s"] = (self_s(f"inference.{name}"), "s")
    metrics.update({
        "inference.errors": (float(tracer.errors), "count"),
        "oracle.convolve_valid.calls": (calls("oracle.convolve_valid"), "count"),
        "oracle.convolve_valid.s": (convolve_s, "s"),
        "oracle.convolve_valid.windows_per_s": (
            tracer.windows / convolve_s if convolve_s else 0.0, "1/s"),
        "oracle.dot.calls": (calls("oracle.dot"), "count"),
        "oracle.dot.s": (self_s("oracle.dot"), "s"),
        "pgm.read_pgm.s": (self_s("pgm.read_pgm"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    })
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (100.0 * busy[layer] / (end - start), "%")
    metrics["tracing_overhead_s"] = (timed_spans * wrapper_cost_s() + tracer.observe_s, "s")
    return metrics
