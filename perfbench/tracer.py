"""Layer spans and counters for one eulergibbs CLI run, recorded from outside.

The package modules import each other's functions by name (``from .drift
import drift_batch``), so a call from one layer into the next goes through a
name in the *caller's* module. ``install`` replaces those names, and a few
numpy and package functions that are only counted, with wrappers; nothing
under ``src/`` is edited and no argument or result is touched. Module objects
are taken from ``sys.modules`` because ``eulergibbs.drift`` as an attribute is
the re-exported ``drift()`` function, not the submodule.

A span records its name, layer, start, end, parent, thread and the run id.
Spans stay in memory and are handed to the caller when the run ends. A span
opened in a worker thread with nothing open in that thread takes as parent
the span open in the main thread, which is the one waiting on the pool.

``layer_metrics`` turns the spans of one run into the per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time

# (module, attribute, layer, span name): calls from one layer into the next
BOUNDARIES = (
    ("eulergibbs.cli", "run_invariance", "harness", "harness.run_invariance"),
    ("eulergibbs.cli", "moment_scan", "harness", "harness.moment_scan"),
    ("eulergibbs.cli", "cauchy_scan", "harness", "harness.cauchy_scan"),
    ("eulergibbs.cli", "continuity_probe", "harness", "harness.continuity_probe"),
    ("eulergibbs.cli", "evolve", "flow", "flow.evolve"),
    ("eulergibbs.cli", "sample", "gibbs", "gibbs.sample"),
    ("eulergibbs.cli", "sample_coeff_matrix", "gibbs", "gibbs.sample_coeff_matrix"),
    ("eulergibbs.cli", "_json_bytes", "cli", "cli.serialize"),
    ("eulergibbs.cli", "_jsonl_bytes", "cli", "cli.serialize"),
    ("eulergibbs.cli", "_csv_bytes", "cli", "cli.serialize"),
    ("eulergibbs.cli", "_write_outputs", "cli", "cli.serialize"),
    ("eulergibbs.flow", "Trajectory.records", "cli", "cli.serialize"),
    ("eulergibbs.harness", "evolve_coeffs", "flow", "flow.evolve_coeffs"),
    ("eulergibbs.harness", "drift_batch", "drift", "drift.drift_batch"),
    ("eulergibbs.harness", "sample_coeff_matrix", "gibbs", "gibbs.sample_coeff_matrix"),
    ("eulergibbs.harness", "coupled_dyadic_matrices", "gibbs", "gibbs.coupled_dyadic_matrices"),
    ("eulergibbs.harness", "cross_period_distance", "spectral", "spectral.cross_period_distance"),
    ("eulergibbs.harness", "local_distance", "spectral", "spectral.local_distance"),
    ("eulergibbs.flow", "drift_batch", "drift", "drift.drift_batch"),
)

# (module, attribute, counter): calls counted against the innermost open span
COUNTERS = (
    ("numpy.fft", "rfft2", "fft"),
    ("numpy.fft", "irfft2", "fft"),
    ("eulergibbs.gibbs", "standard_complex_normals", "draws"),
    ("eulergibbs.harness", "ks_two_sample", "ks_tests"),
    ("eulergibbs.harness", "ks_one_sample", "ks_tests"),
)


def planned_steps(dt: float, t_final: float) -> int:
    """Number of steps the flow takes over t_final: whole dt steps plus a remainder."""
    span = abs(t_final)
    if span == 0.0:
        return 0
    count = int(math.floor(span / dt + 1e-9))
    return count + (1 if span - count * dt > 1e-9 * dt else 0)


def resolve(module_name: str, attribute: str):
    """(owner, name, current value) of a dotted attribute of a loaded module, or None."""
    owner = sys.modules.get(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def _argument(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _flow_attrs(name, args, kwargs, result):
    if name == "flow.evolve_coeffs":
        cfg = _argument(args, kwargs, 3, "cfg")
        rows = int(_argument(args, kwargs, 0, "coeffs").shape[0])
        failed = len(result.failed_members) if result is not None else rows
    else:
        cfg = _argument(args, kwargs, 1, "cfg")
        rows = 1
        failed = 0 if result is not None else 1
    return {
        "rows": rows,
        "steps": planned_steps(cfg.dt, cfg.t_final),
        "scheme": cfg.scheme,
        "failed": failed,
    }


def _attrs(name, args, kwargs, result):
    if name == "drift.drift_batch":
        return {"rows": int(_argument(args, kwargs, 0, "coeffs").shape[0])}
    if name in ("flow.evolve_coeffs", "flow.evolve"):
        return _flow_attrs(name, args, kwargs, result)
    if name.startswith("spectral."):
        return {"period": float(args[0].period)}
    return {}


class Tracer:
    """In-memory spans and counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.orphan_counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._main_thread = threading.main_thread()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_span(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1][0]
            else:
                parent = None
            frame = [next(tracer._ids), {}]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": frame[0],
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "run": tracer.run_id,
                    "thread": threading.get_ident(),
                    "start": start,
                    "end": end,
                    "counts": frame[1],
                }
                span.update(_attrs(name, args, kwargs, result))
                tracer.spans.append(span)

        return wrapper

    def wrap_counter(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            amount = int(result.size) if counter == "draws" else 1
            stack = tracer._stack()
            if stack:
                counts = stack[-1][1]
                counts[counter] = counts.get(counter, 0) + amount
            else:
                with tracer._lock:
                    orphan = tracer.orphan_counts
                    orphan[counter] = orphan.get(counter, 0) + amount
            return result

        return wrapper

    def _patch(self, module_name: str, attribute: str, make_wrapper) -> None:
        found = resolve(module_name, attribute)
        if found is None:
            self.missing.append(f"{module_name}.{attribute}")
            return
        owner, name, original = found
        self._restore.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def install(self) -> None:
        """Wrap every boundary and counter; the package must already be imported.

        A name the package does not have is listed in ``missing`` and skipped,
        so a renamed function loses its span instead of failing the run.
        """
        for module_name, attribute, layer, name in BOUNDARIES:
            self._patch(module_name, attribute, functools.partial(self.wrap_span, layer, name))
        for module_name, attribute, counter in COUNTERS:
            self._patch(module_name, attribute, functools.partial(self.wrap_counter, counter))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one run


def _union_length(intervals) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _clipped(span, intervals):
    return [
        (max(start, span["start"]), min(end, span["end"]))
        for start, end in intervals
        if end > span["start"] and start < span["end"]
    ]


def layer_metrics(spans: list[dict], orphan_counts: dict[str, int], bytes_written: int) -> dict:
    """Per-layer numbers of one traced run; the root span is the cli.main call.

    A span's self time is its duration minus the part of it that its direct
    children cover (worker-thread children are merged as one union), and a
    layer's self time sums that over the layer's spans. busy_s sums span
    durations over every thread, so under --threads 2 it can exceed wall time.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))

    def self_time(span):
        covered = _union_length(_clipped(span, children.get(span["id"], [])))
        return span["end"] - span["start"] - covered

    def by_layer(layer):
        return [s for s in spans if s["layer"] == layer]

    def busy(selected):
        return sum(s["end"] - s["start"] for s in selected)

    def count(selected, counter):
        return sum(s["counts"].get(counter, 0) for s in selected)

    root = next(s for s in spans if s["name"] == "cli.main")
    wall = root["end"] - root["start"]
    drift = by_layer("drift")
    flow = by_layer("flow")
    spectral = by_layer("spectral")
    gibbs = by_layer("gibbs")
    serialize = [s for s in spans if s["name"] == "cli.serialize"]

    drift_rows = sum(s["rows"] for s in drift)
    drift_busy = busy(drift)
    member_steps = sum(s["rows"] * s["steps"] for s in flow)
    drift_rows_in = {}
    for s in drift:
        drift_rows_in[s["parent"]] = drift_rows_in.get(s["parent"], 0) + s["rows"]
    fixed_point = sum(
        drift_rows_in.get(s["id"], 0) - s["rows"] * s["steps"]
        for s in flow
        if s["scheme"] == "implicit_midpoint"
    )
    draws = count(spans, "draws") + orphan_counts.get("draws", 0)
    gibbs_busy = busy(gibbs)
    spectral_busy = busy(spectral)
    first_drift = min(drift, key=lambda s: s["start"]) if drift else None

    metrics = {
        "drift.busy_s": (drift_busy, "s"),
        "drift.calls": (len(drift), "count"),
        "drift.rows": (drift_rows, "count"),
        "drift.us_per_row": (1e6 * drift_busy / drift_rows if drift_rows else 0.0, "us"),
        "drift.first_call_s": (busy([first_drift]) if first_drift else 0.0, "s"),
        "drift.fft_transforms": (count(drift, "fft"), "count"),
        "flow.self_s": (sum(self_time(s) for s in flow), "s"),
        "flow.member_steps": (member_steps, "count"),
        "flow.fixed_point_iters": (fixed_point, "count"),
        "flow.failed_members": (sum(s["failed"] for s in flow), "count"),
        "spectral.busy_s": (spectral_busy, "s"),
        "spectral.metric_calls": (len(spectral), "count"),
        "spectral.ms_per_pair": (1e3 * spectral_busy / len(spectral) if spectral else 0.0, "ms"),
        "gibbs.busy_s": (gibbs_busy, "s"),
        "gibbs.draws": (draws, "count"),
        "gibbs.draws_per_s": (draws / gibbs_busy if gibbs_busy > 0.0 else 0.0, "1/s"),
        "harness.self_s": (sum(self_time(s) for s in by_layer("harness")), "s"),
        "harness.ks_tests": (count(spans, "ks_tests") + orphan_counts.get("ks_tests", 0), "count"),
        "cli.self_s": (sum(self_time(s) for s in by_layer("cli")), "s"),
        "cli.serialize_s": (busy(serialize), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
    }

    # layer shares of the wall time: union of the layer's spans over all threads
    shares = {
        layer: _union_length((s["start"], s["end"]) for s in by_layer(layer)) / wall
        for layer in ("harness", "flow", "drift", "gibbs", "spectral")
    }
    shares["cli.serialize"] = _union_length((s["start"], s["end"]) for s in serialize) / wall
    per_period: dict[float, list[float]] = {}
    for s in spectral:
        per_period.setdefault(s["period"], []).append(s["end"] - s["start"])
    ms_per_pair_by_period = {
        f"{period:g}": 1e3 * sum(times) / len(times) for period, times in sorted(per_period.items())
    }
    return {
        "wall_s": wall,
        "metrics": metrics,
        "shares": shares,
        "spectral_ms_per_pair_by_period": ms_per_pair_by_period,
    }
