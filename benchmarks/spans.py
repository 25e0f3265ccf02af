"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public functions of ``resetchannel`` in the modules where
their callers look them up (``runner``, ``ep_analysis``, ``dynamics`` and
``channel``) with wrappers that record one span per call: name, start, end,
parent span and pass id, plus a few attributes such as matrix dimensions.
Spans stay in memory and are written out when the run ends. Per-layer
metrics (call counts, self times, computed work) are derived from them.

The tracer keeps one call stack, so it assumes calls into the program come
from one thread; the benchmark runs with ``n_workers=1``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in its pass's list
    pass_id: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records the nested spans of one pass."""

    def __init__(self, pass_id: int = 0):
        self.spans: list[Span] = []
        self.pass_id = pass_id
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = Span(name, time.perf_counter(), float("nan"),
                   self._stack[-1] if self._stack else None, self.pass_id, attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` recording a span per call; ``on_call(args, kwargs, result)``
        returns attributes to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    rec.attrs.update(on_call(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Swap each ``(module, attribute, span name, on_call)`` target for
        its traced wrapper; the originals are restored on exit."""
        saved = []
        try:
            for module, attr, name, on_call in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, on_call))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def write_spans(tracers: list[Tracer], path) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for t in tracers for s in t.spans], fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children[i]]
        out.append((s.end - s.start) - _covered(clipped))
    return out


def _build_key(args, kwargs, result) -> dict:
    config = args[0]
    overrides = args[1] if len(args) > 1 else kwargs.get("param_overrides")
    return {"key": repr((config.name, sorted((overrides or {}).items())))}


def _matrix_dim(args, kwargs, result) -> dict:
    return {"dim": int(args[0].mat.shape[0])}


def _grid_points(args, kwargs, result) -> dict:
    return {"points": len(args[0].values)}


def _ep_count(args, kwargs, result) -> dict:
    return {"eps": len(result)}


def program_targets() -> list[tuple]:
    """The public functions the traced run wraps, where callers find them."""
    from resetchannel import channel, dynamics, ep_analysis, runner

    return [
        (runner, "build_channel", "runner.build_channel", _build_key),
        *((runner, f, "hamiltonians.build", None)
          for f in ("build_aah", "build_xxx", "build_xx", "build_pxp")),
        (runner, "hermitian_eigensystem", "hamiltonians.eigensystem", None),
        (channel, "hermitian_eigensystem", "hamiltonians.eigensystem", None),
        (runner, "propagate", "channel.propagate", None),
        (runner, "kraus_from_unitary", "channel.kraus", None),
        (runner, "superoperator_matrix", "channel.superoperator", None),
        (runner, "reversal_form", "channel.reversal_form", None),
        (dynamics, "apply_channel", "channel.apply_channel", None),
        (dynamics, "partial_trace", "spin_ops.partial_trace", None),
        (runner, "full_spectrum", "spectra.full_spectrum", _matrix_dim),
        (ep_analysis, "full_spectrum", "spectra.full_spectrum", _matrix_dim),
        (runner, "magnitude_histogram", "spectra.histogram", None),
        (runner, "sweep_spectrum", "ep_analysis.sweep_spectrum", _grid_points),
        (runner, "track_bands", "ep_analysis.track_bands", None),
        (runner, "count_complex", "ep_analysis.count_complex", None),
        (runner, "locate_eps", "ep_analysis.locate_eps", _ep_count),
        (runner, "fit_sqrt_exponent", "ep_analysis.fit_sqrt_exponent", None),
        (runner, "eigen_overlap", "dynamics.eigen_overlap", None),
        (dynamics, "eigen_overlap", "dynamics.eigen_overlap", None),
        (runner, "scar_overlap_avg", "dynamics.scar_overlap_avg", None),
        (runner, "scar_candidates", "dynamics.scar_candidates", None),
        (runner, "qmi_trajectory", "dynamics.qmi_trajectory", None),
        (dynamics, "qmi_trajectory", "dynamics.qmi_trajectory", None),
        (runner, "phase_scan", "dynamics.phase_scan", None),
    ]


# Span names whose call counts and self times are reported; every other
# per-layer metric is derived below. ``runner.*`` spans (the per-preset
# ``runner.run_experiment`` root opened by the benchmark, which includes CSV
# and manifest writing, and ``runner.build_channel``) report one summed
# ``runner.self_s``.
CALL_COUNTS = ("hamiltonians.build", "channel.propagate", "channel.apply_channel",
               "spin_ops.partial_trace", "spectra.full_spectrum", "runner.build_channel")
SELF_TIMES = (
    "hamiltonians.build", "hamiltonians.eigensystem",
    "channel.propagate", "channel.kraus", "channel.superoperator", "channel.reversal_form",
    "channel.apply_channel", "spin_ops.partial_trace",
    "spectra.full_spectrum", "spectra.histogram",
    "ep_analysis.sweep_spectrum", "ep_analysis.track_bands", "ep_analysis.count_complex",
    "ep_analysis.locate_eps", "ep_analysis.fit_sqrt_exponent",
    "dynamics.qmi_trajectory", "dynamics.phase_scan", "dynamics.eigen_overlap",
    "dynamics.scar_overlap_avg", "dynamics.scar_candidates",
)


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], pass_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as ``name -> (value, unit)``.

    ``pass_s`` is the pass's traced wall time; ``trace.accounted_frac`` is
    the share of it that the spans' self times cover.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += t
    builds = [i for i, s in enumerate(spans) if s.name == "runner.build_channel"]
    n_eps = sum(s.attrs["eps"] for s in spans if s.name == "ep_analysis.locate_eps")
    under_locate = sum(_under(spans, i, "ep_analysis.locate_eps") for i in builds)
    keys = {spans[i].attrs["key"] for i in builds}

    out: dict[str, tuple[float, str]] = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["runner.self_s"] = (sum(t for n, t in self_s.items() if n.startswith("runner.")), "s")
    out["spectra.full_spectrum.dim3_sum"] = (
        sum(s.attrs["dim"] ** 3 for s in spans if s.name == "spectra.full_spectrum"), "count")
    out["ep_analysis.sweep_spectrum.points"] = (
        sum(s.attrs["points"] for s in spans if s.name == "ep_analysis.sweep_spectrum"), "count")
    out["ep_analysis.locate_eps.builds_per_ep"] = (
        under_locate / n_eps if n_eps else 0.0, "builds/ep")
    out["ep_analysis.fit_sqrt_exponent.builds"] = (
        sum(_under(spans, i, "ep_analysis.fit_sqrt_exponent") for i in builds), "count")
    out["runner.build_channel.distinct_ratio"] = (
        len(keys) / len(builds) if builds else 0.0, "ratio")
    out["trace.pass_s"] = (pass_s, "s")
    out["trace.accounted_frac"] = (sum(selfs) / pass_s, "ratio")
    return out
