"""Spans around the public functions of each hymkit layer, and the per-layer
metrics computed from them.

The wrappers live here, not in the program: :func:`install` replaces every
binding of a target function in the loaded ``hymkit`` modules, so a call is
traced wherever the caller looks the name up (``potential`` imports
``curvature_weight`` by name, ``monads`` imports ``fd_derivative`` by name).
Spans stay in memory until the pass ends.  A span is
``[name, start, end, parent, work, outer]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``work`` a count taken from the call's
arguments or result, ``outer`` false when a span of the same name encloses
it, so busy time never counts an interval twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self.recording = False
        self._stack = []
        self._depth = {}

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            depth = tracer._depth.get(name, 0)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    None, depth == 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._depth[name] = depth + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._depth[name] = depth
                tracer._stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, work, outer in self.spans:
                fh.write(json.dumps({"trace_id": self.trace_id, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "work": work, "outer": outer}) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [[s["name"], s["start"], s["end"], s["parent"], s["work"], s["outer"]]
                for s in map(json.loads, fh)]


# ---------------------------------------------------------------------------
# what is wrapped, and the work count of each call


def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _n_points(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _interior_nodes(args, kwargs, result):
    return int(np.prod([s - 2 for s in _arg(args, kwargs, 0, "state").domain.shape]))


def _history_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _checkpoint_bytes(args, kwargs, result):
    path = str(_arg(args, kwargs, 1, "path"))
    return os.path.getsize(path) + os.path.getsize(path + ".json")


def _batch_points(args, kwargs, result):
    return _n_points(_arg(args, kwargs, 1, "W"))


def _weight_points(args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    return 1 if hasattr(p, "as_array") else _n_points(np.atleast_2d(p))


def _g_work(args, kwargs, result):
    """(samples drawn, relative stderr, estimate) of one eval_G call."""
    from hymkit.potential import MCParams
    mc = _arg(args, kwargs, 1, "mc") or MCParams()
    samples = len(result.shells) * 5 * (mc.samples_per_shell // 5)
    rel = result.stderr / abs(result.estimate) if result.estimate else float("inf")
    return [samples, rel, result.estimate]


# (span name, module, attribute, work count)
TARGETS = [
    ("cli.main", "hymkit.cli", "main", None),
    ("flow.build_domain", "hymkit.flow", "build_domain", None),
    ("flow.run", "hymkit.flow", "run", None),
    ("flow.step", "hymkit.flow", "step", _interior_nodes),
    ("flow.mean_curvature_field", "hymkit.flow", "mean_curvature_field", None),
    ("flow.energy", "hymkit.flow", "energy", None),
    ("flow.io", "hymkit.flow", "write_history_csv", _history_bytes),
    ("flow.io", "hymkit.flow", "save_checkpoint", _checkpoint_bytes),
    ("monads.curvature_batch", "hymkit.monads", "curvature_batch", _batch_points),
    ("monads.frame_batch", "hymkit.monads", "frame_batch", None),
    ("monads.form_norm_sq", "hymkit.monads", "form_norm_sq", None),
    ("monads.curvature", "hymkit.monads", "curvature", None),
    ("monads.cohomology_frame", "hymkit.monads", "cohomology_frame", None),
    ("geometry.fd_derivative", "hymkit.geometry", "fd_derivative", None),
    ("geometry.fd_mixed_second", "hymkit.geometry", "fd_mixed_second", None),
    ("adhm.charge", "hymkit.adhm", "charge", None),
    ("ansatz.weight_ratio_sup", "hymkit.ansatz", "weight_ratio_sup", None),
    ("ansatz.instanton_comparison", "hymkit.ansatz", "instanton_comparison", None),
    ("ansatz.curvature_weight", "hymkit.ansatz", "curvature_weight", _weight_points),
    ("potential.eval_G", "hymkit.potential", "eval_G", _g_work),
    ("potential.laplacian_weak_check", "hymkit.potential", "laplacian_weak_check", None),
    ("potential.bump_pairing", "hymkit.potential", "bump_pairing", None),
    ("potential.barrier_envelope_check", "hymkit.potential", "barrier_envelope_check", None),
    ("growth.ball_integral", "hymkit.growth", "ball_integral", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target at each place a loaded hymkit module binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hymkit" or n.startswith("hymkit."))]
    for name, mod_name, attr, work in TARGETS:
        orig = getattr(sys.modules[mod_name], attr)
        traced = tracer.wrap(name, orig, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
    cli = sys.modules["hymkit.cli"]
    for suite, fn in list(cli.SUITES.items()):
        cli.SUITES[suite] = tracer.wrap(f"cli.verify.{suite}", fn)


# ---------------------------------------------------------------------------
# span arithmetic


class NameStats:
    def __init__(self):
        self.calls = 0
        self.busy = 0.0        # union of this name's intervals
        self.self_time = 0.0   # durations minus time covered by child spans
        self.durations = []    # outermost spans only
        self.work = []
        self.work_within = {}  # ancestor name -> summed work of spans under it


def summarize(spans) -> dict:
    """Per-name call counts, busy, self and work from one pass's span list."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, work, outer in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, work, outer) in enumerate(spans):
        st = stats.setdefault(name, NameStats())
        dur = end - start
        st.calls += 1
        st.self_time += dur - child_time[i]
        if outer:
            st.busy += dur
            st.durations.append(dur)
        if work is not None:
            st.work.append(work)
            amount = work[0] if isinstance(work, list) else work
            seen = set()
            j = parent
            while j >= 0:
                anc = spans[j][0]
                if anc not in seen:
                    seen.add(anc)
                    st.work_within[anc] = st.work_within.get(anc, 0) + amount
                j = spans[j][3]
    return stats


def top_level_busy(spans) -> float:
    return sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)


def merge(stats_list) -> dict:
    out = {}
    for stats in stats_list:
        for name, st in stats.items():
            m = out.setdefault(name, NameStats())
            m.calls += st.calls
            m.busy += st.busy
            m.self_time += st.self_time
            m.durations += st.durations
            m.work += st.work
            for k, v in st.work_within.items():
                m.work_within[k] = m.work_within.get(k, 0) + v
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# per-layer metrics: (metric name, unit, better, value from stats)
#
# Every value is per traced pass.  A layer that does no work on a workload
# reports 0.


def _per_layer_table():
    def st(S, name):
        return S.get(name, NameStats())

    def calls(name):
        return lambda S, n, x: st(S, name).calls / n

    def busy(name):
        return lambda S, n, x: st(S, name).busy / n

    def self_s(name):
        return lambda S, n, x: st(S, name).self_time / n

    def ms(name, q):
        return lambda S, n, x: 1e3 * percentile(st(S, name).durations, q)

    def work(name, i=None):
        def f(S, n, x):
            w = st(S, name).work
            return sum(v[i] if i is not None else v for v in w) / n
        return f

    def per_busy(name, i=None):
        def f(S, n, x):
            s = st(S, name)
            total = sum(v[i] if i is not None else v for v in s.work)
            return total / s.busy if s.busy else 0.0
        return f

    def per_unit(name, scale, by):
        def f(S, n, x):
            s = st(S, name)
            d = by(s)
            return scale * s.busy / d if d else 0.0
        return f

    def within(name, anc):
        return lambda S, n, x: st(S, name).work_within.get(anc, 0) / n

    def rel_stderr_p50(S, n, x):
        return percentile([v[1] for v in st(S, "potential.eval_G").work], 50)

    def extra(key):
        return lambda S, n, x: x[key]

    cnt, sec, msec, usec, rate, frac = "count", "s", "ms", "us", "1/s", "ratio"
    return [
        ("flow.step.calls", cnt, "lower", calls("flow.step")),
        ("flow.step.busy_s", sec, "lower", busy("flow.step")),
        ("flow.step.ms_p50", msec, "lower", ms("flow.step", 50)),
        ("flow.step.ms_p95", msec, "lower", ms("flow.step", 95)),
        ("flow.step.node_updates_per_s", rate, "higher", per_busy("flow.step")),
        ("flow.mean_curvature_field.calls", cnt, "lower", calls("flow.mean_curvature_field")),
        ("flow.mean_curvature_field.busy_s", sec, "lower", busy("flow.mean_curvature_field")),
        ("flow.mean_curvature_field.ms_p50", msec, "lower", ms("flow.mean_curvature_field", 50)),
        ("flow.energy.calls", cnt, "lower", calls("flow.energy")),
        ("flow.energy.busy_s", sec, "lower", busy("flow.energy")),
        ("flow.run.self_s", sec, "lower", self_s("flow.run")),
        ("flow.build_domain.busy_s", sec, "lower", busy("flow.build_domain")),
        ("flow.io.busy_s", sec, "lower", busy("flow.io")),
        ("flow.io.bytes", "bytes", "lower", work("flow.io")),
        ("flow.converge_step", cnt, "lower", extra("flow.converge_step")),
        ("monads.curvature_batch.calls", cnt, "lower", calls("monads.curvature_batch")),
        ("monads.curvature_batch.points", cnt, "higher", work("monads.curvature_batch")),
        ("monads.curvature_batch.busy_s", sec, "lower", busy("monads.curvature_batch")),
        ("monads.curvature_batch.us_per_point", usec, "lower",
         per_unit("monads.curvature_batch", 1e6, lambda s: sum(s.work))),
        ("monads.curvature_batch.self_s", sec, "lower", self_s("monads.curvature_batch")),
        ("monads.frame_batch.busy_s", sec, "lower", busy("monads.frame_batch")),
        ("monads.form_norm_sq.busy_s", sec, "lower", busy("monads.form_norm_sq")),
        ("monads.curvature.calls", cnt, "lower", calls("monads.curvature")),
        ("monads.curvature.busy_s", sec, "lower", busy("monads.curvature")),
        ("monads.curvature.us_per_call", usec, "lower",
         per_unit("monads.curvature", 1e6, lambda s: s.calls)),
        ("monads.curvature.self_s", sec, "lower", self_s("monads.curvature")),
        ("monads.cohomology_frame.busy_s", sec, "lower", busy("monads.cohomology_frame")),
        ("geometry.fd_derivative.calls", cnt, "lower", calls("geometry.fd_derivative")),
        ("geometry.fd_derivative.busy_s", sec, "lower", busy("geometry.fd_derivative")),
        ("geometry.fd_mixed_second.calls", cnt, "lower", calls("geometry.fd_mixed_second")),
        ("adhm.charge.busy_s", sec, "lower", busy("adhm.charge")),
        ("adhm.charge.points", cnt, "higher", within("monads.curvature_batch", "adhm.charge")),
        ("adhm.charge.self_s", sec, "lower", self_s("adhm.charge")),
        ("ansatz.weight_ratio_sup.busy_s", sec, "lower", busy("ansatz.weight_ratio_sup")),
        ("ansatz.instanton_comparison.busy_s", sec, "lower", busy("ansatz.instanton_comparison")),
        ("ansatz.curvature_weight.points", cnt, "higher", work("ansatz.curvature_weight")),
        ("ansatz.curvature_weight.busy_s", sec, "lower", busy("ansatz.curvature_weight")),
        ("potential.eval_G.calls", cnt, "lower", calls("potential.eval_G")),
        ("potential.eval_G.busy_s", sec, "lower", busy("potential.eval_G")),
        ("potential.eval_G.ms_p50", msec, "lower", ms("potential.eval_G", 50)),
        ("potential.eval_G.ms_p95", msec, "lower", ms("potential.eval_G", 95)),
        ("potential.eval_G.samples", cnt, "higher", work("potential.eval_G", 0)),
        ("potential.eval_G.samples_per_s", rate, "higher", per_busy("potential.eval_G", 0)),
        ("potential.eval_G.rel_stderr_p50", frac, "lower", rel_stderr_p50),
        ("potential.laplacian_weak_check.busy_s", sec, "lower",
         busy("potential.laplacian_weak_check")),
        ("potential.bump_pairing.busy_s", sec, "lower", busy("potential.bump_pairing")),
        ("potential.barrier_envelope_check.self_s", sec, "lower",
         self_s("potential.barrier_envelope_check")),
        ("growth.ball_integral.calls", cnt, "lower", calls("growth.ball_integral")),
        ("growth.ball_integral.busy_s", sec, "lower", busy("growth.ball_integral")),
        ("cli.verify.adhm.busy_s", sec, "lower", busy("cli.verify.adhm")),
        ("cli.verify.ansatz.busy_s", sec, "lower", busy("cli.verify.ansatz")),
        ("cli.verify.cone.busy_s", sec, "lower", busy("cli.verify.cone")),
        ("cli.verify.growth.busy_s", sec, "lower", busy("cli.verify.growth")),
        ("cli.main.self_s", sec, "lower", self_s("cli.main")),
        ("trace.overhead_frac", frac, "lower", extra("trace.overhead_frac")),
        ("trace.accounted_frac", frac, "higher", extra("trace.accounted_frac")),
    ]


PER_LAYER = _per_layer_table()


def per_layer_metrics(stats_list, extra: dict) -> dict:
    """Every per-layer metric from the span stats of the traced passes."""
    merged = merge(stats_list)
    n = max(len(stats_list), 1)
    return {name: {"value": float(fn(merged, n, extra)), "unit": unit}
            for name, unit, _, fn in PER_LAYER}
