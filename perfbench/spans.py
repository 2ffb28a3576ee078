"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps every public function of the ``tailratio`` modules (and
the public methods of the classes they define) at every name that binds
it, so a call through a directly imported name such as
``probability.substream`` is recorded the same as a call through
``rng.substream``.  Each call becomes one span ``(id, name, parent,
start_ns, end_ns, value)``: ``parent`` is the id of the span open when the
call was made (or None) and ``value`` is an optional count of work (values
read, variates drawn, trials run).  Spans are immutable tuples of plain
values, so the garbage collector stops tracking them, and they stay in
memory until the run ends.

The open span is kept in a context variable.  While the recorder is
installed, work submitted to a ``concurrent.futures.ThreadPoolExecutor``
runs in a copy of the submitter's context, so a call made on a worker
thread has the submitting span as its parent.  A span recorded on any other
thread with no parent (a thread started directly) cannot be placed in the
tree; its name goes to ``Recorder.orphans`` and the traced run fails on it.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Children are merged as intervals, so children running
concurrently on worker threads are not counted twice.
"""

import concurrent.futures
import contextvars
import functools
import inspect
import itertools
import threading
import time

# span name -> work count taken from (args, kwargs, result)
VALUES = {
    "records.read_values": lambda args, kwargs, result: len(result),
    "families.TailFamily.sample_with": lambda args, kwargs, result: int(result.size),
    "probability.mc_probability": lambda args, kwargs, result: int(result.trials),
}

ALL = ("ingest", "montecarlo", "lln", "quick")

# (metric, span name, statistic, workloads on which the span must be called).
# Statistics: calls, self_s, values.  Derived metrics are computed in
# layer_metrics and listed in DERIVED.
PER_LAYER = (
    ("cli.main.self_s", "cli.main", "self_s", ALL),
    ("families.parse_family_spec.self_s", "families.parse_family_spec", "self_s",
     ("montecarlo", "lln", "quick")),
    ("records.read_values.calls", "records.read_values", "calls", ("ingest",)),
    ("records.read_values.self_s", "records.read_values", "self_s", ("ingest",)),
    ("records.read_values.values", "records.read_values", "values", ("ingest",)),
    ("outliers.top_two_magnitudes.self_s", "outliers.top_two_magnitudes", "self_s",
     ("ingest",)),
    ("outliers.block_event_frequency.self_s", "outliers.block_event_frequency",
     "self_s", ("ingest",)),
    ("outliers.ksigma_outliers.self_s", "outliers.ksigma_outliers", "self_s",
     ("ingest",)),
    ("rng.substream.calls", "rng.substream", "calls", ("montecarlo", "lln")),
    ("rng.substream.self_s", "rng.substream", "self_s", ("montecarlo", "lln")),
    ("families.sample_with.calls", "families.TailFamily.sample_with", "calls",
     ("montecarlo", "lln")),
    ("families.sample_with.self_s", "families.TailFamily.sample_with", "self_s",
     ("montecarlo", "lln")),
    ("families.sample_with.values", "families.TailFamily.sample_with", "values",
     ("montecarlo", "lln")),
    ("probability.mc_probability.self_s", "probability.mc_probability", "self_s",
     ("montecarlo",)),
    ("probability.exact_probability.calls", "probability.exact_probability", "calls",
     ("quick",)),
    ("probability.exact_probability.self_s", "probability.exact_probability",
     "self_s", ("quick",)),
    ("probability.joint_oracle_probability.calls",
     "probability.joint_oracle_probability", "calls", ("quick",)),
    ("probability.joint_oracle_probability.self_s",
     "probability.joint_oracle_probability", "self_s", ("quick",)),
    ("probability.check_theorem_conditions.calls",
     "probability.check_theorem_conditions", "calls", ("quick",)),
    ("probability.check_theorem_conditions.self_s",
     "probability.check_theorem_conditions", "self_s", ("quick",)),
    ("families.pdf.calls", "families.TailFamily.pdf", "calls", ("quick",)),
    ("families.cdf.calls", "families.TailFamily.cdf", "calls", ("quick",)),
    ("families.quantile.calls", "families.TailFamily.quantile", "calls", ("quick",)),
    ("lln.scaling_exponent_experiment.self_s", "lln.scaling_exponent_experiment",
     "self_s", ("lln",)),
    ("intervals.wilson_interval.self_s", "intervals.wilson_interval", "self_s",
     ("ingest", "montecarlo")),
    ("estimation.estimate_alpha_from_frequency.self_s",
     "estimation.estimate_alpha_from_frequency", "self_s", ("ingest",)),
    ("records.to_json.self_s", "records.to_json", "self_s",
     ("ingest", "montecarlo", "quick")),
)

DERIVED = (
    # substream constructions inside mc_probability per Monte Carlo trial
    "rng.substreams_per_trial",
    # closed-form family evaluations (pdf, cdf, log_cdf, quantile, ...)
    # made inside exact_probability, per exact_probability call
    "probability.exact_probability.evals_per_call",
)

_FAMILY_EVALS = frozenset(
    "families.TailFamily." + m
    for m in ("pdf", "cdf", "log_cdf", "pdf_derivative", "quantile")
)


class Recorder:
    """Collects spans from wrapped functions; one recorder per traced pass."""

    def __init__(self):
        self.spans = []
        self.orphans = set()
        self._ids = itertools.count()
        self._open = contextvars.ContextVar("open_span", default=None)

    def wrap(self, name, fn):
        spans = self.spans
        orphans = self.orphans
        ids = self._ids
        open_span = self._open
        measure = VALUES.get(name)
        clock = time.perf_counter_ns
        main = threading.main_thread()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = open_span.get()
            if parent is None and threading.current_thread() is not main:
                orphans.add(name)
            token = open_span.set(sid)
            result = value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                open_span.reset(token)
                if measure is not None and result is not None:
                    value = measure(args, kwargs, result)
                spans.append((sid, name, parent, start, end, value))

        return wrapper


def install(recorder, modules):
    """Wrap the public functions and methods defined in `modules`.

    Every module attribute bound to a wrapped function is rebound, whichever
    module defined it, and ``ThreadPoolExecutor.submit`` runs the submitted
    call in a copy of the submitter's context.  Returns a function that
    restores the originals.
    """
    wrappers = {}
    restore = []
    for mod in modules:
        short = mod.__name__.partition(".")[2] or mod.__name__
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
            elif inspect.isclass(obj):
                for m_attr, m_obj in list(vars(obj).items()):
                    if not m_attr.startswith("_") and inspect.isfunction(m_obj):
                        name = f"{short}.{obj.__name__}.{m_attr}"
                        setattr(obj, m_attr, recorder.wrap(name, m_obj))
                        restore.append((obj, m_attr, m_obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                restore.append((mod, attr, obj))

    pool = concurrent.futures.ThreadPoolExecutor
    submit = pool.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    pool.submit = submit_in_context
    restore.append((pool, "submit", submit))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


def self_times_ns(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = {}
    for span in spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append(span)
    out = []
    for sid, _, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for child in sorted(children.get(sid, ()), key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans):
    """Per span name: calls, self_s and summed values."""
    stats = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        entry = stats.setdefault(span[1], {"calls": 0, "self_s": 0.0, "values": 0})
        entry["calls"] += 1
        entry["self_s"] += self_ns * 1e-9
        if span[5] is not None:
            entry["values"] += span[5]
    return stats


def _count_under(spans, names, ancestor):
    """Spans named in `names` that have a span named `ancestor` above them."""
    by_id = {span[0]: span for span in spans}
    count = 0
    for span in spans:
        if span[1] not in names:
            continue
        parent = span[2]
        while parent is not None and by_id[parent][1] != ancestor:
            parent = by_id[parent][2]
        count += parent is not None
    return count


def layer_metrics(spans):
    """Every per-layer span metric (PER_LAYER and DERIVED) from one pass."""
    stats = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "values": 0}
    metrics = {
        metric: stats.get(span_name, empty)[stat]
        for metric, span_name, stat, _ in PER_LAYER
    }
    trials = stats.get("probability.mc_probability", empty)["values"]
    mc_substreams = _count_under(spans, {"rng.substream"}, "probability.mc_probability")
    metrics["rng.substreams_per_trial"] = mc_substreams / trials if trials else 0.0
    exact_calls = stats.get("probability.exact_probability", empty)["calls"]
    evals = _count_under(spans, _FAMILY_EVALS, "probability.exact_probability")
    metrics["probability.exact_probability.evals_per_call"] = (
        evals / exact_calls if exact_calls else 0.0
    )
    return metrics


def missing_calls(spans, workload):
    """Span names mapped to `workload` that recorded no call."""
    called = {span[1] for span in spans}
    return sorted(
        {span_name for _, span_name, _, on in PER_LAYER
         if workload in on and span_name not in called}
    )
