"""Span tracer installed from outside the program, and span aggregation.

The tracer wraps public functions of cocyclelab where their callers look
them up (a module attribute, or a method on its class) and records one span
per call.  Span record format, shared by every writer of spans:

    [id, name, start, end, parent, op, thread]

``start``/``end`` are ``time.perf_counter()`` seconds, ``parent`` is the id
of the enclosing span (or -1), ``op`` is the op number the span belongs to
and ``thread`` a small per-run thread number (0 = the thread that installed
the tracer).  A span opened on a worker thread whose own stack is empty
takes the installing thread's innermost open span as its parent, since
that thread is blocked inside it.  Spans are kept in memory and written
once, when the run ends, as ``{"fields": [...], "spans": [[...], ...]}``.

Besides spans the tracer keeps exact per-op counters (``points``, ``steps``,
``zeros``...) that hooks derive from call arguments and results.  A target
that no longer exists in the program is listed in ``Tracer.absent`` and its
metrics read 0; installing never fails on a missing name.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

SPAN_FIELDS = ["id", "name", "start", "end", "parent", "op", "thread"]
ID, NAME, START, END, PARENT, OP, THREAD = range(7)

ESTIMATORS = ("lyapunov.estimate_spectrum", "lyapunov.estimate_top_exponent")


def _len_arg(index, counter):
    """Hook counting the length of positional argument ``index``."""
    def hook(tracer, args, kwargs, result):
        try:
            tracer.count(counter, len(args[index]))
        except TypeError:
            tracer.count(counter, 1)
    return hook


def _steps(tracer, args, kwargs, result):
    # estimate_*(product, n_iter, n_rep, ...)
    n_iter = args[1] if len(args) > 1 else kwargs["n_iter"]
    n_rep = args[2] if len(args) > 2 else kwargs["n_rep"]
    tracer.count("lyapunov.steps", int(n_iter) * int(n_rep))


def _converged(tracer, args, kwargs, result):
    tracer.count("holonomy.oseledets_directions.converged", int(bool(result.converged)))


def _zeros(tracer, args, kwargs, result):
    tracer.count("certify.zeros", len(result.zeros))


# (metric name, module, attribute path, hook or None, span or count-only).
# The same metric may be patched in several modules: each caller's own
# lookup is wrapped, so every call passes exactly one wrapper.
TARGETS = [
    ("experiments.load_experiment_config", "cocyclelab.experiments",
     "load_experiment_config", None, True),
    ("fileio.load_cocycle", "cocyclelab.experiments", "load_cocycle", None, True),
    ("cocycle.TrigMatrixMap", "cocyclelab.cocycle", "TrigMatrixMap.__init__", None, True),
    ("cocycle.eval_many", "cocyclelab.cocycle", "TrigMatrixMap.eval_many",
     _len_arg(1, "cocycle.eval_many.points"), True),
    ("lyapunov.estimate_spectrum", "cocyclelab.experiments", "estimate_spectrum",
     _steps, True),
    ("lyapunov.estimate_top_exponent", "cocyclelab.experiments",
     "estimate_top_exponent", _steps, True),
    ("lyapunov.estimate_top_exponent", "cocyclelab.certify",
     "estimate_top_exponent", _steps, True),
    ("lyapunov.diagonal_spectrum", "cocyclelab.experiments", "diagonal_spectrum",
     None, True),
    ("circle.base_orbit", "cocyclelab.holonomy", "base_orbit", None, True),
    ("circle.base_orbit", "cocyclelab.cocycle", "base_orbit", None, True),
    ("holonomy.oseledets_directions", "cocyclelab.certify", "oseledets_directions",
     _converged, True),
    ("holonomy.closed_form_holonomy_many", "cocyclelab.certify",
     "closed_form_holonomy_many",
     _len_arg(1, "holonomy.closed_form_holonomy_many.points"), True),
    ("holonomy.projective_distance", "cocyclelab.certify", "projective_distance",
     None, False),
    ("holonomy.projective_distance", "cocyclelab.holonomy", "projective_distance",
     None, False),
    ("certify.weakly_pinching", "cocyclelab.experiments", "weakly_pinching", None, True),
    ("certify.weakly_twisting", "cocyclelab.experiments", "weakly_twisting", None, True),
    ("certify.pinching_d", "cocyclelab.experiments", "pinching_d", None, True),
    ("certify.twisting_d", "cocyclelab.experiments", "twisting_d", None, True),
    ("certify.log_integrability", "cocyclelab.certify", "log_integrability",
     _zeros, True),
    ("certify.root_refine", "cocyclelab.certify", "bisect", None, True),
    ("certify.root_refine", "cocyclelab.certify", "minimize_scalar", None, True),
    ("tables.emit", "cocyclelab.tables", "ResultTable.emit", None, True),
    ("certify.write_json", "cocyclelab.certify", "Certificate.write_json", None, True),
]


class Tracer:
    """Records spans and counters for the calls of one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.op = -1
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = None
        self._threads = {}
        self._patches = []
        self._estimators_open = 0

    # -- recording -----------------------------------------------------

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            ident = threading.get_ident()
            if ident == self._home:
                self._home_stack = stack
            with self._lock:
                self._threads.setdefault(ident, len(self._threads))
        return stack

    def begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        elif self._home_stack:
            parent = self._home_stack[-1][ID]
        else:
            parent = -1
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            thread = self._threads[threading.get_ident()]
        record = [span_id, name, time.perf_counter(), None, parent, self.op, thread]
        stack.append(record)
        return record

    def end(self, record):
        record[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    # -- installing ----------------------------------------------------

    def _wrap(self, name, fn, hook, timed):
        tracer = self
        estimator = name in ESTIMATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                result = fn(*args, **kwargs)
                tracer.count(name + ".calls")
                return result
            record = tracer.begin(name)
            if estimator:
                with tracer._lock:
                    tracer._estimators_open += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if estimator:
                    with tracer._lock:
                        tracer._estimators_open -= 1
                tracer.end(record)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_minor_function(self, make_minor):
        tracer = self

        @functools.wraps(make_minor)
        def wrapper(*args, **kwargs):
            g = make_minor(*args, **kwargs)

            @functools.wraps(g)
            def counted(ts):
                tracer.count("certify.minor_fn.calls")
                if len(ts) == 1:
                    tracer.count("certify.minor_fn.scalar_calls")
                return g(ts)

            return counted

        return wrapper

    def _wrap_qr(self, qr):
        tracer = self

        @functools.wraps(qr)
        def wrapper(*args, **kwargs):
            if tracer._estimators_open:
                tracer.count("lyapunov.qr.calls")
            return qr(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, path, make_wrapper, label):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(label)
            return
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(label)
            return
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original))

    def install(self, targets=TARGETS):
        """Wrap every target that exists; list the missing ones in ``absent``."""
        for name, module_name, path, hook, timed in targets:
            self._patch(module_name, path,
                        functools.partial(self._wrap, name, hook=hook, timed=timed),
                        f"{name} ({module_name}.{path})")
        self._patch("cocyclelab.certify", "_minor_function", self._wrap_minor_function,
                    "certify.minor_fn (cocyclelab.certify._minor_function)")
        self._patch("numpy.linalg", "qr", self._wrap_qr,
                    "lyapunov.qr (numpy.linalg.qr)")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_counts(self):
        """Counters recorded since the last call, then reset."""
        with self._lock:
            counts = dict(self.counts)
            self.counts.clear()
        return counts

    def dump(self):
        return {"fields": SPAN_FIELDS, "spans": self.spans}


# -- aggregation ------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        kids = [(max(k[START], s[START]), min(k[END], s[END]))
                for k in children.get(s[ID], ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s[ID]] = (s[END] - s[START]) - _covered(kids)
    return out


def summarize_op(spans):
    """Per-name totals of one op: calls, inclusive s and self s.

    A span nested (on the same thread) inside a span of the same name adds
    to ``calls`` and to the outer span's self time, but not again to the
    inclusive total.
    """
    by_id = {s[ID]: s for s in spans}
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        entry = out[s[NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[s[ID]]
        parent = by_id.get(s[PARENT])
        while parent is not None and parent[NAME] != s[NAME]:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            entry["s"] += s[END] - s[START]
    return dict(out)


def check_nesting(spans):
    """Violations of: children's self times on one thread sum to <= the parent."""
    selfs = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    sums = defaultdict(float)
    for s in spans:
        if s[PARENT] in by_id:
            sums[(s[PARENT], s[THREAD])] += selfs[s[ID]]
    bad = []
    for (parent_id, thread), total in sums.items():
        parent = by_id[parent_id]
        if total > parent[END] - parent[START] + 1e-9:
            bad.append({"parent": parent[NAME], "thread": thread,
                        "children_self_s": total,
                        "parent_s": parent[END] - parent[START]})
    return bad
