"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping the public entry points of each layer
from outside the program: :func:`install` replaces a function or method
with a recording wrapper and :func:`uninstall` puts every original
back.  No program file is edited.

A span is ``(id, parent, name, start, end, thread, corr)``.  The parent
is the innermost open span on the same thread; a rank body started by
``run_spmd`` on a fresh thread takes the job's span as its parent, so
the job's self time is its duration minus the time any rank body was
running.  ``corr`` groups the spans of one serving slab or one refit.

Self time of a span = its duration minus the union of its children's
intervals (clipped to the span), so the two rank bodies of a job, which
run side by side on their own threads, are not charged twice.  The
union cannot exceed the span, so the accounting is checked another way:
the children a span has on its own thread run one after another, so
their summed durations must fit inside it (:attr:`Analysis.overfull`
counts the spans where they do not).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

Span = Tuple[int, int, str, float, float, int, int]

_clock = time.perf_counter
_MISSING = object()


class Recorder:
    """Holds the spans of one run and the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.corr = 0  # current correlation id (0 = none)
        self._ids = itertools.count(1)
        self._corr_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: work counted at the wrappers (e.g. kernel entries per block)
        self.counts: Dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = [0]
        return st

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        correlate: bool = False,
        count: Callable = None,
    ) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``correlate`` opens a new correlation id for the duration of
        the call (one serving slab, one refit): every span started on
        any thread while it is open carries that id.  ``count(args)``
        returns an amount of work added to ``counts[name]``.
        """
        rec = self

        def wrapped(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                n = count(args)
                with rec._count_lock:
                    rec.counts[name] += n
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1]
            prev_corr = rec.corr
            if correlate:
                rec.corr = next(rec._corr_ids)
            corr = rec.corr
            stack.append(sid)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                if correlate:
                    rec.corr = prev_corr
                rec.spans.append(
                    (sid, parent, name, t0, t1, threading.get_ident(), corr)
                )

        wrapped.__wrapped__ = fn
        return wrapped

    def wrap_job(self, fn: Callable) -> Callable:
        """Wrap ``run_spmd``: an ``mpi.job`` span whose rank bodies are
        ``mpi.rank`` child spans, also when they run on other threads."""
        rec = self

        def run(body, *args, **kwargs):
            if not rec.enabled:
                return fn(body, *args, **kwargs)
            job_id: List[int] = []
            rank_span = rec.wrap("mpi.rank", body)

            def rank_body(*a, **k):
                stack = rec._stack()
                stack.append(job_id[0])  # the parent across the thread hop
                try:
                    return rank_span(*a, **k)
                finally:
                    stack.pop()

            def start(*a, **k):
                job_id.append(rec._stack()[-1])
                return fn(rank_body, *a, **k)

            return rec.wrap("mpi.job", start)(*args, **kwargs)

        run.__wrapped__ = fn
        return run

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_function(self, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        holds it under its own name (``from x import f`` copies too)."""
        name = original.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            if mod.__dict__.get(name) is original:
                self.patch(mod, name, replacement)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = getattr(cls, attr)
        self.patch(cls, attr, self.wrap(name, original, **kw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark charges."""
    from repro.core import solver
    from repro.core.model import SVMModel
    from repro.core.parallel import PackedRankSolver
    from repro.kernels.base import Kernel
    from repro.mpi import frames, runtime
    from repro.mpi.communicator import Comm
    from repro.mpi.faults import FaultEngine
    from repro.mpi.mailbox import Mailbox
    from repro.serve import batching, cache
    from repro.serve.registry import ModelRegistry
    from repro.sparse.csr import CSRMatrix
    from repro.stream.incremental import IncrementalSVC

    # core: the solver's per-iteration phases and fit_parallel
    for attr, name in (
        ("select", "core.select"),
        ("fetch_pair", "core.fetch_pair"),
        ("iterate_once", "core.iterate"),
        ("reconstruct", "core.reconstruct"),
    ):
        rec.patch_method(PackedRankSolver, attr, name)
    rec.patch_function(solver.fit_parallel, rec.wrap("core.fit", solver.fit_parallel))

    # mpi: jobs, collectives, blocking receives, the frame codec, faults
    rec.patch_function(runtime.run_spmd, rec.wrap_job(runtime.run_spmd))
    for attr in (
        "barrier", "bcast", "reduce", "allreduce", "allreduce_buffer",
        "gather", "allgather", "scatter", "alltoall", "scan", "exscan",
        "reduce_scatter",
    ):
        rec.patch_method(Comm, attr, "mpi.collective")
    rec.patch_method(Mailbox, "take", "mpi.take")
    rec.patch_method(FaultEngine, "re_request", "mpi.faults.rerequest")
    rec.patch(frames, "encode", rec.wrap("mpi.frames", frames.encode))
    rec.patch(frames, "decode", rec.wrap("mpi.frames", frames.decode))

    # kernels / sparse
    rec.patch_method(
        Kernel, "block", "kernels.block",
        count=lambda a: a[1].shape[0] * a[3].shape[0],
    )
    rec.patch_method(CSRMatrix, "dot_csr_t", "sparse.dot_csr_t")
    rec.patch_method(CSRMatrix, "take_rows", "sparse.take_rows")

    # serve: the scheduler loop (its dispatch callback is one slab),
    # the result cache and the registry
    def schedule(arrivals, policy, dispatch, admit=None):
        dispatch = rec.wrap("serve.dispatch", dispatch, correlate=True)
        if admit is not None:
            admit = rec.wrap("serve.admit", admit)
        return run_schedule(arrivals, policy, dispatch, admit=admit)

    run_schedule = batching.run_schedule
    rec.patch_function(run_schedule, rec.wrap("serve.schedule", schedule))
    rec.patch_function(cache.request_key, rec.wrap("serve.cache", cache.request_key))
    rec.patch_method(cache.ResultCache, "get", "serve.cache")
    rec.patch_method(cache.ResultCache, "put", "serve.cache")
    for attr in ("publish", "hot_swap", "load", "activate"):
        rec.patch_method(ModelRegistry, attr, "serve.registry")

    # stream
    rec.patch_method(IncrementalSVC, "partial_fit", "stream.partial_fit", correlate=True)
    rec.patch_method(SVMModel, "accuracy", "stream.prequential")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Analysis:
    """Self times, call counts and nesting checks over recorded spans."""

    #: seconds by which same-thread children may outlast their parent
    #: (clock reads inside the wrappers)
    SLACK = 1e-6

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        kids: Dict[int, List[Span]] = defaultdict(list)
        for s in spans:
            if s[1]:
                kids[s[1]].append(s)
        self.children = kids
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.outer_calls: Dict[str, int] = defaultdict(int)
        self.overfull = 0
        for s in spans:
            sid, parent, name, t0, t1, tid = s[:6]
            dur = t1 - t0
            mine = kids.get(sid, ())
            if sum(c[4] - c[3] for c in mine if c[5] == tid) > dur + self.SLACK:
                self.overfull += 1
            own = dur - _covered(t0, t1, [(c[3], c[4]) for c in mine])
            self.self_s[name] += own
            self.total_s[name] += dur
            self.calls[name] += 1
            p = self.by_id.get(parent)
            if p is None or p[2] != name:
                self.outer_calls[name] += 1

    def nesting_errors(self) -> int:
        """Spans whose interval leaves their parent's, or whose parent
        was never closed (missing)."""
        bad = 0
        slack = self.SLACK
        for s in self.spans:
            if not s[1]:
                continue
            p = self.by_id.get(s[1])
            if p is None or s[3] < p[3] - slack or s[4] > p[4] + slack:
                bad += 1
        return bad

    def time_with_child(self, name: str, child_name: str) -> float:
        """Summed duration of the ``name`` spans that have at least one
        direct ``child_name`` child (e.g. receives that re-requested)."""
        total = 0.0
        for s in self.spans:
            if s[2] != name:
                continue
            if any(c[2] == child_name for c in self.children.get(s[0], ())):
                total += s[4] - s[3]
        return total


def write_timeline(spans: List[Span], path) -> None:
    """Write the spans as one Chrome trace-event timeline (``ph: X``)."""
    t_base = min((s[3] for s in spans), default=0.0)
    threads: Dict[int, int] = {}
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": round((t0 - t_base) * 1e6, 3),
            "dur": round((t1 - t0) * 1e6, 3),
            "pid": 0,
            "tid": threads.setdefault(tid, len(threads)),
            "args": {"id": sid, "parent": parent, "corr": corr},
        }
        for sid, parent, name, t0, t1, tid, corr in sorted(spans, key=lambda s: s[3])
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
