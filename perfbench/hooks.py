"""Instrumentation installed around gcflow's public functions from outside.

Nothing here edits the program: each hook replaces a function or method with
a wrapper, in every ``gcflow`` module namespace that binds it (so names
brought in with ``from .x import y`` are covered too).

Two levels:

* always on: epoch boundaries (``autodiff.zero_grads``, which ``train()``
  calls once at the start of every epoch) and the ``training.evaluate``
  interval. These feed the end-to-end metrics and cost one clock read each.
* ``trace=True``: a span per call at each layer boundary, call and node
  counts, and garbage-collector pauses from ``gc.callbacks``. Spans are kept
  in memory and written when the run ends.

A span is ``[name, start, end, parent, trace_id, child_seconds]``; a layer's
self time is its duration minus ``child_seconds``, the time its direct child
spans cover. The trace id names the job and the epoch, request, set-up or
evaluate the span belongs to.
"""

from __future__ import annotations

import collections
import functools
import gc
import json
import sys
import time

clock = time.perf_counter


class SetupDone(Exception):
    """Raised at the first epoch boundary to end a set-up probe."""


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.active = False  # hooks record only inside a job
        self.abort_setup = False
        self.spans = []
        self.stack = []
        self.trace_id = ""
        self.job = 0
        self.epoch_span = None
        self._gc_span = None
        self.counts = collections.Counter()
        self.marks = []  # epoch-start timestamps of the current job
        self.evals = []  # (start, end) of evaluate calls in the current job
        self.missing = []  # per-layer hook targets the program no longer has

    # -- spans ---------------------------------------------------------

    def open(self, name):
        rec = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.trace_id, 0.0]
        self.spans.append(rec)
        # index taken after the append: a collector pause may add its own span
        # while ``rec`` is being allocated
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = clock()
        while self.stack and self.stack.pop() != idx:
            pass
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def close_epoch(self):
        if self.epoch_span is not None:
            self.close(self.epoch_span)
            self.epoch_span = None

    def begin_job(self, job):
        self.job = job
        self.marks = []
        self.evals = []
        self.trace_id = f"j{job}/setup"
        self.active = True

    def end_job(self):
        self.close_epoch()
        self.active = False

    def on_gc(self, phase, info):
        if not (self.active and self.stack):
            return
        if phase == "start":
            self._gc_span = self.open("autodiff.gc")
        else:
            self.close(self._gc_span)
            self.counts["autodiff.gc.collected"] += info["collected"]

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trace_id, child in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "trace": trace_id, "self": end - start - child,
                }) + "\n")

    # -- wrappers ------------------------------------------------------

    def spanned(self, name, count=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if count:
                    self.counts[count] += 1
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return wrapper
        return make

    def epoch_marker(self, fn):
        @functools.wraps(fn)
        def zero_grads(*args, **kwargs):
            if self.active:
                self.marks.append(clock())
                if self.abort_setup:
                    raise SetupDone
                if self.trace:
                    self.close_epoch()
                    self.trace_id = f"j{self.job}/epoch{len(self.marks) - 1}"
                    self.epoch_span = self.open("training.epoch")
            return fn(*args, **kwargs)
        return zero_grads

    def eval_marker(self, fn):
        @functools.wraps(fn)
        def evaluate(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = None
            if self.trace:
                self.close_epoch()
                self.trace_id = f"j{self.job}/eval{len(self.evals)}"
                idx = self.open("training.evaluate")
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.evals.append((start, clock()))
                if idx is not None:
                    self.close(idx)
        return evaluate

    def node_counter(self, fn):
        @functools.wraps(fn)
        def make_node(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                self.counts["autodiff.nodes"] += 1
                self._mark_useful(out, "autodiff.nodes_useful")
            return out
        return make_node

    def logdet_counter(self, fn):
        spanned = self.spanned("graphs.logabsdet_tensor", "graphs.logabsdet_tensor.calls")(fn)

        @functools.wraps(fn)
        def logabsdet_tensor(*args, **kwargs):
            out = spanned(*args, **kwargs)
            if self.active:
                self._mark_useful(out, "graphs.logabsdet_tensor.useful")
            return out
        return logabsdet_tensor

    def kmeans_counter(self, fn):
        spanned = self.spanned("evalkit.kmeans", "evalkit.kmeans.calls")(fn)

        @functools.wraps(fn)
        def kmeans(*args, **kwargs):
            out = spanned(*args, **kwargs)
            if self.active:
                self.counts["evalkit.kmeans.iters"] += len(getattr(out, "inertia_trace", ()))
            return out
        return kmeans

    def _mark_useful(self, node, counter):
        """Count ``node`` as useful once a backward pass runs its closure."""
        run = getattr(node, "_backward", None)
        if run is None:
            return
        counts = self.counts

        def backward_step():
            counts[counter] += 1
            run()

        node._backward = backward_step


def _rebind(orig, new):
    for name, module in list(sys.modules.items()):
        if name == "gcflow" or name.startswith("gcflow."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


def patch(rec, module, name, make, required=False):
    orig = getattr(module, name, None)
    if orig is None:
        if required:
            raise AttributeError(f"{module.__name__}.{name} is needed to time the workload")
        rec.missing.append(f"{module.__name__}.{name}")
        return
    _rebind(orig, make(orig))


def patch_method(rec, cls, name, make):
    orig = cls.__dict__.get(name)
    if orig is None:
        rec.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
        return
    setattr(cls, name, make(orig))


def install(rec: Recorder):
    """Wrap the program's functions; call once, after importing gcflow."""
    from gcflow import adjparam, autodiff, checkpoint, data, evalkit, flows, graphs, mixture, training

    patch(rec, autodiff, "zero_grads", rec.epoch_marker, required=True)
    patch(rec, training, "evaluate", rec.eval_marker, required=True)
    if not rec.trace:
        return
    s = rec.spanned
    patch(rec, data, "load_dataset", s("data.load_dataset"))
    patch(rec, checkpoint, "load_checkpoint", s("checkpoint.load_checkpoint"))
    patch(rec, graphs, "normalize_row", s("graphs.normalize"))
    patch(rec, graphs, "normalize_sym", s("graphs.normalize"))
    patch(rec, graphs, "logabsdet_tensor", rec.logdet_counter)
    for cls in (getattr(adjparam, "AttentionAdjacency", None), getattr(adjparam, "ConcreteAdjacency", None)):
        if cls is not None:
            patch_method(rec, cls, "realize", s("adjparam.realize", "adjparam.realize.calls"))
    patch_method(rec, flows.GcFlowModel, "forward", s("flows.forward", "flows.forward.calls"))
    patch_method(rec, flows.FlowStack, "forward", s("flows.couplings"))
    patch_method(rec, autodiff.Tensor, "backward", s("autodiff.backward"))
    patch(rec, autodiff, "make_node", rec.node_counter)
    patch(rec, mixture, "semi_supervised_loss", s("mixture.loss"))
    patch(rec, mixture, "predict", s("mixture.predict"))
    patch(rec, training, "adam_step", s("training.adam"))
    patch(rec, training, "clip_gradients", s("training.clip"))
    patch(rec, evalkit, "silhouette", s("evalkit.silhouette"))
    patch(rec, evalkit, "kmeans", rec.kmeans_counter)
    gc.callbacks.append(rec.on_gc)


# -- per-layer metrics ---------------------------------------------------

# (metric, span name, "total" or "self"); seconds per job
SPAN_METRICS = (
    ("data.load_dataset.s", "data.load_dataset", "total"),
    ("checkpoint.load_checkpoint.s", "checkpoint.load_checkpoint", "total"),
    ("graphs.normalize.s", "graphs.normalize", "total"),
    ("graphs.logabsdet_tensor.s", "graphs.logabsdet_tensor", "total"),
    ("adjparam.realize.s", "adjparam.realize", "self"),
    ("flows.forward.s", "flows.forward", "self"),
    ("flows.couplings.s", "flows.couplings", "total"),
    ("autodiff.backward.s", "autodiff.backward", "total"),
    ("autodiff.gc.s", "autodiff.gc", "total"),
    ("mixture.loss.s", "mixture.loss", "self"),
    ("mixture.predict.s", "mixture.predict", "self"),
    ("training.adam.s", "training.adam", "total"),
    ("training.clip.s", "training.clip", "total"),
    ("evalkit.silhouette.s", "evalkit.silhouette", "total"),
    ("evalkit.kmeans.s", "evalkit.kmeans", "total"),
)

# counts per job
COUNT_METRICS = (
    "graphs.logabsdet_tensor.calls",
    "adjparam.realize.calls",
    "flows.forward.calls",
    "autodiff.nodes",
    "autodiff.gc.collected",
    "evalkit.kmeans.iters",
)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(rec: Recorder, jobs: int):
    """Per-layer numbers of a traced run, each averaged over its jobs."""
    seconds = collections.defaultdict(float)
    for name, start, end, parent, trace_id, child in rec.spans:
        seconds[(name, "total")] += end - start
        seconds[(name, "self")] += end - start - child
        # the validation predict is the one train() makes inside an epoch
        if name == "mixture.predict" and "/epoch" in trace_id:
            seconds[("training.val", "total")] += end - start
    out = {metric: seconds[(span, kind)] / jobs for metric, span, kind in SPAN_METRICS}
    out["training.val.s"] = seconds[("training.val", "total")] / jobs
    for metric in COUNT_METRICS:
        out[metric] = rec.counts[metric] / jobs
    c = rec.counts
    out["graphs.logdet_useful_ratio"] = _ratio(
        c["graphs.logabsdet_tensor.useful"], c["graphs.logabsdet_tensor.calls"])
    out["autodiff.nodes_useful_ratio"] = _ratio(c["autodiff.nodes_useful"], c["autodiff.nodes"])
    return out
