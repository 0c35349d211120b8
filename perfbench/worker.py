"""Runs one workload in a fresh process and writes its raw measurements.

Usage: ``python3 perfbench/worker.py TASK.json``. ``run.py`` writes the task
file: the workload name, the input manifest, the checkpoint (infer), the
time budget, whether to trace, and where to write the result. A task with
``"mode": "checkpoint"`` instead runs the untimed training that writes the
infer workload's checkpoint.

A fresh process per run keeps ``peak_rss_mb`` and the collector's state to
this run alone. Output checks happen here, outside every timed interval and
with the hooks paused; each failed check fails one operation (an epoch, a
request or an evaluate).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from gcflow import checkpoint, data, training  # noqa: E402
from gcflow.errors import GcFlowError  # noqa: E402
from gcflow.mixture import posterior_matrix  # noqa: E402

import hooks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = hooks.clock


QUALITY_KEYS = ("test_micro_f1", "silhouette_kmeans", "silhouette_truth", "nmi", "ari")


class Run:
    def __init__(self, task):
        self.task = task
        self.w = WORKLOADS[task["workload"]]
        self.rec = hooks.Recorder(bool(task["trace"]))
        hooks.install(self.rec)
        self.cfg = training.TrainConfig(**self.w.config)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.quality_ref = None
        self.z_ref = None
        self.pred_ref = None

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def check_evaluate(self, q):
        """One evaluate's output: finite, above the F1 floor, identical to the first."""
        if not all(math.isfinite(v) for v in q.values()):
            self.fail(1, f"non-finite evaluate metrics {q}")
        elif q["test_micro_f1"] < self.w.f1_floor:
            self.fail(1, f"test_micro_f1 {q['test_micro_f1']} below floor {self.w.f1_floor}")
        elif self.quality_ref is None:
            self.quality_ref = q
        elif q != self.quality_ref:
            self.fail(1, f"evaluate returned {q}, earlier {self.quality_ref}")
        return q

    # -- train workloads ---------------------------------------------------

    def setup_probe(self):
        """load_dataset plus train()'s pre-loop set-up, stopped at the first epoch."""
        gc.collect()
        rec = self.rec
        rec.begin_job(-1)
        rec.abort_setup = True
        start = clock()
        try:
            training.train(self.cfg, data.load_dataset(self.task["manifest"]))
        except hooks.SetupDone:
            pass
        finally:
            rec.abort_setup = False
            rec.end_job()
        if len(rec.marks) != 1:
            raise RuntimeError("train() reached no epoch during a set-up probe")
        return rec.marks[0] - start

    def train_job(self, job):
        rec, epochs = self.rec, self.cfg.epochs
        gc.collect()
        rec.begin_job(job)
        span = rec.open("job") if rec.trace else None
        start = clock()
        record = error = None
        try:
            ds = data.load_dataset(self.task["manifest"])
            loaded = clock()
            record = training.train(self.cfg, ds)
        except GcFlowError as exc:
            error = exc
        finally:
            end = clock()
            rec.close_epoch()
            if span is not None:
                rec.close(span)
            rec.end_job()
        marks, evals = rec.marks, rec.evals
        self.attempted += epochs + 1  # the epochs and the final evaluate
        out = {"setup_s": marks[0] - start if marks else None, "job_s": end - loaded if error is None else None}
        if error is not None:
            done = len(getattr(getattr(error, "record", None), "losses", None) or [])
            self.fail(epochs - done + 1, f"job {job}: {type(error).__name__}: {error}")
            return out
        if len(marks) != record.epochs_run:
            self.fail(epochs + 1, f"job {job}: saw {len(marks)} epochs, train() reports {record.epochs_run}")
            return out
        bad = sum(not math.isfinite(v) for v in record.losses)
        missing = epochs - record.epochs_run
        if bad or missing:
            self.fail(bad + missing, f"job {job}: {bad} non-finite losses, {missing} epochs short")
        out["quality"] = self.check_evaluate({k: float(getattr(record, k)) for k in QUALITY_KEYS})
        out["epoch_s"] = [b - a for a, b in zip(marks, marks[1:] + [evals[-1][0]])]
        out["eval_s"] = evals[-1][1] - evals[-1][0]
        out["losses"] = record.losses
        return out

    # -- infer workload ----------------------------------------------------

    def infer_setup(self):
        ds = data.load_dataset(self.task["manifest"])
        return ds, checkpoint.load_checkpoint(self.task["checkpoint"], ds.graph)

    def setup_probe_infer(self):
        gc.collect()
        start = clock()
        self.infer_setup()
        return clock() - start

    def infer_job(self, job):
        rec, w = self.rec, self.w
        gc.collect()
        rec.begin_job(job)
        span = rec.open("job") if rec.trace else None
        start = clock()
        ds, tm = self.infer_setup()
        setup = clock() - start
        forward, evals, quality = [], [], None
        for i in range(w.requests):
            self.attempted += 1
            is_eval = (i + 1) % w.evaluate_every == 0
            call = training.evaluate if is_eval else (
                training.representation if i % 2 == 0 else training.predictions)
            rec.trace_id = f"j{job}/req{i}"
            req = rec.open("request") if rec.trace else None
            t0 = clock()
            try:
                out = call(tm, ds)
            except GcFlowError as exc:
                out = exc
            dt = clock() - t0
            if req is not None:
                rec.close(req)
            rec.active = False
            q = self.check_request(call, tm, out, job, i)
            rec.active = True
            if is_eval and quality is None:
                quality = q
            (evals if is_eval else forward).append(dt)
        end = clock()
        if span is not None:
            rec.close(span)
        rec.end_job()
        return {"setup_s": setup, "job_s": end - start, "request_s": forward, "eval_s": evals,
                "quality": quality}

    def check_request(self, call, tm, out, job, i):
        if isinstance(out, GcFlowError):
            return self.fail(1, f"job {job} request {i}: {type(out).__name__}: {out}")
        if call is training.evaluate:
            return self.check_evaluate({k: float(out[k]) for k in QUALITY_KEYS})
        if call is training.representation:
            if self.z_ref is None:
                if not np.all(np.isfinite(out)):
                    return self.fail(1, "non-finite representation")
                self.z_ref = out
                self.pred_ref = posterior_matrix(tm.head, out).argmax(axis=1)
            elif not np.array_equal(out, self.z_ref):
                self.fail(1, f"job {job} request {i}: representation differs from the first")
        elif self.pred_ref is None or not np.array_equal(out, self.pred_ref):
            self.fail(1, f"job {job} request {i}: predictions differ from the posterior argmax "
                         "of the representation")

    # -- the loop ----------------------------------------------------------

    def run(self):
        task, w = self.task, self.w
        start = clock()
        if w.kind == "train":
            probe, job_fn = self.setup_probe, self.train_job
        else:
            probe, job_fn = self.setup_probe_infer, self.infer_job
        # the first job grows the heap to its working size; it is checked and
        # compared like the others, but its timings are left out
        t0 = clock()
        warmup = job_fn(0)
        walls = [clock() - t0]
        self.rec.spans.clear()
        self.rec.counts.clear()
        probes = [probe() for _ in range(task["probes"])]
        jobs = []
        while len(jobs) < task["min_jobs"] or clock() - start + statistics.median(walls) <= task["seconds"]:
            t0 = clock()
            jobs.append(job_fn(len(jobs) + 1))
            walls.append(clock() - t0)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result = {
            "workload": w.name,
            "trace": self.rec.trace,
            "probes_setup_s": probes,
            "warmup": warmup,
            "jobs": jobs,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "quality": self.quality_ref,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_user_s": usage.ru_utime,
            "cpu_sys_s": usage.ru_stime,
            "minor_faults": usage.ru_minflt,
            "involuntary_switches": usage.ru_nivcsw,
            "missing_hooks": self.rec.missing,
            "measured_s": clock() - start,
        }
        if self.rec.trace:
            result["layers"] = hooks.layer_metrics(self.rec, len(jobs))
            self.rec.dump(task["spans"])
        return result


def write_checkpoint(task):
    w = WORKLOADS[task["workload"]]
    ds = data.load_dataset(task["manifest"])
    record = training.train(training.TrainConfig(**w.config), ds, checkpoint_dir=task["checkpoint_dir"])
    return {"checkpoint": record.checkpoint_path}


def main(path):
    with open(path) as fh:
        task = json.load(fh)
    result = write_checkpoint(task) if task.get("mode") == "checkpoint" else Run(task).run()
    with open(task["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
