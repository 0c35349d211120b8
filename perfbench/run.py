"""gcflow benchmark: one run of one workload.

    python3 perfbench/run.py --workload train-fixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run samples its inputs from ``--seed`` with the benchmark's own
generator, then measures the workload in a fresh worker process (see
``worker.py``) for ``--seconds`` seconds. It prints every metric by name with
its unit and sample count, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload twice for half the time each, untraced and then traced, checks
that both produce bit-identical quality metrics and losses, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced).

Inputs, per-run results and span dumps go to ``.perfbench/`` in the
checkout. The full record of a run, with the environment and the hash of
its inputs, is ``.perfbench/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import sbm  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# one BLAS thread: one client in one process, and on a 2-core box a second
# thread made the attention workload slower and noisier, not faster
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
MIN_JOBS = 3
SETUP_PROBES = 4  # extra set-ups per untraced run, for a steadier setup_s median

# BENCHMARK.json names every metric a run reports, with its unit. A step is
# an epoch on the train workloads and a forward-only request on infer; a job
# is one train() call, or one infer session from load_dataset to its last
# request.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment():
    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    import scipy

    sha = None  # an exported checkout has no .git; src_sha256 identifies it then
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "src_sha256": sbm.tree_sha256(ROOT / "src"),
    }


def cpu_ticks():
    """(busy, stolen) clock ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields) - fields[3] - fields[4], fields[7] if len(fields) > 7 else 0


def run_worker(task, work):
    """Run one task in a fresh interpreter and return its result, with the
    share of the machine's busy time stolen by the hypervisor meanwhile."""
    name = task.get("mode") or ("traced" if task.get("trace") else "untraced")
    task_path = work / f"{name}.task.json"
    task["out"] = str(work / f"{name}.out.json")
    task_path.write_text(json.dumps(task))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    before = cpu_ticks()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(task_path)],
                          env=env, timeout=WORKER_TIMEOUT_S)
    after = cpu_ticks()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} worker exited with code {proc.returncode}")
    result = json.loads(Path(task["out"]).read_text())
    if before and after:
        busy, stolen = after[0] - before[0], after[1] - before[1]
        result["steal_share"] = stolen / busy if busy else 0.0
    return result


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(w, res):
    """End-to-end metrics of an untraced worker result, with sample counts."""
    jobs = res["jobs"]
    setups = res["probes_setup_s"] + [j["setup_s"] for j in jobs if j["setup_s"] is not None]
    walls = [j["job_s"] for j in jobs if j["job_s"] is not None]
    if w.kind == "train":
        steps = [t for j in jobs for t in j.get("epoch_s", [])]
        evals = [j["eval_s"] for j in jobs if "eval_s" in j]
    else:
        steps = [t for j in jobs for t in j["request_s"]]
        evals = [t for j in jobs for t in j["eval_s"]]
    quality = res["quality"] or {}
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "job_s": (statistics.median(walls), len(walls)),
        "step_s.p50": (percentile(steps, 50), len(steps)),
        # printed, not gated: collector pauses make the step tail bimodal, and
        # its share of slow steps changes from run to run
        "step_s.p90": (percentile(steps, 90), len(steps)),
        "step_s.p99": (percentile(steps, 99), len(steps)),
        "eval_s": (statistics.median(evals), len(evals)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "test_micro_f1": (quality.get("test_micro_f1", 0.0), len(evals)),
        "silhouette_kmeans": (quality.get("silhouette_kmeans", 0.0), len(evals)),
    }
    return values


def job_outputs(res):
    return [(j.get("quality"), j.get("losses")) for j in [res["warmup"]] + res["jobs"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gcflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gcflow sources under {ROOT / 'src'}; run from a source checkout")
    w = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    manifest = sbm.write(w.graph, args.seed, work / "data")
    inputs_sha = sbm.tree_sha256(work / "data")
    task = {"workload": w.name, "manifest": str(manifest)}
    if w.kind == "infer":
        made = run_worker({**task, "mode": "checkpoint", "checkpoint_dir": str(work)}, work)
        task["checkpoint"] = made["checkpoint"]

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  inputs sha256={inputs_sha}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": inputs_sha, "env": env}
    if not args.trace:
        res = run_worker({**task, "trace": False, "seconds": args.seconds,
                          "probes": SETUP_PROBES, "min_jobs": MIN_JOBS}, work)
        values = end_to_end(w, res)
        metrics = {name: {"value": float(values[name][0]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        counts = {name: n for name, (_, n) in values.items()}
        extra = {name: v for name, (v, _) in values.items() if name not in metrics}
        results = [res]
        problems = list(res["problems"])
    else:
        half = args.seconds / 2
        base = run_worker({**task, "trace": False, "seconds": half, "probes": 0, "min_jobs": 1}, work)
        traced = run_worker({**task, "trace": True, "seconds": half, "probes": 0, "min_jobs": 1,
                             "spans": str(work / "spans.jsonl")}, work)
        results = [base, traced]
        problems = base["problems"] + traced["problems"]
        shared = 1 + min(len(base["jobs"]), len(traced["jobs"]))
        if job_outputs(base)[:shared] != job_outputs(traced)[:shared]:
            problems.append("traced run's quality metrics or losses differ from the untraced run's")
        step_base = end_to_end(w, base)["step_s.p50"][0]
        step_traced = end_to_end(w, traced)["step_s.p50"][0]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = step_traced - step_base
        layers["trace.overhead_ratio"] = (step_traced - step_base) / step_base
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        counts = {name: len(traced["jobs"]) for name in layers}
        extra = {}
        if traced["missing_hooks"]:
            print(f"  hooks with no target in this program: {', '.join(traced['missing_hooks'])}")

    for r in results:
        print(f"  worker trace={int(r['trace'])}: warm-up + {len(r['jobs'])} jobs in {r['measured_s']:.1f} s, "
              f"cpu user {r['cpu_user_s']:.1f} s sys {r['cpu_sys_s']:.1f} s, "
              f"{r['minor_faults']} minor faults, machine steal {r.get('steal_share', 0.0):.1%}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not problems and attempted > 0
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:9s} n={counts[name]}")
    for name, value in extra.items():
        print(f"  {name:34s} {value:>14.6g} {'s':9s} n={counts[name]} (not gated)")
    print(f"  {'failed_ratio':34s} {failed / max(attempted, 1):>14.6g} {'ratio':9s} "
          f"n={attempted} (failed {failed})")
    for problem in problems:
        print(f"  problem: {problem}")
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  extra=extra, samples=counts, problems=problems, workers=results)
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
