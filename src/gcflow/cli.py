"""Command-line front end.

Subcommands: ``train`` (fit a model, write metrics + per-epoch CSV +
checkpoint), ``eval`` (re-score a checkpoint), ``embed`` (export node
representations in the feature binary format), ``cluster`` (k-means over
an exported embedding), ``gen-synth`` (write a synthetic dataset), and
``verify`` (fast numeric self-checks).

Config files are flat ``key=value`` lines matching the training config
fields; ``--set key=value`` overrides individual entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import load_checkpoint, write_atomic, write_json
from .data import (
    SbmConfig, data_lines, generate_sbm, load_dataset, read_features, read_labels, save_dataset,
    write_features,
)
from .errors import ConfigError, DivergedError, FormatError, GcFlowError
from .evalkit import cluster_agreement, kmeans, silhouette
from .training import RunRecord, TrainConfig, evaluate, representation, train

# gen-synth takes a flag per SbmConfig field, named after it but for these two
SBM_FLAGS = {"p_intra": "p", "q_inter": "q"}


def _parse_value(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def read_config_file(path):
    """Flat key=value lines, as ``data.data_lines`` reads them; values parse as JSON."""
    values = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = _parse_value(value.strip())
    return values


def build_train_config(config_path=None, overrides=None) -> TrainConfig:
    values = {}
    if config_path:
        values.update(read_config_file(config_path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        values[key.strip()] = _parse_value(value.strip())
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known keys: {sorted(known)}")
    return TrainConfig(**values)


def write_metrics(path, metrics):
    write_json(path, metrics)


def write_epoch_csv(path, record):
    def rows(fh):
        fh.write("epoch,loss,val_f1\n")
        for epoch, (loss, f1) in enumerate(zip(record.losses, record.val_f1s)):
            fh.write(f"{epoch},{loss!r},{f1!r}\n")

    write_atomic(path, rows)


# -- subcommands --------------------------------------------------------


def cmd_train(args):
    out = Path(args.out)
    # a config or dataset that cannot be read starts no run and leaves an older one as it is
    cfg = build_train_config(args.config, args.set)
    dataset = load_dataset(args.data)
    # an older run's files go before training starts, so a failed run leaves none of them
    if out.is_dir():
        for name in ("metrics.json", "epochs.csv", "checkpoint.json"):
            (out / name).unlink(missing_ok=True)
    try:
        record = train(cfg, dataset, checkpoint_dir=out)
    except DivergedError as exc:
        # keep the epochs that ran; main reports the error and exits 1
        write_metrics(out / "metrics.json", {**exc.record.metrics_dict(), "status": "diverged"})
        write_epoch_csv(out / "epochs.csv", exc.record)
        raise
    except GcFlowError as exc:
        # any other failure, before the first epoch or after the last, says what it was in a
        # directory that exists by then; a run refused before ``train`` made one leaves none
        if out.is_dir():
            write_metrics(out / "metrics.json", {"status": "failed", "error": type(exc).__name__,
                                                 "message": str(exc)})
        raise
    write_metrics(out / "metrics.json", record.metrics_dict())
    write_epoch_csv(out / "epochs.csv", record)
    print(f"trained {cfg.model} for {record.epochs_run} epochs: "
          f"test micro-F1 {record.test_micro_f1:.4f}")
    print(f"wrote {out / 'metrics.json'}")
    return 0


def _load_trained(checkpoint_path, data_path):
    dataset = load_dataset(data_path)
    return load_checkpoint(checkpoint_path, dataset.graph), dataset


def cmd_eval(args):
    import time

    start = time.perf_counter()
    tm, dataset = _load_trained(args.checkpoint, args.data)
    metrics = evaluate(tm, dataset)
    payload = RunRecord(  # not retrained here: no epochs
        config={**tm.config, "damping_used": tm.damping_used}, seed=tm.config["seed"], epochs_run=None,
        losses=[], val_f1s=[], wall_seconds=time.perf_counter() - start, **metrics,
    ).metrics_dict()
    if args.out:
        write_metrics(args.out, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_embed(args):
    tm, dataset = _load_trained(args.checkpoint, args.data)
    z = representation(tm, dataset)
    write_features(args.out, z)
    print(f"wrote {z.shape[0]}x{z.shape[1]} embedding to {args.out}")
    return 0


def cmd_cluster(args):
    points = read_features(args.embedding)
    if args.k < 2:
        raise ConfigError("clustering needs at least two clusters")
    assign = kmeans(points, args.k, seed=args.seed)
    payload = {"k": args.k, "seed": args.seed, "inertia": assign.inertia}
    if not args.labels:
        payload["silhouette_kmeans"] = silhouette(points, assign)
    else:
        labels = read_labels(args.labels)
        if labels.size != points.shape[0]:
            raise FormatError(
                f"{args.labels} has {labels.size} labels for {points.shape[0]} points"
            )
        payload.update(cluster_agreement(points, assign, labels))
    if args.out:
        write_metrics(args.out, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_gen_synth(args):
    cfg = SbmConfig(**{f.name: getattr(args, SBM_FLAGS.get(f.name, f.name)) for f in fields(SbmConfig)})
    manifest = save_dataset(generate_sbm(cfg), args.out)
    print(manifest)
    return 0


def cmd_verify(args):
    from .verify import run_self_checks

    return run_self_checks()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcflow",
        description="Graph-convolutional normalizing flows for semi-supervised learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write metrics, CSV, and a checkpoint")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config entry")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="compute metrics for a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("embed", help="export node representations as a feature binary")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("cluster", help="k-means over an exported embedding")
    p.add_argument("--embedding", required=True, help="feature binary file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", help="optional labels CSV for agreement metrics")
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("gen-synth", help="write a synthetic block-model dataset")
    p.add_argument("--out", required=True, help="output directory")
    for f in fields(SbmConfig):
        flag = SBM_FLAGS.get(f.name, f.name).replace("_", "-")
        p.add_argument(f"--{flag}", type=type(f.default), default=f.default)
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("verify", help="run fast numeric self-checks")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except (GcFlowError, OSError) as exc:
        print(f"gcflow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
