import json
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gcflow import evalkit
from gcflow.cli import build_train_config, main, read_config_file, write_epoch_csv, write_metrics
from gcflow.data import SbmConfig, generate_sbm, read_features, save_dataset
from gcflow.errors import ConfigError, FormatError


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "ds"
    rc = main(["gen-synth", "--out", str(out), "--blocks", "2", "--block-size", "60", "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main([
        "train",
        "--data", str(synth_dir / "manifest.json"),
        "--out", str(out),
        "--set", "model=gcflow",
        "--set", "hidden=8",
        "--set", "epochs=3",
        "--set", "patience=5",
        "--set", "lr=0.001",
        "--set", "seed=1",
    ])
    assert rc == 0
    return out


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


def test_gen_synth_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["gen-synth", "--out", str(out), "--blocks", "2", "--block-size", "60", "--seed", "7"])
        assert rc == 0
    for name in ("features.bin", "edges.tsv", "labels.csv", "train.txt", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_writes_metrics_csv_checkpoint(trained_dir):
    metrics = json.loads((trained_dir / "metrics.json").read_text())
    assert sorted(metrics) == sorted(
        ["config", "seed", "epochs_run", "test_micro_f1", "silhouette_kmeans",
         "silhouette_truth", "nmi", "ari", "wall_seconds"]
    )
    assert metrics["config"]["model"] == "gcflow"
    assert metrics["epochs_run"] == 3

    lines = (trained_dir / "epochs.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,val_f1"
    assert len(lines) == 1 + metrics["epochs_run"]
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2])  # parse back

    assert (trained_dir / "checkpoint.json").exists()


def test_eval_reproduces_recorded_test_f1(synth_dir, trained_dir, capsys):
    rc = main([
        "eval",
        "--checkpoint", str(trained_dir / "checkpoint.json"),
        "--data", str(synth_dir / "manifest.json"),
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    recorded = json.loads((trained_dir / "metrics.json").read_text())
    assert payload["test_micro_f1"] == recorded["test_micro_f1"]
    assert payload["silhouette_kmeans"] == recorded["silhouette_kmeans"]


def test_embed_then_cluster(synth_dir, trained_dir, tmp_path, capsys):
    emb = tmp_path / "z.bin"
    rc = main([
        "embed",
        "--checkpoint", str(trained_dir / "checkpoint.json"),
        "--data", str(synth_dir / "manifest.json"),
        "--out", str(emb),
    ])
    assert rc == 0
    z = read_features(emb)
    assert z.shape == (120, 8)
    capsys.readouterr()

    rc = main([
        "cluster",
        "--embedding", str(emb),
        "--k", "2",
        "--labels", str(synth_dir / "labels.csv"),
        "--seed", "0",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for key in ("inertia", "silhouette_kmeans", "silhouette_truth", "nmi", "ari"):
        assert key in payload
    assert payload["k"] == 2


def test_cluster_with_labels_prints_the_two_pass_scores(synth_dir, trained_dir, tmp_path, capsys):
    emb = tmp_path / "z.bin"
    assert main(["embed", "--checkpoint", str(trained_dir / "checkpoint.json"),
                 "--data", str(synth_dir / "manifest.json"), "--out", str(emb)]) == 0
    points = read_features(emb)
    labels = np.loadtxt(synth_dir / "labels.csv", dtype=np.intp)
    partial = tmp_path / "partial.csv"
    hidden = labels.copy()
    hidden[::5] = -1
    np.savetxt(partial, hidden, fmt="%d")
    for path, truth in ((synth_dir / "labels.csv", labels), (partial, hidden)):
        capsys.readouterr()
        assert main(["cluster", "--embedding", str(emb), "--k", "2", "--labels", str(path)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assign = evalkit.kmeans(points, 2, seed=0)
        known = truth >= 0
        want = {
            "k": 2, "seed": 0, "inertia": assign.inertia,
            "silhouette_kmeans": evalkit.silhouette(points, assign),
            "silhouette_truth": evalkit.silhouette(points[known], truth[known]),
            "nmi": evalkit.nmi(assign.labels[known], truth[known]),
            "ari": evalkit.ari(assign.labels[known], truth[known]),
        }
        assert printed == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("kind", ["gcflow", "gcflow-p"])
def test_diverged_train_leaves_its_record(synth_dir, tmp_path, capsys, kind):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(synth_dir / "manifest.json"), "--out", str(out),
               "--set", f"model={kind}", "--set", "hidden=8",
               "--set", "epochs=5", "--set", "lr=1e8"])
    assert rc == 1
    assert "training diverged at epoch" in capsys.readouterr().err
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] == "diverged"
    assert sorted(metrics) == sorted(
        ["config", "seed", "epochs_run", "test_micro_f1", "silhouette_kmeans",
         "silhouette_truth", "nmi", "ari", "wall_seconds", "status"]
    )
    assert metrics["config"]["model"] == kind
    rows = (out / "epochs.csv").read_text().splitlines()
    assert rows[0] == "epoch,loss,val_f1"
    assert metrics["epochs_run"] >= 1
    assert len(rows) == 1 + metrics["epochs_run"]
    assert not (out / "checkpoint.json").exists()


def test_a_diverged_run_leaves_no_older_checkpoint_behind(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    train = ["train", "--data", str(synth_dir / "manifest.json"), "--out", str(out),
             "--set", "model=gcflow", "--set", "hidden=8", "--set", "epochs=5"]
    assert main(train) == 0
    assert (out / "checkpoint.json").exists()
    assert main(train + ["--set", "lr=1e8"]) == 1
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] == "diverged"
    assert not (out / "checkpoint.json").exists()
    # the epochs file is the diverged run's, not the five epochs before it
    assert len((out / "epochs.csv").read_text().splitlines()) == 1 + metrics["epochs_run"] < 1 + 5
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--data", str(synth_dir / "manifest.json")]) == 1
    assert "checkpoint.json" in capsys.readouterr().err


def test_a_run_that_fails_before_training_leaves_no_older_record_behind(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    train = ["train", "--data", str(synth_dir / "manifest.json"), "--out", str(out), "--set", "model=gcn"]
    assert main(train + ["--set", "epochs=5"]) == 0
    assert {path.name for path in out.iterdir()} == {"metrics.json", "epochs.csv", "checkpoint.json"}
    capsys.readouterr()
    # wider than the features: refused before the first epoch, with the reason on record
    assert main(train + ["--set", "pca_dim=50"]) == 1
    err = capsys.readouterr().err
    assert "cannot keep 50 directions" in err
    assert [path.name for path in out.iterdir()] == ["metrics.json"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics == {"status": "failed", "error": "ShapeError", "message": metrics["message"]}
    assert f"gcflow: error: {metrics['message']}\n" == err


def test_a_run_that_cannot_read_its_data_or_config_keeps_the_older_run(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    train = ["train", "--out", str(out), "--set", "model=gcn", "--set", "epochs=5"]
    assert main(train + ["--data", str(synth_dir / "manifest.json")]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(before) == {"metrics.json", "epochs.csv", "checkpoint.json"}
    # a mistyped data path (an OSError) and an unknown key start no run
    assert main(train + ["--data", str(tmp_path / "missing" / "manifest.json")]) == 1
    assert main(train + ["--data", str(synth_dir / "manifest.json"), "--set", "lr_typo=0.1"]) == 1
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "unknown config keys ['lr_typo']" in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_run_that_fails_in_evaluate_leaves_only_its_failure_record(synth_dir, tmp_path, capsys, monkeypatch):
    from gcflow import training

    out = tmp_path / "run"
    train = ["train", "--data", str(synth_dir / "manifest.json"), "--out", str(out),
             "--set", "model=gcflow", "--set", "hidden=8", "--set", "epochs=3"]
    assert main(train) == 0
    # latents that went non-finite after the last epoch fail k-means's own check
    monkeypatch.setattr(training, "kmeans", lambda z, k, seed: evalkit.kmeans(z * np.nan, k, seed=seed))
    capsys.readouterr()
    assert main(train) == 1
    assert "non-finite" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["metrics.json"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] == "failed" and metrics["error"] == "DomainError"
    assert "non-finite" in metrics["message"]


class Interrupted(Exception):
    pass


def interrupted_rows():
    yield 0.5
    raise Interrupted


@pytest.mark.parametrize("where", ["mid-write", "before-rename"])
def test_an_interrupted_run_file_write_leaves_the_previous_file_whole(trained_dir, tmp_path, monkeypatch, where):
    metrics, epochs = tmp_path / "metrics.json", tmp_path / "epochs.csv"
    for path in (metrics, epochs):
        path.write_bytes((trained_dir / path.name).read_bytes())
    before = {path: path.read_bytes() for path in (metrics, epochs)}
    if where == "mid-write":
        # the encoder and the rows fail after part of the new file is written
        payload, rows, errors = {"a": 1.0, "b": object()}, interrupted_rows(), (TypeError, Interrupted)
    else:
        def cut(src, dst):
            raise Interrupted

        monkeypatch.setattr(os, "replace", cut)
        payload, rows, errors = {"status": "new"}, [0.5, 0.75, 1.0], (Interrupted, Interrupted)
    with pytest.raises(errors[0]):
        write_metrics(metrics, payload)
    with pytest.raises(errors[1]):
        write_epoch_csv(epochs, SimpleNamespace(losses=[1.0, 0.5, 0.25], val_f1s=rows))
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(tmp_path.iterdir()) == [epochs, metrics]


@pytest.fixture(scope="module")
def pca_checkpoint(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("pca-run")
    rc = main(["train", "--data", str(synth_dir / "manifest.json"), "--out", str(out),
               "--set", "model=gcflow", "--set", "hidden=8", "--set", "epochs=1", "--set", "pca_dim=4"])
    assert rc == 0
    return json.loads((out / "checkpoint.json").read_text())


def corrupt_pca(payload, how):
    pca = {key: np.array(value) for key, value in payload["pca"].items()}
    if how == "extra-row":
        pca["directions"] = np.vstack([pca["directions"], pca["directions"][:1]])
    elif how == "nan-mean":
        pca["mean"][0] = np.nan
    else:  # one column more than the model's dim
        pca["directions"] = np.hstack([pca["directions"], pca["directions"][:, :1]])
    return {**payload, "pca": {key: value.tolist() for key, value in pca.items()}}


PCA_FAULTS = ["extra-row", "nan-mean", "extra-column"]


@pytest.mark.parametrize("how", PCA_FAULTS)
def test_checkpoint_rejects_a_pca_projection_that_does_not_fit(synth_dir, pca_checkpoint, tmp_path, how):
    from gcflow.checkpoint import load_checkpoint
    from gcflow.data import load_dataset

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt_pca(pca_checkpoint, how)))
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: pca mean, directions, explained are"):
        load_checkpoint(bad, load_dataset(synth_dir / "manifest.json").graph)


@pytest.mark.parametrize("how", PCA_FAULTS)
def test_eval_rejects_a_pca_projection_that_does_not_fit(synth_dir, pca_checkpoint, tmp_path, capsys, how):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt_pca(pca_checkpoint, how)))
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(synth_dir / "manifest.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"gcflow: error: {bad}: pca ")


@pytest.mark.parametrize("change", [{"pca": None}, {"config": {"pca_dim": None}}, {"config": {"pca_dim": 3}}],
                         ids=["projection-missing", "pca_dim-unset", "pca_dim-not-dim"])
def test_checkpoint_rejects_a_pca_projection_that_disagrees_with_pca_dim(
        synth_dir, pca_checkpoint, tmp_path, capsys, change):
    from gcflow.checkpoint import load_checkpoint
    from gcflow.data import load_dataset

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**pca_checkpoint, **change,
                               "config": {**pca_checkpoint["config"], **change.get("config", {})}}))
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: config pca_dim is"):
        load_checkpoint(bad, load_dataset(synth_dir / "manifest.json").graph)
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(synth_dir / "manifest.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"gcflow: error: {bad}: config pca_dim is")


def test_em_train_without_a_class_in_the_training_split_fails(tmp_path, capsys):
    ds = generate_sbm(SbmConfig(seed=0))
    manifest = save_dataset(replace(ds, train_mask=ds.train_mask & (ds.labels != 2)), tmp_path / "ds")
    out = tmp_path / "run"
    out.mkdir()
    for name in ("metrics.json", "epochs.csv", "checkpoint.json"):
        (out / name).write_text("an older run's\n")
    rc = main(["train", "--data", manifest, "--out", str(out), "--set", "model=gmm-x"])
    assert rc == 1
    assert "class 2 has no training node" in capsys.readouterr().err
    # a ConfigError inside train: its record alone, no older run's file
    assert [path.name for path in out.iterdir()] == ["metrics.json"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] == "failed" and metrics["error"] == "ConfigError"
    assert metrics["message"].startswith("class 2 has no training node")


def test_unknown_flag_fails_with_usage(capsys):
    rc = main(["train", "--data", "x", "--out", "y", "--frobnicate"])
    assert rc != 0
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_fails(capsys):
    assert main(["transmogrify"]) != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_data_file_is_reported(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# flow settings\n"
        "model=gcflow\n"
        "hidden=32\n"
        "lr=0.005\n"
        "learn_weights=true\n"
    )
    values = read_config_file(path)
    assert values == {"model": "gcflow", "hidden": 32, "lr": 0.005, "learn_weights": True}
    cfg = build_train_config(path, ["hidden=16", "seed=9"])
    assert cfg.hidden == 16  # override wins
    assert cfg.lr == 0.005
    assert cfg.seed == 9
    assert cfg.learn_weights is True


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("modle=gcflow\n")
    with pytest.raises(ConfigError, match="modle"):
        build_train_config(path, None)


def test_train_refuses_damping_as_an_unknown_key(synth_dir, tmp_path, capsys):
    # the mixing builders decide the damping; no config sets it
    rc = main(["train", "--data", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "run"),
               "--set", "damping=0.01"])
    assert rc == 1
    assert "unknown config keys ['damping']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just a sentence\n")
    with pytest.raises(FormatError):
        read_config_file(path)


def test_cluster_needs_valid_k(tmp_path, capsys):
    from gcflow.data import write_features

    emb = tmp_path / "z.bin"
    write_features(emb, np.random.default_rng(0).normal(size=(10, 2)))
    rc = main(["cluster", "--embedding", str(emb), "--k", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cluster_rejects_a_malformed_labels_file(tmp_path, capsys):
    from gcflow.data import write_features

    emb = tmp_path / "z.bin"
    write_features(emb, np.random.default_rng(2).normal(size=(3, 2)))
    labels = tmp_path / "labels.csv"
    labels.write_text("0\nx\n1\n")
    rc = main(["cluster", "--embedding", str(emb), "--k", "2", "--labels", str(labels)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"gcflow: error: {labels}:2: expected an integer\n"
    assert captured.out == ""


def test_cluster_rejects_a_label_below_minus_one(tmp_path, capsys):
    from gcflow.data import write_features

    emb = tmp_path / "z.bin"
    write_features(emb, np.random.default_rng(2).normal(size=(3, 2)))
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n-2\n1\n")
    rc = main(["cluster", "--embedding", str(emb), "--k", "2", "--labels", str(labels)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"gcflow: error: {labels}: label -2 at entry 2;")
    assert captured.out == ""


def test_cluster_rejects_non_finite_embedding(tmp_path, capsys):
    from gcflow.data import write_features

    z = np.random.default_rng(1).normal(size=(10, 2))
    z[4, 1] = np.nan
    emb = tmp_path / "z.bin"
    write_features(emb, z)
    rc = main(["cluster", "--embedding", str(emb), "--k", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("override", ["epochs=abc", "epochs=2.5", 'lr="x"', "seed=-1", "hidden=-3"])
def test_train_rejects_a_malformed_config_value(synth_dir, tmp_path, capsys, override):
    rc = main(["train", "--data", str(synth_dir / "manifest.json"), "--out", str(tmp_path / "run"),
               "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("gcflow: error: config ")
    assert override.split("=")[0] in err


@pytest.mark.parametrize("key, value", [("n", "x"), ("dim", 8.5), ("classes", True)])
def test_train_rejects_a_manifest_with_non_integer_sizes(synth_dir, tmp_path, capsys, key, value):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({**manifest, key: value}))
    for name in ("features", "edges", "labels", "train", "val", "test"):
        (tmp_path / manifest[name]).write_bytes((synth_dir / manifest[name]).read_bytes())
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "gcflow: error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [(None, 3), ("features", 5), ("edges", None), ("test", ["test.txt"])],
                         ids=["manifest-a-number", "features-a-number", "edges-null", "test-a-list"])
def test_train_rejects_a_manifest_that_is_not_an_object_of_file_names(synth_dir, tmp_path, capsys, key, value):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(value if key is None else {**manifest, key: value}))
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"gcflow: error: {bad}: ")


@pytest.mark.parametrize("argv", [
    ["gen-synth", "--out", "{tmp}/ds", "--seed", "-1"],
    ["gen-synth", "--out", "{tmp}/ds", "--noise", "nan"],
    ["cluster", "--embedding", "{tmp}/z.bin", "--k", "2", "--seed", "-1"],
], ids=["gen-synth-seed", "gen-synth-noise", "cluster-seed"])
def test_gen_synth_and_cluster_reject_a_negative_seed_or_nan_noise(tmp_path, capsys, argv):
    from gcflow.data import write_features

    write_features(tmp_path / "z.bin", np.random.default_rng(3).normal(size=(10, 2)))
    rc = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("gcflow: error: ")
    assert captured.out == ""
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{dir}", "--out", "{tmp}/run"],
    ["eval", "--checkpoint", "{dir}", "--data", "{manifest}"],
    ["cluster", "--embedding", "{dir}", "--k", "2"],
], ids=["train-data", "eval-checkpoint", "cluster-embedding"])
def test_a_directory_in_place_of_a_file_is_reported(synth_dir, tmp_path, capsys, argv):
    (tmp_path / "dir").mkdir()
    paths = {"dir": tmp_path / "dir", "tmp": tmp_path, "manifest": synth_dir / "manifest.json"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gcflow: error:") and str(paths["dir"]) in err


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{binary}", "--out", "{tmp}/run"],
    ["eval", "--checkpoint", "{binary}", "--data", "{manifest}"],
    ["train", "--data", "{manifest}", "--out", "{tmp}/run", "--config", "{binary}"],
], ids=["manifest", "checkpoint", "config-lines"])
def test_a_binary_file_in_place_of_a_text_file_is_a_format_error(synth_dir, tmp_path, capsys, argv):
    binary = tmp_path / "blob.json"
    binary.write_bytes(bytes(range(128, 256)))  # not UTF-8
    paths = {"binary": binary, "tmp": tmp_path, "manifest": synth_dir / "manifest.json"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gcflow: error:") and str(binary) in err
