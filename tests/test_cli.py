import json
from dataclasses import replace

import numpy as np
import pytest

from gcflow import evalkit
from gcflow.cli import build_train_config, main, read_config_file
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
               "--set", f"model={kind}", "--set", "hidden=8", "--set", "embed_dim=4",
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


def test_em_train_without_a_class_in_the_training_split_fails(tmp_path, capsys):
    ds = generate_sbm(SbmConfig(seed=0))
    manifest = save_dataset(replace(ds, train_mask=ds.train_mask & (ds.labels != 2)), tmp_path / "ds")
    rc = main(["train", "--data", manifest, "--out", str(tmp_path / "run"), "--set", "model=gmm-x"])
    assert rc == 1
    assert "class 2 has no training node" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.json").exists()


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
