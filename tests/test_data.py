import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcflow import data
from gcflow.data import (
    Dataset,
    SbmConfig,
    data_lines,
    generate_sbm,
    load_dataset,
    load_edge_list,
    make_split,
    read_features,
    read_int_lines,
    save_dataset,
    write_features,
)
from gcflow.cli import main
from gcflow.errors import ConfigError, DomainError, FormatError
from gcflow.evalkit import micro_f1
from gcflow.graphs import make_graph
from oracles import adjacency_dense, sbm_full_draw


def tiny_dataset():
    graph = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    features = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    labels = np.array([0, 0, 1, 1])
    return Dataset(
        name="tiny",
        graph=graph,
        features=features,
        labels=labels,
        train_mask=np.array([True, False, True, False]),
        val_mask=np.array([False, True, False, False]),
        test_mask=np.array([False, False, False, True]),
        num_classes=2,
    )


def write_tiny_tree(tmp_path):
    ds = tiny_dataset()
    return load_dataset(save_dataset(ds, tmp_path / "tiny")), tmp_path / "tiny"


# -- feature binary format ----------------------------------------------


def test_feature_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(17, 5))
    x[0, 0] = -0.0
    x[1, 1] = 1e-310  # subnormal survives the trip
    path = tmp_path / "x.bin"
    write_features(path, x)
    back = read_features(path)
    assert back.dtype == np.float64
    assert x.tobytes() == back.tobytes()


def test_feature_file_header_layout(tmp_path):
    path = tmp_path / "x.bin"
    write_features(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:8] == b"GCFLOW1\x00"
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 3
    assert len(raw) == 24 + 2 * 3 * 8


def test_feature_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTMINE\x00" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_features(path)


def test_feature_file_rejects_short_payload(tmp_path):
    path = tmp_path / "x.bin"
    write_features(path, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_features(path)


# -- text files ---------------------------------------------------------


def test_data_lines_skip_blanks_and_comments_and_keep_line_numbers(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_text("# header\n\n  7  \n   # only a comment\n8 # trailing comment\n")
    assert list(data_lines(p)) == [(3, "7"), (5, "8")]


def test_load_edge_list(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("# header\n0\t1\n\n1\t2  # trailing comment\n")
    assert load_edge_list(p).tolist() == [[0, 1], [1, 2]]


def test_load_edge_list_rejects_bad_lines(tmp_path):
    bad_field_count = tmp_path / "a.tsv"
    bad_field_count.write_text("0\t1\t2\n")
    message = f"^{re.escape(str(bad_field_count))}:1: expected two tab-separated node ids$"
    with pytest.raises(FormatError, match=message):
        load_edge_list(bad_field_count)
    not_an_int = tmp_path / "b.tsv"
    not_an_int.write_text("# ids\n0\tx\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(not_an_int))}:2: non-integer node id$"):
        load_edge_list(not_an_int)


# an id as the writers put it, and in forms only the line reader takes
WRITTEN_ID = st.one_of(
    st.integers(-5, 10**6).map(str),
    st.integers(10**17, 10**18 - 1).map(str),  # 18 digits, the most the one-pass check takes
)
ODD_ID = st.one_of(
    st.integers(10**18, 10**19 - 1).map(str),  # 19 digits, some past int64
    st.sampled_from(["+7", "1_0", "007", "-0", "", "x", "1-2", "-"]),
)


DEVIATIONS = ["comment line", "blank line", "trailing comment", "spaces around fields", "odd id",
              "extra field", "missing field", "leading tab", "CRLF", "no final newline",
              "non-UTF-8 byte", "empty file"]


@st.composite
def id_files(draw):
    """(ids per line, file bytes): lines as the writers write them, with up
    to two deviations from that form."""
    columns = draw(st.sampled_from([1, 2]))
    rows = draw(st.lists(st.lists(WRITTEN_ID, min_size=columns, max_size=columns), min_size=1, max_size=6))
    lines = ["\t".join(ids) for ids in rows]
    at = draw(st.integers(0, len(lines) - 1))
    end = "\n"
    deviations = draw(st.lists(st.sampled_from(DEVIATIONS), max_size=2))
    for kind in deviations:
        if kind == "comment line":
            lines.insert(at, "# note")
        elif kind == "blank line":
            lines.insert(at, draw(st.sampled_from(["", "  "])))
        elif kind == "trailing comment":
            lines[at] += "  # trailing"
        elif kind == "spaces around fields":
            lines[at] = " " + lines[at].replace("\t", " \t ") + " "
        elif kind == "odd id":
            lines[at] = "\t".join([draw(ODD_ID)] + lines[at].split("\t")[1:])
        elif kind == "extra field":
            lines[at] += "\t" + draw(WRITTEN_ID)
        elif kind == "missing field":
            lines[at] = lines[at].split("\t")[0]
        elif kind == "leading tab":
            lines[at] = "\t" + lines[at]
        elif kind == "CRLF":
            end = "\r\n"
    if "empty file" in deviations:
        lines = []
    raw = "".join(line + end for line in lines).encode()
    if "no final newline" in deviations:
        raw = raw.removesuffix(end.encode())
    if "non-UTF-8 byte" in deviations:
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return columns, raw


def read_outcome(reader, path):
    try:
        ids = reader(path)
    except FormatError as exc:
        return str(exc)
    return ids.dtype, ids.shape, ids.tobytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=id_files())
@example(case=(2, b"0\t1\n1\t2\t3\n"))  # three fields
@example(case=(2, b""))
@example(case=(1, b"-1\n007\n-0\n123456789012345678\n"))
@example(case=(2, b"0\t1\n2\t3"))  # no final newline
@example(case=(2, b"0\t1\r\n"))
@example(case=(1, b"9223372036854775807\n9223372036854775808\n"))
@example(case=(1, b"4\n\xff\n"))
def test_the_one_pass_and_line_readers_agree(case):
    columns, raw = case
    reader = load_edge_list if columns == 2 else read_int_lines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.txt"
        path.write_bytes(raw)
        got = read_outcome(reader, path)
        with pytest.MonkeyPatch.context() as mp:
            # with the one-pass check refusing every file, the line reader reads it
            mp.setattr(data, "_canonical_ids", lambda path, separators: None)
            want = read_outcome(reader, path)
    assert got == want
    if not isinstance(want, str):
        assert want[0] == np.intp and want[1][1:] == (() if columns == 1 else (2,))


def test_a_line_id_past_int64_names_its_line(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("0\t1\n2\t9223372036854775808\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}:2: 9223372036854775808 does not fit"):
        load_edge_list(p)


def test_written_trees_load_in_one_pass(tmp_path, monkeypatch):
    # save_dataset and gen-synth write the canonical form: with the line reader
    # gone, they must still load, and to the arrays that were written
    ds = tiny_dataset()
    tiny = save_dataset(ds, tmp_path / "tiny")
    assert main(["gen-synth", "--out", str(tmp_path / "synth"), "--blocks", "2", "--block-size", "60",
                 "--seed", "7"]) == 0
    synth = generate_sbm(SbmConfig(blocks=2, block_size=60, seed=7))

    def no_line_reader(path):
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(data, "data_lines", no_line_reader)
    for want, manifest in ((ds, tiny), (synth, tmp_path / "synth" / "manifest.json")):
        got = load_dataset(manifest)
        assert got.graph.edges.dtype == np.intp and not got.graph.edges.flags.writeable
        assert got.graph.edges.tobytes() == want.graph.edges.tobytes()
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.labels, want.labels)
        for which in ("train_mask", "val_mask", "test_mask"):
            assert np.array_equal(getattr(got, which), getattr(want, which))


# -- manifest loading ---------------------------------------------------


def test_save_load_round_trip(tmp_path):
    ds = tiny_dataset()
    loaded = load_dataset(save_dataset(ds, tmp_path / "tiny"))
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(loaded.graph.edges, ds.graph.edges)
    assert np.array_equal(loaded.labels, ds.labels)
    for which in ("train", "val", "test"):
        assert np.array_equal(loaded.mask_indices(which), ds.mask_indices(which))
    assert loaded.num_classes == 2
    assert loaded.name == "tiny"


def test_csv_features_load(tmp_path):
    loaded, root = write_tiny_tree(tmp_path)
    (root / "features.csv").write_text("0.0,1.0\n2.0,3.0\n4.0,5.0\n6.0,7.0\n")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["features"] = "features.csv"
    (root / "manifest.json").write_text(json.dumps(manifest))
    again = load_dataset(root / "manifest.json")
    assert np.array_equal(again.features, loaded.features)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_features_rejected(tmp_path, bad):
    _, root = write_tiny_tree(tmp_path)
    x = np.arange(8.0).reshape(4, 2)
    x[2, 1] = bad
    write_features(root / "features.bin", x)
    (root / "features.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
    manifest = json.loads((root / "manifest.json").read_text())
    for name in ("features.bin", "features.csv"):
        (root / "manifest.json").write_text(json.dumps({**manifest, "features": name}))
        with pytest.raises(FormatError, match=f"^{re.escape(str(root / name))}: 1 non-finite .* row 2, column 1$"):
            load_dataset(root / "manifest.json")


def test_missing_file_raises_filenotfound(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "labels.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(root / "manifest.json")


def test_missing_manifest_key_rejected(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["edges"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="edges"):
        load_dataset(root / "manifest.json")


def test_feature_shape_mismatch_rejected(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    write_features(root / "features.bin", np.zeros((4, 3)))
    with pytest.raises(FormatError, match="manifest says"):
        load_dataset(root / "manifest.json")


def test_overlapping_masks_rejected(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "val.txt").write_text("0\n")  # node 0 already in train
    with pytest.raises(FormatError, match="overlap"):
        load_dataset(root / "manifest.json")


def test_unlabeled_training_node_rejected(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "labels.csv").write_text("-1\n0\n1\n1\n")
    with pytest.raises(FormatError, match="known labels"):
        load_dataset(root / "manifest.json")


def test_label_beyond_class_count_rejected(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "labels.csv").write_text("0\n0\n1\n2\n")
    with pytest.raises(FormatError, match="class count"):
        load_dataset(root / "manifest.json")


@pytest.mark.parametrize("classes", [1, 0, -2])
def test_fewer_than_two_classes_rejected(tmp_path, classes):
    # one class trains every epoch and then fails in evaluate's silhouette
    _, root = write_tiny_tree(tmp_path)
    (root / "labels.csv").write_text("0\n0\n0\n0\n")
    manifest = json.loads((root / "manifest.json").read_text())
    (root / "manifest.json").write_text(json.dumps({**manifest, "classes": classes}))
    with pytest.raises(FormatError, match=f"^{re.escape(str(root / 'manifest.json'))}: need at least two classes"):
        load_dataset(root / "manifest.json")


def test_label_below_minus_one_rejected(tmp_path):
    # -1 marks an unknown label; -7 is not one, though it once scored as unknown
    _, root = write_tiny_tree(tmp_path)
    (root / "labels.csv").write_text("0\n0\n1\n-7\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(root / 'labels.csv'))}: label -7 at entry 4"):
        load_dataset(root / "manifest.json")


def test_mask_index_out_of_range_rejected(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "test.txt").write_text("9\n")
    with pytest.raises(FormatError, match="out of range"):
        load_dataset(root / "manifest.json")


def test_mask_error_names_the_file_the_index_and_its_entry(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "test.txt").write_text("3\n-2\n9\n")
    message = f"^{re.escape(str(root / 'test.txt'))}: node index -2 at entry 2 is out of range for n=4$"
    with pytest.raises(FormatError, match=message):
        load_dataset(root / "manifest.json")


@pytest.mark.parametrize("edges, problem", [
    ("0\t1\n3\t3\n", "self-loop on node 3 not allowed"),
    ("0\t1\n2\t4\n", r"edge \(2,4\) out of range for n=4"),
])
def test_edge_error_names_the_edge_file(tmp_path, edges, problem):
    _, root = write_tiny_tree(tmp_path)
    (root / "edges.tsv").write_text(edges)
    with pytest.raises(FormatError, match=f"^{re.escape(str(root / 'edges.tsv'))}: {problem}$"):
        load_dataset(root / "manifest.json")


def test_unknown_labels_allowed_outside_train(tmp_path):
    _, root = write_tiny_tree(tmp_path)
    (root / "labels.csv").write_text("0\n-1\n1\n1\n")  # node 1 is val
    ds = load_dataset(root / "manifest.json")
    assert ds.labels[1] == -1


# -- block-model generator ----------------------------------------------


def test_sbm_config_validation():
    with pytest.raises(DomainError):
        SbmConfig(p_intra=0.1, q_inter=0.1)  # q must be strictly below p
    with pytest.raises(DomainError):
        SbmConfig(p_intra=1.5)
    with pytest.raises(DomainError):
        SbmConfig(separation=0.0)
    with pytest.raises(DomainError):
        SbmConfig(noise=-1.0)
    for name in ("separation", "noise"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match=name):
                SbmConfig(**{name: value})
    with pytest.raises(DomainError, match="dim=0"):
        SbmConfig(dim=0)
    with pytest.raises(DomainError, match="seed"):
        SbmConfig(seed=-1)


def test_sbm_extremes_give_disjoint_cliques():
    cfg = SbmConfig(blocks=2, block_size=60, p_intra=1.0, q_inter=0.0, seed=5)
    ds = generate_sbm(cfg)
    a = adjacency_dense(ds.graph)
    for c in range(2):
        block = np.flatnonzero(ds.labels == c)
        sub = a[np.ix_(block, block)]
        assert np.array_equal(sub, np.ones((60, 60)) - np.eye(60))
    cross = a[np.ix_(np.flatnonzero(ds.labels == 0), np.flatnonzero(ds.labels == 1))]
    assert not cross.any()


def test_sbm_seed_determinism():
    a = generate_sbm(SbmConfig(seed=4))
    b = generate_sbm(SbmConfig(seed=4))
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert np.array_equal(a.train_mask, b.train_mask)
    c = generate_sbm(SbmConfig(seed=5))
    assert not np.array_equal(a.graph.edges, c.graph.edges)


@pytest.mark.parametrize("blocks, block_size, seed, cells", [
    (3, 100, 0, None), (2, 70, 3, 1000), (4, 60, 7, 99), (3, 55, 11, 1),
])
def test_sbm_row_blocks_equal_one_full_draw(monkeypatch, blocks, block_size, seed, cells):
    # ``cells`` shrinks the row blocks: uneven blocks, and one row per block
    if cells is not None:
        monkeypatch.setattr(data, "SBM_BLOCK_CELLS", cells)
    cfg = SbmConfig(blocks=blocks, block_size=block_size, p_intra=0.3, q_inter=0.05, seed=seed)
    got, want = generate_sbm(cfg), sbm_full_draw(cfg)
    assert np.array_equal(got.graph.edges, want.graph.edges)
    # the features are drawn after the graph, so equal features mean equal generator states
    assert got.features.tobytes() == want.features.tobytes()
    for mask in ("train_mask", "val_mask", "test_mask"):
        assert np.array_equal(getattr(got, mask), getattr(want, mask))


def test_sbm_memory_does_not_grow_with_the_square_of_n():
    # one full (n, n) draw peaks at about 170 MB here; a row block holds about 2**20 uniforms
    cfg = SbmConfig(blocks=3, block_size=1000, p_intra=0.01, q_inter=0.001, seed=0)
    tracemalloc.start()
    try:
        generate_sbm(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_sbm_edge_density_matches_probabilities():
    cfg = SbmConfig(blocks=2, block_size=200, p_intra=0.1, q_inter=0.01, seed=1)
    ds = generate_sbm(cfg)
    a = adjacency_dense(ds.graph)
    same = ds.labels[:, None] == ds.labels[None, :]
    upper = np.triu(np.ones_like(a, dtype=bool), k=1)

    intra_pairs = (same & upper).sum()
    intra_rate = a[same & upper].sum() / intra_pairs
    se = np.sqrt(cfg.p_intra * (1 - cfg.p_intra) / intra_pairs)
    assert abs(intra_rate - cfg.p_intra) < 3 * se

    inter_pairs = (~same & upper).sum()
    inter_rate = a[~same & upper].sum() / inter_pairs
    se = np.sqrt(cfg.q_inter * (1 - cfg.q_inter) / inter_pairs)
    assert abs(inter_rate - cfg.q_inter) < 3 * se


def test_sbm_default_split_counts():
    ds = generate_sbm(SbmConfig(blocks=3, block_size=100, seed=0))
    for c in range(3):
        mine = ds.labels == c
        assert (ds.train_mask & mine).sum() == 20
        assert (ds.val_mask & mine).sum() == 30
        assert (ds.test_mask & mine).sum() == 50
    assert not (ds.train_mask & ds.val_mask).any()


def test_sbm_block_too_small_for_split():
    with pytest.raises(ConfigError, match="too few"):
        generate_sbm(SbmConfig(blocks=2, block_size=50, seed=0))


def test_sbm_feature_means_sit_separation_apart():
    cfg = SbmConfig(blocks=3, block_size=100, dim=8, separation=3.0, noise=0.5, seed=2)
    ds = generate_sbm(cfg)
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
    for c in range(2):
        gap = np.linalg.norm(means[c + 1] - means[c])
        assert abs(gap - 3.0) < 0.3  # sample means wobble by sigma/sqrt(block)


def test_sbm_nearest_mean_classification_is_easy():
    # Labeled-mean classification must clear 0.9 F1 on the default fixture,
    # otherwise downstream model comparisons on it are meaningless.
    ds = generate_sbm(SbmConfig(seed=0))
    train = ds.mask_indices("train")
    means = np.stack(
        [ds.features[train[ds.labels[train] == c]].mean(axis=0) for c in range(ds.num_classes)]
    )
    test = ds.mask_indices("test")
    d2 = ((ds.features[test][:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    assert micro_f1(pred, ds.labels[test]) > 0.9


# -- splitting ----------------------------------------------------------


def test_make_split_is_stratified_and_seeded():
    ds = generate_sbm(SbmConfig(seed=3))
    a = make_split(ds, 10, 5, seed=11)
    b = make_split(ds, 10, 5, seed=11)
    assert np.array_equal(a.train_mask, b.train_mask)
    assert np.array_equal(a.test_mask, b.test_mask)
    for c in range(ds.num_classes):
        mine = ds.labels == c
        assert (a.train_mask & mine).sum() == 10
        assert (a.val_mask & mine).sum() == 5
    c = make_split(ds, 10, 5, seed=12)
    assert not np.array_equal(a.train_mask, c.train_mask)


def test_make_split_skips_unknown_labels():
    ds = tiny_dataset()
    labels = ds.labels.copy()
    ds = Dataset(**{**ds.__dict__, "labels": labels})
    ds.labels[3] = -1
    with pytest.raises(ConfigError):
        make_split(ds, 1, 0, seed=0)  # class 1 has one labeled node left, no room for test



@pytest.mark.parametrize(("train", "val", "named"), [
    (0, 5, "need at least one training node per class, got 0"),
    (10, -1, "validation nodes per class must not be negative, got -1"),
])
def test_make_split_names_the_count_that_is_wrong(train, val, named):
    with pytest.raises(ConfigError, match=named):
        make_split(generate_sbm(SbmConfig(seed=3)), train, val, seed=0)
