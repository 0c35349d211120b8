"""Dataset container, on-disk formats, and a seeded block-model generator.

A dataset bundles a graph, node features, integer labels (-1 marks an
unknown label), and disjoint train/val/test masks. On disk it is a JSON
manifest naming the individual files, so converters can produce one from
any public source without this package shipping the data itself.

Feature files are either CSV or a raw binary format: an 8-byte magic, two
little-endian int64 (rows, columns), then the row-major float64 payload.
The binary round-trips bit-exactly, which the determinism guarantees rely
on.
"""

from __future__ import annotations

import json
import numbers
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .graphs import Graph, make_graph

FEATURE_MAGIC = b"GCFLOW1\x00"

TRAIN_PER_CLASS = 20
VAL_PER_CLASS = 30


@dataclass
class Dataset:
    name: str
    graph: Graph
    features: np.ndarray
    labels: np.ndarray  # -1 where unknown
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int

    @property
    def n(self):
        return self.graph.n

    @property
    def dim(self):
        return self.features.shape[1]

    def mask_indices(self, which):
        mask = getattr(self, f"{which}_mask")
        return np.flatnonzero(mask)


def _check(ds: Dataset):
    n = ds.graph.n
    if ds.features.shape[0] != n:
        raise FormatError(f"feature rows ({ds.features.shape[0]}) do not match node count ({n})")
    for field in ("labels", "train_mask", "val_mask", "test_mask"):
        if getattr(ds, field).shape[0] != n:
            raise FormatError(f"{field} length does not match node count ({n})")
    overlap = (
        (ds.train_mask & ds.val_mask) | (ds.train_mask & ds.test_mask) | (ds.val_mask & ds.test_mask)
    )
    if overlap.any():
        raise FormatError("train/val/test masks overlap")
    if np.any(ds.labels[ds.train_mask] < 0):
        raise FormatError("training nodes must have known labels")
    if np.any(ds.labels >= ds.num_classes):
        raise FormatError(f"label id exceeds class count {ds.num_classes}")
    return ds


# -- feature files ------------------------------------------------------


def write_features(path, x):
    x = np.ascontiguousarray(x, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<qq", x.shape[0], x.shape[1]))
        fh.write(x.tobytes())


def read_features(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: not a feature file (bad magic)")
        header = fh.read(16)
        if len(header) != 16:
            raise FormatError(f"{path}: truncated header")
        rows, cols = struct.unpack("<qq", header)
        if rows < 0 or cols < 0:
            raise FormatError(f"{path}: negative dimensions in header")
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def _load_feature_file(path):
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == FEATURE_MAGIC:
        return read_features(path)
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot parse as CSV features ({exc})") from None


def data_lines(path):
    """``(lineno, text)`` for each line of a text file that is not blank once
    its '#' comment and surrounding whitespace are stripped. A file that is
    not text raises ``FormatError`` naming its path."""
    with open(path) as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a text file ({exc})") from None


def read_int_lines(path):
    """One integer per line, as ``data_lines`` reads them. A line that is not
    an integer raises ``FormatError`` naming its path and line number."""
    values = []
    for lineno, line in data_lines(path):
        try:
            values.append(int(line))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: expected an integer") from None
    return np.array(values, dtype=np.intp)


def read_labels(path):
    """Class ids, one per line as ``read_int_lines`` reads them; -1 marks an
    unknown label, and a label below -1 raises ``FormatError`` naming the file."""
    labels = read_int_lines(path)
    below = np.flatnonzero(labels < -1)
    if below.size:
        raise FormatError(f"{path}: label {labels[below[0]]} at entry {below[0] + 1}; "
                          "-1 marks an unknown label, and none is below it")
    return labels


def load_edge_list(path):
    """Tab-separated node-id pairs ("i<TAB>j"), one per line, as ``data_lines`` reads them."""
    pairs = []
    for lineno, line in data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(f"{path}:{lineno}: expected two tab-separated node ids")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer node id") from None
    return pairs


def _mask_from_indices(indices, n, path):
    mask = np.zeros(n, dtype=bool)
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            raise FormatError(f"{path}: node index out of range")
        mask[indices] = True
    return mask


# -- manifest load/save -------------------------------------------------

MANIFEST_FILES = ("features", "edges", "labels", "train", "val", "test")
MANIFEST_KEYS = ("n", "dim", "classes") + MANIFEST_FILES


def load_dataset(manifest_path) -> Dataset:
    """Read a manifest and every file it names, validating the result."""
    from pathlib import Path

    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise FormatError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}")
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise FormatError(f"{manifest_path}: missing keys {missing}")
    base = manifest_path.parent
    sizes = [manifest[key] for key in ("n", "dim", "classes")]
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in sizes):
        raise FormatError(f"{manifest_path}: n, dim and classes must be integers, got {sizes}")
    n, dim, classes = sizes
    if classes < 2:
        raise FormatError(f"{manifest_path}: need at least two classes to cluster, got {classes}")
    not_names = [k for k in MANIFEST_FILES if not isinstance(manifest[k], str)]
    if not_names:
        raise FormatError(f"{manifest_path}: file entries {not_names} must be file names (strings)")

    features = _load_feature_file(base / manifest["features"])
    if features.shape != (n, dim):
        raise FormatError(
            f"features are {features.shape[0]}x{features.shape[1]}, manifest says {n}x{dim}"
        )
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        raise FormatError(f"{base / manifest['features']}: {len(bad)} non-finite feature values, "
                          f"the first at row {bad[0, 0]}, column {bad[0, 1]}")
    try:
        # the reader's ids are ints, so as an array they skip make_graph's search of a list for bools
        graph = make_graph(n, np.asarray(load_edge_list(base / manifest["edges"])))
    except DomainError as exc:
        raise FormatError(f"edge list: {exc}") from None
    labels = read_labels(base / manifest["labels"])
    if labels.shape[0] != n:
        raise FormatError(f"labels file has {labels.shape[0]} entries, expected {n}")
    masks = {
        which: _mask_from_indices(read_int_lines(base / manifest[which]), n, manifest[which])
        for which in ("train", "val", "test")
    }
    ds = Dataset(
        name=str(manifest.get("name", manifest_path.parent.name)),
        graph=graph,
        features=features,
        labels=labels,
        train_mask=masks["train"],
        val_mask=masks["val"],
        test_mask=masks["test"],
        num_classes=classes,
    )
    return _check(ds)


def save_dataset(ds: Dataset, directory) -> str:
    """Write a dataset as manifest plus data files; returns the manifest path."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_features(directory / "features.bin", ds.features)
    with open(directory / "edges.tsv", "w") as fh:
        fh.writelines(f"{i}\t{j}\n" for i, j in ds.graph.edges.tolist())
    with open(directory / "labels.csv", "w") as fh:
        fh.writelines(f"{int(label)}\n" for label in ds.labels)
    for which in ("train", "val", "test"):
        with open(directory / f"{which}.txt", "w") as fh:
            fh.writelines(f"{i}\n" for i in ds.mask_indices(which))
    manifest = {
        "name": ds.name,
        "n": ds.n,
        "dim": ds.dim,
        "classes": ds.num_classes,
        "features": "features.bin",
        "edges": "edges.tsv",
        "labels": "labels.csv",
        "train": "train.txt",
        "val": "val.txt",
        "test": "test.txt",
    }
    path = directory / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


# -- synthetic block model ----------------------------------------------


# uniforms per row block of generate_sbm's draw
SBM_BLOCK_CELLS = 1 << 20


@dataclass
class SbmConfig:
    blocks: int = 3
    block_size: int = 100
    p_intra: float = 0.1
    q_inter: float = 0.01
    dim: int = 8
    separation: float = 3.0
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.q_inter < self.p_intra <= 1.0):
            raise DomainError(
                f"need 0 <= q < p <= 1, got p={self.p_intra}, q={self.q_inter}"
            )
        for name in ("separation", "noise"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.blocks < 2 or self.block_size < 1:
            raise DomainError("need at least two blocks of at least one node")
        if self.dim < 1:
            raise DomainError(f"need at least one feature dimension, got dim={self.dim}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")


def generate_sbm(cfg: SbmConfig) -> Dataset:
    """Sample a block-model graph with Gaussian class-blob features.

    Class k's feature mean is the all-ones direction scaled to length
    k * separation, so adjacent classes sit `separation` apart regardless
    of dimension. The default split takes 20 train and 30 val nodes per
    class; blocks must be large enough to leave test nodes.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.blocks * cfg.block_size
    labels = np.repeat(np.arange(cfg.blocks), cfg.block_size)

    # the n x n uniforms are drawn a block of rows at a time: the same values
    # and generator state as one (n, n) draw, in O(rows * n) memory
    rows = max(1, SBM_BLOCK_CELLS // n)
    pairs = []
    for r0 in range(0, n, rows):
        block = labels[r0:r0 + rows]
        prob = np.where(block[:, None] == labels[None, :], cfg.p_intra, cfg.q_inter)
        src, dst = np.nonzero(np.triu(rng.random((block.size, n)) < prob, k=1 + r0))
        pairs.append(np.column_stack([src + r0, dst]))
    graph = make_graph(n, np.concatenate(pairs))

    direction = np.ones(cfg.dim) / np.sqrt(cfg.dim)
    features = labels[:, None] * cfg.separation * direction[None, :]
    features = features + cfg.noise * rng.normal(size=(n, cfg.dim))

    ds = Dataset(
        name=f"sbm{cfg.blocks}x{cfg.block_size}s{cfg.seed}",
        graph=graph,
        features=features,
        labels=labels,
        train_mask=np.zeros(n, dtype=bool),
        val_mask=np.zeros(n, dtype=bool),
        test_mask=np.zeros(n, dtype=bool),
        num_classes=cfg.blocks,
    )
    return make_split(ds, TRAIN_PER_CLASS, VAL_PER_CLASS, seed=cfg.seed)


def make_split(ds: Dataset, per_class_train, per_class_val, seed) -> Dataset:
    """Stratified masks: fixed counts per class, the labeled rest is test."""
    if per_class_train < 1 or per_class_val < 0:
        raise ConfigError("need at least one training node per class")
    rng = np.random.default_rng(seed)
    train = np.zeros(ds.n, dtype=bool)
    val = np.zeros(ds.n, dtype=bool)
    test = np.zeros(ds.n, dtype=bool)
    for c in range(ds.num_classes):
        mine = np.flatnonzero(ds.labels == c)
        if mine.size < per_class_train + per_class_val + 1:
            raise ConfigError(
                f"class {c} has {mine.size} labeled nodes, too few for "
                f"{per_class_train} train + {per_class_val} val + test"
            )
        order = rng.permutation(mine)
        train[order[:per_class_train]] = True
        val[order[per_class_train:per_class_train + per_class_val]] = True
        test[order[per_class_train + per_class_val:]] = True
    return _check(replace(ds, train_mask=train, val_mask=val, test_mask=test))

