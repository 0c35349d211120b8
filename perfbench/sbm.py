"""Seeded stochastic-block-model inputs, written in gcflow's manifest layout.

This sampler belongs to the benchmark, not to the program under test: it
uses numpy only and writes the on-disk format directly, so the inputs for a
given seed stay byte-identical when the program's own generator changes.

Edges are drawn one block pair at a time (a ``block_size`` x ``block_size``
uniform draw per pair), never as one dense n x n array.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"GCFLOW1\x00"
# the split gcflow's own generator uses: per class, 20 train and 30 val
# nodes, the rest test
TRAIN_PER_CLASS = 20
VAL_PER_CLASS = 30


@dataclass(frozen=True)
class SbmSpec:
    blocks: int
    block_size: int
    dim: int
    degree_in: float  # expected neighbours inside a node's own block
    degree_out: float  # expected neighbours in all other blocks together
    separation: float  # distance between adjacent class means; features have unit noise


def sample(spec: SbmSpec, seed: int):
    """Labels, sorted (i, j) edge pairs with i < j, features, and the split."""
    rng = np.random.default_rng([seed, spec.blocks, spec.block_size, spec.dim])
    b, m = spec.blocks, spec.block_size
    n = b * m
    labels = np.repeat(np.arange(b), m)
    p_in = spec.degree_in / (m - 1)
    p_out = spec.degree_out / (m * (b - 1))
    parts = []
    for a in range(b):
        for c in range(a, b):
            hit = rng.random((m, m)) < (p_in if a == c else p_out)
            if a == c:
                hit = np.triu(hit, k=1)
            i, j = np.nonzero(hit)
            parts.append(np.stack([i + a * m, j + c * m], axis=1))
    edges = np.concatenate(parts)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    direction = np.ones(spec.dim) / np.sqrt(spec.dim)
    features = labels[:, None] * spec.separation * direction[None, :]
    features = features + rng.normal(size=(n, spec.dim))

    split = {"train": [], "val": [], "test": []}
    cut = TRAIN_PER_CLASS + VAL_PER_CLASS
    for k in range(b):
        order = rng.permutation(np.flatnonzero(labels == k))
        split["train"].append(order[:TRAIN_PER_CLASS])
        split["val"].append(order[TRAIN_PER_CLASS:cut])
        split["test"].append(order[cut:])
    split = {name: np.sort(np.concatenate(idx)) for name, idx in split.items()}
    return labels, edges, features, split


def write(spec: SbmSpec, seed: int, directory) -> Path:
    """Sample and write one dataset; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels, edges, features, split = sample(spec, seed)
    x = np.ascontiguousarray(features, dtype="<f8")
    with open(directory / "features.bin", "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<qq", *x.shape))
        fh.write(x.tobytes())
    with open(directory / "edges.tsv", "w") as fh:
        fh.writelines(f"{i}\t{j}\n" for i, j in edges.tolist())
    with open(directory / "labels.csv", "w") as fh:
        fh.writelines(f"{k}\n" for k in labels.tolist())
    for name, idx in split.items():
        with open(directory / f"{name}.txt", "w") as fh:
            fh.writelines(f"{i}\n" for i in idx.tolist())
    manifest = {
        "name": f"perfbench-sbm{spec.blocks}x{spec.block_size}-seed{seed}",
        "n": int(labels.size), "dim": spec.dim, "classes": spec.blocks,
        "features": "features.bin", "edges": "edges.tsv", "labels": "labels.csv",
        "train": "train.txt", "val": "val.txt", "test": "test.txt",
        "generator": {"seed": seed, **asdict(spec)},
    }
    path = directory / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def tree_sha256(directory) -> str:
    """One hash over the relative paths and bytes of every file under a
    directory, skipping Python bytecode caches."""
    root = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()
