"""Save and restore trained models as JSON.

A checkpoint stores the config snapshot, the fingerprint of the graph the
model was trained on, and three groups of arrays: the values of
``model.params()`` in that order, the PCA projection when the run reduced
its features, and an EM reference's fit. Each group is one block: the list
of its arrays' shapes beside every value as one little-endian float64
string, base64-encoded. ``_encode`` writes every block and ``_decode`` reads
and checks every block. The block holds each value's exact bits, so a
reload reproduces the model bit-for-bit: the skeleton is rebuilt from the
config (same constructors, same seed) and the saved values overwrite the
fresh initialization. The file is written under a temporary name and
renamed into place, so an interrupted save leaves no truncated checkpoint.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .baselines import EmGmm, EmReference
from .errors import FormatError
from .evalkit import PcaProjection
from .graphs import fingerprint
from .training import TrainConfig, TrainedModel, assemble_model

FORMAT_TAG = "gcflow-checkpoint-9"


def save_checkpoint(path, tm: TrainedModel, graph):
    """Write ``tm``, trained on ``graph``, to ``path`` through ``write_json``."""
    payload = {
        "format": FORMAT_TAG,
        "config": tm.config,
        "dim": tm.dim,
        "classes": tm.classes,
        "damping_used": tm.damping_used,
        "graph": fingerprint(graph),
        "pca": None if tm.pca is None else _encode(vars(tm.pca).values()),
        "params": _encode(p.data for p in tm.model.params()),
        "gmm": None,
    }
    if isinstance(tm.model, EmReference):
        gmm = tm.model.gmm
        payload["gmm"] = _encode([gmm.weights, gmm.means, gmm.covs, tm.model.mapping])
    return write_json(path, payload)


def _encode(arrays):
    """A block of ``arrays``: their shapes, and every value of every array in
    C order as one base64 string of little-endian float64s."""
    arrays = [np.asarray(a, "<f8") for a in arrays]
    return {"shapes": [a.shape for a in arrays],
            "float64le": base64.b64encode(b"".join(a.tobytes() for a in arrays)).decode()}


def _decode(path, name, block, want):
    """The arrays of ``block``, read-only views of its decoded values, once it
    stores arrays of the shapes ``want`` (lists, as JSON reads them), 8
    bytes per value and only finite values; ``name`` names it in a refusal."""
    if block["shapes"] != want:
        raise FormatError(f"{path}: stores {name} arrays of shapes {block['shapes']}, the model has {want}")
    raw = base64.b64decode(block["float64le"], validate=True)
    sizes = [math.prod(shape) for shape in want]
    if len(raw) != 8 * sum(sizes):
        raise FormatError(f"{path}: the {name} block holds {len(raw)} bytes, "
                          f"the shapes need {8 * sum(sizes)} (8 per value)")
    values = np.frombuffer(raw, "<f8")
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: the {name} block holds non-finite values")
    return [values[end - size:end].reshape(shape)
            for shape, size, end in zip(want, sizes, itertools.accumulate(sizes))]


def write_atomic(path, write):
    """Call ``write`` on a text file opened under a temporary name beside
    ``path``, then rename that file over ``path``: an interrupted write
    leaves the previous file whole and no temporary file behind. An
    ``OSError`` that names the temporary file (a missing directory, say)
    names ``path`` instead."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w") as fh:
            write(fh)
        os.replace(partial, path)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(partial):
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise
    return str(path)


def write_json(path, obj):
    """``obj`` as one line of sorted-key JSON, written through ``write_atomic``."""
    def dump(fh):
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")

    return write_atomic(path, dump)


def load_checkpoint(path, graph) -> TrainedModel:
    """Rebuild a trained model against the graph it was trained on.

    Refuses, with ``FormatError``, any other checkpoint format, any graph
    whose node count or edge list differs from the saved one, a ``dim`` or
    ``classes`` that is not a positive integer, a ``damping_used`` that is
    not a finite non-negative number, and a projection saved without a
    config ``pca_dim``, missing with one, or with a ``pca_dim`` other than
    ``dim``. Every block (parameters, projection, EM fit) is refused when
    its shapes are not the model's, (D,), (D, dim) and (dim,) for the
    projection's mean, directions and explained variances with D at least
    ``dim``, when it is not
    base64 or its byte count is not 8 per value those shapes hold, and when
    it holds a non-finite value. An EM fit is also refused when its weights
    are not a probability vector, its covariances are not symmetric positive
    definite, or its mapping is not integer classes.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    tag = payload.get("format") if isinstance(payload, dict) else None
    if tag != FORMAT_TAG:
        raise FormatError(f"{path}: checkpoint format is {tag!r}, this version reads {FORMAT_TAG!r}")
    try:
        saved, given = payload["graph"], fingerprint(graph)
        if saved != given:
            raise FormatError(f"{path}: saved for the graph {saved}, not for the given graph {given}")
        cfg = TrainConfig(**payload["config"])
        dim, classes, damping_used = payload["dim"], payload["classes"], payload["damping_used"]
        if not (type(dim) is type(classes) is int and min(dim, classes) >= 1):
            raise ValueError(f"dim {dim!r} and classes {classes!r} must be positive integers")
        # None would rebuild the adjacency as training does, factoring it and maybe re-damping it
        if type(damping_used) not in (int, float) or not 0.0 <= damping_used < math.inf:
            raise ValueError(f"damping_used must be a finite non-negative number, got {damping_used!r}")
        pca = None
        if payload["pca"] is not None:
            (d,), *_ = payload["pca"]["shapes"]  # the mean's shape: D, the raw feature count
            pca = PcaProjection(*_decode(path, "pca", payload["pca"], [[d], [d, dim], [dim]]))
            if d < dim:
                raise FormatError(f"{path}: the pca block projects {d} features onto {dim} directions; "
                                  "a projection has no more directions than features")
        if (pca is None) != (cfg.pca_dim is None) or cfg.pca_dim not in (None, dim):
            raise FormatError(f"{path}: config pca_dim is {cfg.pca_dim}, but dim is {dim} and "
                              f"{'no' if pca is None else 'a'} pca projection is saved")
        tm = assemble_model(cfg, graph, dim, classes, damping_used=damping_used)
        tm.pca = pca
        params = tm.model.params()
        for p, value in zip(params, _decode(path, "parameter", payload["params"],
                                            [list(p.data.shape) for p in params])):
            p.data[...] = value
        if isinstance(tm.model, EmReference):
            k = classes
            weights, means, covs, mapping = _decode(path, "gmm", payload["gmm"],
                                                    [[k], [k, dim], [k, dim, dim], [k]])
            if not np.all((mapping >= 0) & (mapping < k) & (mapping == np.floor(mapping))):
                raise FormatError(f"{path}: the gmm mapping {mapping.tolist()} must hold integers in [0, {k})")
            # symmetric to rounding: a fitted covariance can be off by an ulp; a sum or a difference of
            # finite values near 1e308 overflows to inf, which fails the check
            with np.errstate(over="ignore"):
                is_mixture = (np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-9
                              and np.abs(covs - covs.transpose(0, 2, 1)).max() <= 1e-12 * np.abs(covs).max())
            if not is_mixture:
                raise FormatError(f"{path}: gmm weights {weights.tolist()} are not a probability vector, "
                                  "or the covariances are not symmetric")
            np.linalg.cholesky(covs)  # LinAlgError unless every covariance is positive definite
            tm.model.gmm, tm.model.mapping = EmGmm(weights, means, covs), mapping.astype(np.intp)
    except (KeyError, TypeError, ValueError) as exc:  # LinAlgError is a ValueError
        raise FormatError(f"{path}: malformed checkpoint ({exc})") from None
    return tm
