"""Save and restore trained models as JSON.

A checkpoint stores the config snapshot, the fingerprint of the graph the
model was trained on, and the values of ``model.params()`` in that order:
one little-endian float64 block, base64-encoded, beside the list of
per-array shapes. The block holds each value's exact bits, so a reload
reproduces the model bit-for-bit: the skeleton is rebuilt from the config
(same constructors, same seed) and the saved values overwrite the fresh
initialization. An EM reference, which has no gradient parameters, stores
an empty block and its fitted arrays instead. Those arrays and a PCA
projection stay JSON lists, whose shortest float reprs round-trip. The file
is written under a temporary name and renamed into place, so an interrupted
save leaves no truncated checkpoint.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baselines import EmGmm, EmReference
from .errors import FormatError
from .evalkit import PcaProjection
from .graphs import fingerprint
from .training import TrainConfig, TrainedModel, assemble_model

FORMAT_TAG = "gcflow-checkpoint-8"


def save_checkpoint(path, tm: TrainedModel, graph):
    """Write ``tm``, trained on ``graph``, to ``path`` through ``write_json``."""
    params = tm.model.params()
    payload = {
        "format": FORMAT_TAG,
        "config": tm.config,
        "dim": tm.dim,
        "classes": tm.classes,
        "damping_used": tm.damping_used,
        "graph": fingerprint(graph),
        "pca": None if tm.pca is None else {key: value.tolist() for key, value in vars(tm.pca).items()},
        "params": {
            "shapes": [p.data.shape for p in params],
            "float64le": base64.b64encode(b"".join(p.data.astype("<f8").tobytes() for p in params)).decode(),
        },
        "gmm": None,
    }
    if isinstance(tm.model, EmReference):
        payload["gmm"] = {
            "weights": tm.model.gmm.weights.tolist(),
            "means": tm.model.gmm.means.tolist(),
            "covs": tm.model.gmm.covs.tolist(),
            "mapping": tm.model.mapping.tolist(),
        }
    return write_json(path, payload)


def write_atomic(path, write):
    """Call ``write`` on a text file opened under a temporary name beside
    ``path``, then rename that file over ``path``: an interrupted write
    leaves the previous file whole and no temporary file behind."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w") as fh:
            write(fh)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
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
    not a finite non-negative number, parameter shapes other than the
    model's, a parameter block that is not base64 or whose byte count is
    not 8 per value those shapes hold, non-finite parameter values, a PCA
    projection whose mean, directions and explained variances are not finite
    arrays of shapes (D,), (D, dim) and (dim,), a projection saved without a
    config ``pca_dim`` or missing with one, and a ``pca_dim`` other than
    ``dim``; for an EM reference, also fitted arrays of other shapes than
    the model's, weights that are not a probability vector, covariances
    that are not symmetric positive definite, and a mapping that is not
    integer classes.
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
            pca = PcaProjection(*(np.asarray(payload["pca"][f.name], dtype=np.float64)
                                  for f in fields(PcaProjection)))
            want = [(pca.mean.size,), (pca.mean.size, dim), (dim,)]
            shapes = [a.shape for a in vars(pca).values()]
            if shapes != want or not all(np.all(np.isfinite(a)) for a in vars(pca).values()):
                raise FormatError(f"{path}: pca mean, directions, explained are {shapes}; "
                                  f"the model needs {want} and finite values")
        if (pca is None) != (cfg.pca_dim is None) or cfg.pca_dim not in (None, dim):
            raise FormatError(f"{path}: config pca_dim is {cfg.pca_dim}, but dim is {dim} and "
                              f"{'no' if pca is None else 'a'} pca projection is saved")
        tm = assemble_model(cfg, graph, dim, classes, damping_used=damping_used)
        tm.pca = pca
        params = tm.model.params()
        block, want = payload["params"], [list(p.data.shape) for p in params]
        if block["shapes"] != want:
            raise FormatError(f"{path}: stores parameter arrays of shapes {block['shapes']}, the model has {want}")
        raw = base64.b64decode(block["float64le"], validate=True)
        size = sum(p.data.size for p in params)
        if len(raw) != 8 * size:
            raise FormatError(f"{path}: the parameter block holds {len(raw)} bytes, "
                              f"the shapes need {8 * size} (8 per value)")
        values = np.frombuffer(raw, "<f8")
        if not np.all(np.isfinite(values)):
            raise FormatError(f"{path}: the parameter block holds non-finite values")
        start = 0
        for p in params:
            p.data[...] = values[start:start + p.data.size].reshape(p.data.shape)
            start += p.data.size
        if isinstance(tm.model, EmReference):
            gmm = payload["gmm"]
            fitted = EmGmm(gmm["weights"], gmm["means"], gmm["covs"])
            mapping = np.asarray(gmm["mapping"])
            k, dim = tm.classes, tm.dim
            want = [(k,), (k, dim), (k, dim, dim), (k,)]
            shapes = [a.shape for a in (fitted.weights, fitted.means, fitted.covs, mapping)]
            if shapes != want or mapping.dtype.kind not in "iu" or np.any((mapping < 0) | (mapping >= k)):
                raise FormatError(f"{path}: gmm weights, means, covs, mapping are {shapes} and map to "
                                  f"{mapping.tolist()}; the model needs {want} and integers in [0, {k})")
            w, covs = fitted.weights, fitted.covs
            # symmetric to rounding: a fitted covariance can be off by an ulp
            if not (np.all(np.isfinite(w)) and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9
                    and np.all(np.isfinite(covs))
                    and np.abs(covs - covs.transpose(0, 2, 1)).max() <= 1e-12 * np.abs(covs).max()):
                raise FormatError(f"{path}: gmm weights {w.tolist()} are not a probability vector, "
                                  "or the covariances are not finite and symmetric")
            np.linalg.cholesky(covs)  # LinAlgError unless every covariance is positive definite
            tm.model.gmm, tm.model.mapping = fitted, mapping.astype(np.intp)
    except (KeyError, TypeError, ValueError) as exc:  # LinAlgError is a ValueError
        raise FormatError(f"{path}: malformed checkpoint ({exc})") from None
    return tm

