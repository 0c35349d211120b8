"""The benchmark's workloads: inputs, model settings, and why each exists.

Each workload is a closed loop with one client in one process: a job starts
only after the previous one has finished. A run repeats jobs until its time
budget is spent, so every job of a run does the same work on the same
inputs and its outputs must be identical.

* ``train`` jobs: ``load_dataset`` plus one ``train()`` call at fixed epochs
  (patience = epochs), which ends in the final ``evaluate``.
* ``infer`` jobs (sessions): ``load_dataset`` plus ``load_checkpoint``, then
  ``requests`` forward-only requests alternating ``training.representation``
  and ``training.predictions``; every ``evaluate_every``-th request is a
  full ``training.evaluate`` instead. The checkpoint is written before the
  run by a short, untimed ``train()`` of the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from sbm import SbmSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "infer"
    graph: SbmSpec
    config: dict  # TrainConfig fields; for "infer", of the run that writes the checkpoint
    f1_floor: float  # test micro-F1 an evaluate must reach to count as correct (chance is 1/3)
    requests: int = 0
    evaluate_every: int = 0


# n = 2400 (3 x 800), mean degree about 12, of which 2 cross blocks. Class
# means 5 noise units apart let ten epochs reach a test F1 that varies little
# between seeds, so the quality guards stay steady.
LARGE = SbmSpec(blocks=3, block_size=800, dim=16, degree_in=10.0, degree_out=2.0, separation=5.0)
# n = 600 (3 x 200): the parameterized kinds factor a dense n x n matrix per stage
SMALL = SbmSpec(blocks=3, block_size=200, dim=16, degree_in=10.0, degree_out=2.0, separation=5.0)

# two flows of four couplings each, the depth of acceptance check 6
FIXED = {"model": "gcflow", "couplings": 4, "epochs": 10, "patience": 10, "seed": 0}
ATTN = {"model": "gcflow-p", "epochs": 10, "patience": 10, "seed": 0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-fixed",
            why="gcflow training, fixed adjacency, n=2400: bound by the autodiff tape, couplings, "
                "mixture head and validation predict; the log-det runs only in set-up",
            kind="train", graph=LARGE, config=FIXED, f1_floor=0.7,
        ),
        Workload(
            "train-attn",
            why="gcflow-p training, n=600: bound by the dense attention scatter and "
                "logabsdet_tensor (LU plus full inverse); the other side of graph-layer changes",
            kind="train", graph=SMALL, config=ATTN, f1_floor=0.85,
        ),
        Workload(
            "infer",
            why="forward-only requests on a gcflow checkpoint, every 25th a full evaluate: "
                "no backward pass, evalkit k-means/silhouette, checkpoint load in set-up",
            kind="infer", graph=LARGE, config=FIXED, f1_floor=0.7,
            requests=50, evaluate_every=25,
        ),
    )
}
