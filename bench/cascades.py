"""Input generator for the ``train-cascade-large`` workload.

Starts from the t15-like dataset that ``fade.synthgen.generate`` produces
for the ROADMAP's headline run (seed 0: 853 instances, 3-8 nodes per tree),
keeps its events, labels and source posts, and grows every reply tree to
10-20 nodes, so that the encoder's dense block-diagonal adjacency, not
augmentation, dominates training.  Real cascades are far larger still
(Twitter15/16 trees reach hundreds of nodes); 10-20 keeps one ``fade train``
near 10 s on two cores.  Larger trees on fewer instances were tried and
dropped: at 24-48 nodes on 288 instances the target predictor stayed at
chance (validation accuracy 0.23 with 4 classes), so its accuracy could not
show a numerical change.

Growth is a random recursive tree: each new node replies to a uniformly
chosen earlier node.  A new node's features are the mean reply row of all
instances sharing its event and label, plus fresh noise at the preset's
``noise_sigma``.  That keeps the event signature and the class echo that
replies carry; averaging over the whole group rather than one cascade keeps
the centre's own noise from swamping the echo.  Source posts (node 0) are
untouched.
"""

from __future__ import annotations

import numpy as np

from fade.data import Dataset, PropagationGraph
from fade.synthgen import generate, preset

BASE_PRESET = "t15-like"
BASE_SEED = 0
MIN_NODES = 10
MAX_NODES = 20


def _reply_centres(ds: Dataset) -> dict[tuple[str, int], np.ndarray]:
    rows: dict[tuple[str, int], list[np.ndarray]] = {}
    for inst in ds.instances:
        g = inst.graph
        rows.setdefault((inst.event, inst.label), []).append(g.x[1:] if g.n > 1 else g.x)
    return {key: np.vstack(parts).mean(axis=0) for key, parts in rows.items()}


def grow(ds: Dataset, seed: int, min_nodes: int, max_nodes: int, noise_sigma: float) -> Dataset:
    """Grow every cascade to a size drawn uniformly from [min_nodes, max_nodes].

    Deterministic for a given dataset and seed; cascades already at or above
    their drawn size are left as they are.  Mutates and returns ``ds``.
    """
    if not 2 <= min_nodes <= max_nodes:
        raise ValueError(f"need 2 <= min_nodes <= max_nodes, got {min_nodes}, {max_nodes}")
    centres = _reply_centres(ds)
    rng = np.random.default_rng([int(seed), 0x6A0C])
    for inst in ds.instances:
        g = inst.graph
        target = int(rng.integers(min_nodes, max_nodes + 1))
        if target <= g.n:
            continue
        centre = centres[(inst.event, inst.label)]
        new_x = centre + noise_sigma * rng.standard_normal((target - g.n, g.x.shape[1]))
        new_edges = [[int(rng.integers(0, j)), j] for j in range(g.n, target)]
        inst.graph = PropagationGraph(
            n=target, x=np.vstack([g.x, new_x]), edges=g.edges + new_edges
        )
    ds.validate()
    return ds


def make_dataset(seed: int, **overrides) -> Dataset:
    """The workload's dataset: headline t15-like structure, trees grown from ``seed``.

    ``overrides`` go to the preset (``n_events=4`` makes a tiny dataset).
    """
    cfg = preset(BASE_PRESET, **{"seed": BASE_SEED, **overrides})
    return grow(generate(cfg), seed, MIN_NODES, MAX_NODES, cfg.noise_sigma)


def size_summary(ds: Dataset) -> dict:
    """Working-set size: instance count, total nodes, nodes per cascade."""
    sizes = np.array([inst.graph.n for inst in ds.instances])
    return {
        "instances": int(sizes.size),
        "total_nodes": int(sizes.sum()),
        "nodes_per_cascade_median": float(np.median(sizes)),
        "nodes_per_cascade_max": int(sizes.max()),
    }
