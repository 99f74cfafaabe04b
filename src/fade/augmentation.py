"""Adaptive representation-space augmentation.

Perturbs a graph representation by a fixed radius (the mean distance of
training representations from their centroid) along random unit directions,
keeps only candidates the current classifier still labels correctly, and
returns the surviving candidate closest to the decision boundary.  If no
candidate survives, the original representation is returned unchanged.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AugmentationContext",
    "compute_radius",
    "sample_unit_vector",
    "derive_rng",
    "margin",
    "select_augmentation",
    "augment",
]


@dataclass
class AugmentationContext:
    """Per-epoch augmentation settings: perturbation radius, candidate count, seed."""

    radius: float
    num_candidates: int = 10
    rng_seed: int = 0

    def validate(self) -> None:
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")
        if self.num_candidates < 1:
            raise ValueError(f"num_candidates must be >= 1, got {self.num_candidates}")


def compute_radius(reps: np.ndarray) -> float:
    """Mean Euclidean distance of the representation rows from their centroid."""
    if reps.shape[0] == 0:
        raise ValueError("compute_radius: empty representation matrix")
    centroid = reps.mean(axis=0, keepdims=True)
    return float(np.linalg.norm(reps - centroid, axis=1).mean())


def sample_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere, as a (1, dim) row."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 0:  # all-zeros draw has measure zero; resample
            return (v / n).reshape(1, dim)


def derive_rng(seed: int, sample_id: str, epoch: int) -> np.random.Generator:
    """Deterministic per-sample stream; independent of call order across samples."""
    return np.random.default_rng([int(seed), int(epoch), zlib.crc32(sample_id.encode())])


def margin(logits: np.ndarray, label: int) -> float:
    """True-class logit minus the best other-class logit."""
    z = np.asarray(logits).ravel()
    rest = np.delete(z, label)
    return float(z[label] - rest.max())


def select_augmentation(
    rep: np.ndarray,
    radius: float,
    directions: list[np.ndarray],
    classify_fn,
    label: int,
) -> tuple[np.ndarray, bool, float | None]:
    """Pick the label-preserving candidate with the smallest margin.

    Returns (vector, fallback, margin); fallback means no candidate kept the
    label and the original representation is returned.
    """
    best_vec = None
    best_margin = None
    for v in directions:
        cand = rep + radius * v
        z = classify_fn(cand)
        if int(np.argmax(z)) != label:
            continue
        m = margin(z, label)
        if best_margin is None or m < best_margin:
            best_vec, best_margin = cand, m
    if best_vec is None:
        return rep.copy(), True, None
    return best_vec, False, best_margin


def augment(
    rep,
    ctx: AugmentationContext,
    classify_fn,
    label: int,
    sample_id: str = "",
    epoch: int = 0,
) -> np.ndarray:
    """Augmented representation for one sample, as a (1, dim) row.

    ``classify_fn`` maps a (1, dim) row to (1, n_classes) logits and should
    be the target classifier's state at the start of the step.  The offset
    added here is data: gradients flow through the original representation
    only.
    """
    ctx.validate()
    vector = np.asarray(rep, dtype=np.float64).reshape(1, -1)
    if ctx.radius == 0.0:
        return vector.copy()
    rng = derive_rng(ctx.rng_seed, sample_id, epoch)
    directions = [sample_unit_vector(vector.shape[1], rng) for _ in range(ctx.num_candidates)]
    return select_augmentation(vector, ctx.radius, directions, classify_fn, label)[0]
