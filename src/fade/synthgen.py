"""Synthetic propagation datasets with a controllable event shortcut.

Each event carries a signature direction stamped into every node's
features.  A "biased" event (drawn with probability ``bias_strength``)
gives all its instances one shared label, and its signature is strong and
tilted toward a per-class style direction — usually the style of its own
label (``bias_reliability``), occasionally a wrong class's.  Style
directions recur across events, so a model can learn the shortcut
"style → label" and be misled on exactly the events where the tilt lies;
the ``signature_diversity`` component keeps each event's direction unique.
Unbiased events have i.i.d. labels and only a faint random signature.
Class identity always enters through a separate per-class signal
direction concentrated on the source node (replies carry only a
``reply_content_fraction`` echo of it), so a content-driven model can
succeed on any event while anything pooled across an event is dominated
by the signature and inherits the styles' unreliability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .augmentation import sample_unit_vector
from .data import Dataset, NewsInstance, PropagationGraph, event_groups

__all__ = ["SynthConfig", "PRESETS", "preset", "generate", "bias_report"]


@dataclass
class SynthConfig:
    n_events: int = 20
    instances_per_event: int = 10
    n_classes: int = 2
    feature_dim: int = 16
    bias_strength: float = 0.5  # probability an event is a pure shortcut
    noise_sigma: float = 1.0
    seed: int = 0
    size_sigma: float = 0.0  # log-normal spread of event sizes; 0 = exact
    signature_strength: float = 3.0
    class_signal_strength: float = 1.0
    bias_reliability: float = 0.75  # how often a biased event's style matches its label
    signature_diversity: float = 0.5  # event-unique admixture in the signature direction
    reply_content_fraction: float = 0.2  # class-signal echo on non-source nodes

    def validate(self) -> None:
        if self.n_events < 1 or self.instances_per_event < 1:
            raise ValueError("n_events and instances_per_event must be >= 1")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ValueError(f"bias_strength must be in [0, 1], got {self.bias_strength}")
        if self.noise_sigma < 0 or self.size_sigma < 0:
            raise ValueError("noise_sigma and size_sigma must be >= 0")
        if self.signature_strength < 0 or self.class_signal_strength < 0:
            raise ValueError("signal strengths must be >= 0")
        if not 0.0 <= self.bias_reliability <= 1.0:
            raise ValueError(f"bias_reliability must be in [0, 1], got {self.bias_reliability}")
        if self.signature_diversity < 0:
            raise ValueError(f"signature_diversity must be >= 0, got {self.signature_diversity}")
        if not 0.0 <= self.reply_content_fraction <= 1.0:
            raise ValueError(
                f"reply_content_fraction must be in [0, 1], got {self.reply_content_fraction}"
            )


PRESETS: dict[str, SynthConfig] = {
    "t15-like": SynthConfig(
        n_events=60,
        instances_per_event=12,
        n_classes=4,
        feature_dim=32,
        bias_strength=0.8,
        noise_sigma=1.0,
        size_sigma=0.8,
        signature_strength=8.0,
        class_signal_strength=3.0,
        bias_reliability=0.5,
        signature_diversity=0.5,
        reply_content_fraction=0.25,
    ),
}


def preset(name: str, **overrides) -> SynthConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides)


def _tree_edges(n: int, rng: np.random.Generator) -> list[list[int]]:
    shape = rng.integers(3)
    if shape == 0:
        return [[0, j] for j in range(1, n)]
    if shape == 1:
        return [[j - 1, j] for j in range(1, n)]
    return [[int(rng.integers(0, j)), j] for j in range(1, n)]


def generate(cfg: SynthConfig) -> Dataset:
    """Build a dataset per the config; deterministic for a given seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.feature_dim
    class_signals = np.stack(
        [sample_unit_vector(dim, rng)[0] * cfg.class_signal_strength for _ in range(cfg.n_classes)]
    )
    styles = np.stack([sample_unit_vector(dim, rng)[0] for _ in range(cfg.n_classes)])
    instances = []
    for e in range(cfg.n_events):
        event = f"synthetic-event-{e:03d}"
        biased = rng.random() < cfg.bias_strength
        shared_label = int(rng.integers(cfg.n_classes))
        if biased:
            if rng.random() < cfg.bias_reliability:
                style_class = shared_label
            else:
                style_class = int(rng.integers(cfg.n_classes))
            raw = styles[style_class] + cfg.signature_diversity * sample_unit_vector(dim, rng)[0]
            signature = raw / np.linalg.norm(raw) * cfg.signature_strength
        else:
            signature = sample_unit_vector(dim, rng)[0] * 0.1 * cfg.signature_strength
        if cfg.size_sigma > 0:
            size = max(
                1,
                int(round(rng.lognormal(np.log(cfg.instances_per_event), cfg.size_sigma))),
            )
        else:
            size = cfg.instances_per_event
        if biased:
            labels = np.full(size, shared_label)
        else:
            # Balanced label cycle: an unbiased event carries no label skew.
            # With i.i.d. draws a small event acquires an accidental majority
            # class, and the event-mean pathway can read that majority out of
            # the averaged features — a residual event signal that should not
            # exist at bias_strength 0.
            labels = rng.permuted(np.resize(np.arange(cfg.n_classes), size))
        for i in range(size):
            label = int(labels[i])
            n = int(rng.integers(3, 9))
            x = signature + cfg.noise_sigma * rng.standard_normal((n, dim))
            x[0] += class_signals[label]
            x[1:] += cfg.reply_content_fraction * class_signals[label]
            instances.append(
                NewsInstance(
                    id=f"ev{e:03d}-{i:03d}",
                    graph=PropagationGraph(n=n, x=x, edges=_tree_edges(n, rng)),
                    label=label,
                    event=event,
                )
            )
    ds = Dataset(
        class_names=[f"class-{k}" for k in range(cfg.n_classes)],
        feature_dim=cfg.feature_dim,
        instances=instances,
    )
    ds.validate()
    return ds


def bias_report(ds: Dataset) -> dict:
    """Per-event label purity plus size and single-label-event summaries."""
    labels = np.array([inst.label for inst in ds.instances])
    groups = event_groups(inst.event for inst in ds.instances)
    purity = {}
    single_label_instances = 0
    for event, idx in groups.items():
        counts = np.bincount(labels[idx], minlength=ds.n_classes)
        purity[event] = float(counts.max()) / len(idx)
        if counts.max() == len(idx):
            single_label_instances += len(idx)
    sizes = np.array([len(v) for v in groups.values()])
    return {
        "n_events": len(groups),
        "n_instances": len(ds.instances),
        "per_event_purity": purity,
        "mean_purity": float(np.mean(list(purity.values()))),
        "single_label_fraction": single_label_instances / len(ds.instances),
        "event_sizes": {
            "min": int(sizes.min()),
            "max": int(sizes.max()),
            "mean": float(sizes.mean()),
            "median": float(np.median(sizes)),
        },
    }
