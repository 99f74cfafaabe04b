"""Debiased prediction and evaluation.

The final decision rule subtracts a scaled copy of the event-only
predictor's logits from the target predictor's logits, removing the score
mass both models attribute to the event rather than the content.  Event
grouping at test time is transductive: all evaluation instances of an
event are pooled together before the event-only pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .data import NewsInstance
from .predictors import (
    EventOnlyPredictorParams,
    TargetPredictorParams,
    event_only_logits,
    target_logits,
)

__all__ = [
    "DebiasConfig",
    "debias",
    "target_logits",
    "event_only_logits",
    "predict",
    "evaluate",
    "sweep_beta",
    "report_to_text",
]

DEFAULT_BETA_GRID = tuple(round(0.1 * k, 1) for k in range(11))


@dataclass
class DebiasConfig:
    """Strength of the event-logit subtraction."""

    beta: float = 0.0

    def validate(self) -> None:
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


def debias(o_target, o_event, cfg: DebiasConfig) -> np.ndarray:
    """Subtract beta-scaled event-only logits from target logits.

    Operates on raw (pre-softmax) scores.
    """
    cfg.validate()
    t = np.asarray(o_target, dtype=np.float64)
    e = np.asarray(o_event, dtype=np.float64)
    if t.shape != e.shape:
        raise ShapeError(f"debias: logit shapes differ, {t.shape} vs {e.shape}")
    return t - cfg.beta * e


def predict(
    target: TargetPredictorParams,
    event_only: EventOnlyPredictorParams,
    instances: list[NewsInstance],
    cfg: DebiasConfig,
) -> np.ndarray:
    """Debiased class index for each instance, in input order."""
    if not instances:
        raise ValueError("predict: empty instance list")
    o_t = target_logits(target, instances)
    o_e = event_only_logits(event_only, instances)
    return np.argmax(debias(o_t, o_e, cfg), axis=1)


def evaluate(predictions, labels, class_names: list[str], events=None) -> dict:
    """Accuracy, one-vs-rest F1 per class, and the confusion matrix.

    The report is the JSON object `eval --out` writes after its own keys.  A
    class with no true instances and no predictions gets F1 = 0.  ``events``
    (optional, aligned with predictions) only feeds the distinct event count.
    """
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"evaluate: {predictions.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    n = predictions.shape[0]
    if n == 0:
        raise ValueError("evaluate: empty test set")
    n_classes = len(class_names)
    for name, values in (("label", labels), ("prediction", predictions)):
        outside = values[(values < 0) | (values >= n_classes)]
        if outside.size:
            raise ValueError(f"evaluate: {name} {outside[0]} outside [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(labels, predictions):
        confusion[t, p] += 1
    per_class_f1 = []
    for c, name in enumerate(class_names):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        per_class_f1.append([name, float(2.0 * tp / denom) if denom else 0.0])
    return {
        "accuracy": float(np.trace(confusion)) / n,
        "per_class_f1": per_class_f1,
        "confusion": confusion.tolist(),
        "n_test": n,
        "n_events": len(set(events)) if events is not None else 0,
    }


def sweep_beta(
    target: TargetPredictorParams,
    event_only: EventOnlyPredictorParams,
    instances: list[NewsInstance],
) -> float:
    """`DEFAULT_BETA_GRID` value maximizing accuracy on the given instances; ties break low."""
    if not instances:
        raise ValueError("sweep_beta: empty validation set")
    labels = np.array([i.label for i in instances])
    o_t = target_logits(target, instances)
    o_e = event_only_logits(event_only, instances)
    best_beta, best_acc = None, -1.0
    # The grid ascends, so keeping only strictly better values breaks ties low.
    for beta in DEFAULT_BETA_GRID:
        acc = float(np.mean(np.argmax(debias(o_t, o_e, DebiasConfig(beta)), axis=1) == labels))
        if acc > best_acc:
            best_beta, best_acc = beta, acc
    return best_beta


# ---------------------------------------------------------------------------
# report output


def report_to_text(report: dict) -> str:
    """Aligned plain-text table of an `evaluate` report."""
    names = [name for name, _ in report["per_class_f1"]]
    width = max([len("class")] + [len(n) for n in names])
    lines = [f"{'class':<{width}}  {'f1':>6}"]
    for name, f1 in report["per_class_f1"]:
        lines.append(f"{name:<{width}}  {f1:6.3f}")
    lines.append("")
    lines.append(f"accuracy  {report['accuracy']:.3f}")
    lines.append(f"n_test    {report['n_test']}")
    lines.append(f"n_events  {report['n_events']}")
    lines.append("")
    lines.append("confusion (rows = true, cols = predicted)")
    cell = max(width, max(len(str(v)) for row in report["confusion"] for v in row))
    header = " " * (width + 2) + "  ".join(f"{n:>{cell}}" for n in names)
    lines.append(header)
    for name, row in zip(names, report["confusion"]):
        lines.append(f"{name:<{width}}  " + "  ".join(f"{v:>{cell}}" for v in row))
    return "\n".join(lines) + "\n"
