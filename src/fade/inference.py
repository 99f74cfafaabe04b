"""Debiased prediction and evaluation.

The final decision rule subtracts a scaled copy of the event-only
predictor's logits from the target predictor's logits, removing the score
mass both models attribute to the event rather than the content.  Event
grouping at test time is transductive: all evaluation instances of an
event are pooled together before the event-only pass.
"""

from __future__ import annotations

import json
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
    "EvalReport",
    "debias",
    "target_logits",
    "event_only_logits",
    "predict",
    "evaluate",
    "sweep_beta",
    "report_to_json",
    "report_to_text",
    "f1_bar_chart_svg",
]

DEFAULT_BETA_GRID = tuple(round(0.1 * k, 1) for k in range(11))


@dataclass
class DebiasConfig:
    """Strength of the event-logit subtraction."""

    beta: float = 0.0

    def validate(self) -> None:
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass
class EvalReport:
    accuracy: float
    per_class_f1: list[tuple[str, float]]
    confusion: np.ndarray  # [true, predicted] counts
    n_test: int
    n_events: int


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


def evaluate(predictions, labels, class_names: list[str], events=None) -> EvalReport:
    """Accuracy, one-vs-rest F1 per class, and the confusion matrix.

    A class with no true instances and no predictions gets F1 = 0.
    ``events`` (optional, aligned with predictions) only feeds the distinct
    event count in the report.
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
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for t, p in zip(labels, predictions):
        confusion[t, p] += 1
    per_class_f1 = []
    for c, name in enumerate(class_names):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        per_class_f1.append((name, 2.0 * tp / denom if denom else 0.0))
    n_events = len(set(events)) if events is not None else 0
    return EvalReport(
        accuracy=float(np.trace(confusion)) / n,
        per_class_f1=per_class_f1,
        confusion=confusion,
        n_test=n,
        n_events=n_events,
    )


def sweep_beta(
    target: TargetPredictorParams,
    event_only: EventOnlyPredictorParams,
    instances: list[NewsInstance],
    grid=DEFAULT_BETA_GRID,
) -> float:
    """Grid value maximizing accuracy on the given instances; ties break low."""
    grid = sorted(float(b) for b in grid)
    if not grid:
        raise ValueError("sweep_beta: empty grid")
    if not instances:
        raise ValueError("sweep_beta: empty validation set")
    labels = np.array([i.label for i in instances])
    o_t = target_logits(target, instances)
    o_e = event_only_logits(event_only, instances)
    best_beta, best_acc = grid[0], -1.0
    for beta in grid:
        acc = float(np.mean(np.argmax(o_t - beta * o_e, axis=1) == labels))
        if acc > best_acc:
            best_beta, best_acc = beta, acc
    return best_beta


# ---------------------------------------------------------------------------
# report output


def report_to_json(report: EvalReport) -> str:
    """Deterministic JSON rendering (no timestamps; key order fixed)."""
    payload = {
        "accuracy": report.accuracy,
        "per_class_f1": [[name, f1] for name, f1 in report.per_class_f1],
        "confusion": report.confusion.tolist(),
        "n_test": report.n_test,
        "n_events": report.n_events,
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(report: EvalReport) -> str:
    """Aligned plain-text table of the report."""
    names = [name for name, _ in report.per_class_f1]
    width = max([len("class")] + [len(n) for n in names])
    lines = [f"{'class':<{width}}  {'f1':>6}"]
    for name, f1 in report.per_class_f1:
        lines.append(f"{name:<{width}}  {f1:6.3f}")
    lines.append("")
    lines.append(f"accuracy  {report.accuracy:.3f}")
    lines.append(f"n_test    {report.n_test}")
    lines.append(f"n_events  {report.n_events}")
    lines.append("")
    lines.append("confusion (rows = true, cols = predicted)")
    cell = max(width, max(len(str(v)) for v in report.confusion.ravel()))
    header = " " * (width + 2) + "  ".join(f"{n:>{cell}}" for n in names)
    lines.append(header)
    for name, row in zip(names, report.confusion):
        lines.append(f"{name:<{width}}  " + "  ".join(f"{v:>{cell}}" for v in row))
    return "\n".join(lines) + "\n"


def f1_bar_chart_svg(report: EvalReport) -> str:
    """Self-contained SVG bar chart of per-class F1 (deterministic bytes)."""
    bar_w, gap, left, top, plot_h = 60, 30, 50, 20, 200
    n = len(report.per_class_f1)
    width = left + n * (bar_w + gap) + gap
    height = top + plot_h + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - gap}" y2="{top + plot_h}" '
        'stroke="black"/>',
    ]
    for tick in (0.0, 0.5, 1.0):
        y = top + plot_h - int(round(tick * plot_h))
        parts.append(
            f'<text x="{left - 8}" y="{y + 4}" font-size="11" text-anchor="end">{tick:.1f}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{y}" x2="{left}" y2="{y}" stroke="black"/>'
        )
    for i, (name, f1) in enumerate(report.per_class_f1):
        h = int(round(f1 * plot_h))
        x = left + gap + i * (bar_w + gap)
        y = top + plot_h - h
        parts.append(f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" fill="#4477aa"/>')
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{top + plot_h + 16}" font-size="12" '
            f'text-anchor="middle">{name}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{y - 4}" font-size="11" '
            f'text-anchor="middle">{f1:.3f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
