"""Flat key=value run configuration shared by every command.

One file, one namespace: every knob of the pipeline (generator, splitter,
trainer, inference, ablation) has a single flat name here, with a declared
type and default.  Files are plain ``key = value`` lines with ``#`` comments.
Anything unknown, duplicated, or ill-typed is rejected up front, so a typo'd
experiment dies before it trains for ten minutes.

The parsed result is a RunConfig, which hands out the per-module dataclasses
(SynthConfig, SplitRatios, Hyperparams, ArchConfig) on demand.
"""

from __future__ import annotations

from dataclasses import replace

from .predictors import ArchConfig, Hyperparams
from .splitter import SplitRatios
from .synthgen import PRESETS, SynthConfig, preset as synth_preset

__all__ = ["ConfigError", "RunConfig", "KNOWN_KEYS", "parse_config", "load_config"]


class ConfigError(Exception):
    """Bad key, bad type, or bad value in a run configuration."""


_MISSING = object()

# key -> (type, default).  A default of None means "unset" and is only legal
# for keys that have an explicit unset meaning (beta: unset == sweep on val).
KNOWN_KEYS: dict[str, tuple[type, object]] = {
    # synthetic generator
    "preset": (str, ""),
    "n_events": (int, 20),
    "instances_per_event": (int, 10),
    "n_classes": (int, 2),
    "feature_dim": (int, 16),
    "bias_strength": (float, 0.5),
    "depth_profile": (str, "mixed"),
    "noise_sigma": (float, 1.0),
    "size_sigma": (float, 0.0),
    "signature_strength": (float, 3.0),
    "class_signal_strength": (float, 1.0),
    "bias_reliability": (float, 0.75),
    "signature_diversity": (float, 0.5),
    "reply_content_fraction": (float, 0.2),
    # splitting
    "split_mode": (str, "separated"),
    "val_fraction": (float, 0.1),
    "train_parts": (float, 3.0),
    "test_parts": (float, 1.0),
    # training
    "alpha": (float, 0.3),
    "epochs": (int, 25),
    "batch_size": (int, 64),
    "lr": (float, 1e-3),
    "hidden_dim": (int, 64),
    "n_layers": (int, 2),
    "pooling": (str, "mean"),
    "proj_dim": (int, 32),
    "num_candidates": (int, 10),
    # inference
    "beta": (float, None),
    # ablation
    "ablate_seeds": (int, 10),
}


def _coerce(key: str, raw: str):
    typ, _default = KNOWN_KEYS[key]
    raw = raw.strip()
    if typ is int:
        try:
            return int(raw, 10)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def parse_config(text: str, source: str = "<config>") -> "RunConfig":
    """Parse flat key=value text into a validated RunConfig."""
    values: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    # Cross-field validity is checked by validate() only after --set overrides
    # are merged, so a bad file value can still be repaired on the command line.
    return RunConfig(values)


def load_config(path) -> "RunConfig":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


class RunConfig:
    """Typed view over the merged key=value mapping."""

    def __init__(self, values: dict[str, object] | None = None):
        self.values = dict(values or {})

    def get(self, key: str):
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        return self.values.get(key, KNOWN_KEYS[key][1])

    def set(self, key: str, raw) -> None:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        if isinstance(raw, str):
            self.values[key] = _coerce(key, raw)
        else:
            self.values[key] = raw

    def apply_overrides(self, pairs) -> None:
        """Apply ``key=value`` strings (from --set flags) over file values."""
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override must look like key=value, got {pair!r}")
            key, raw = (part.strip() for part in pair.split("=", 1))
            self.set(key, raw)

    # ---- per-module views -------------------------------------------------

    def synth_config(self, seed: int) -> SynthConfig:
        name = self.get("preset")
        if name:
            if name not in PRESETS:
                raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
            base = synth_preset(name)
        else:
            base = SynthConfig()
        fields = {
            "n_events", "instances_per_event", "n_classes", "feature_dim",
            "bias_strength", "depth_profile", "noise_sigma", "size_sigma",
            "signature_strength", "class_signal_strength", "bias_reliability",
            "signature_diversity", "reply_content_fraction",
        }
        overrides = {name: self.values[name] for name in fields if name in self.values}
        return replace(base, seed=seed, **overrides)

    def split_ratios(self) -> SplitRatios:
        return SplitRatios(
            val_fraction=float(self.get("val_fraction")),
            train_parts=float(self.get("train_parts")),
            test_parts=float(self.get("test_parts")),
        )

    def hyperparams(self) -> Hyperparams:
        return Hyperparams(
            alpha=float(self.get("alpha")),
            epochs=int(self.get("epochs")),
            batch_size=int(self.get("batch_size")),
            lr=float(self.get("lr")),
        )

    def arch(self) -> ArchConfig:
        return ArchConfig(
            hidden_dim=int(self.get("hidden_dim")),
            n_layers=int(self.get("n_layers")),
            pooling=str(self.get("pooling")),
            proj_dim=int(self.get("proj_dim")),
        )

    def validate(self) -> None:
        """Type- and range-check everything a command could later touch."""
        for key in self.values:
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}")
        if self.get("split_mode") not in ("separated", "mixed"):
            raise ConfigError(
                f"split_mode must be 'separated' or 'mixed', got {self.get('split_mode')!r}"
            )
        beta = self.get("beta")
        if beta is not None and (not isinstance(beta, (int, float)) or beta < 0):
            raise ConfigError(f"beta must be >= 0, got {beta!r}")
        if self.get("ablate_seeds") < 1:
            raise ConfigError(f"ablate_seeds must be >= 1, got {self.get('ablate_seeds')}")
        if self.get("num_candidates") < 1:
            raise ConfigError(f"num_candidates must be >= 1, got {self.get('num_candidates')}")
        try:
            self.synth_config(seed=0).validate()
            self.split_ratios().validate()
            self.hyperparams().validate()
        except ConfigError:
            raise
        except Exception as exc:  # descriptive per-field messages from the dataclasses
            raise ConfigError(str(exc)) from None
        arch = self.arch()
        if arch.hidden_dim < 1 or arch.n_layers < 1 or arch.proj_dim < 1:
            raise ConfigError("hidden_dim, n_layers, and proj_dim must all be >= 1")
        if arch.pooling not in ("mean", "add"):
            raise ConfigError(f"pooling must be 'mean' or 'add', got {arch.pooling!r}")
