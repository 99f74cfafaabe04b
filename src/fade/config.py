"""Flat key=value run configuration shared by every command.

One file, one namespace: every knob of the pipeline (generator, splitter,
trainer, inference, ablation) has a single flat name here, with a declared
type and default.  Files are plain ``key = value`` lines with ``#`` comments.
Anything unknown, duplicated, ill-typed or non-finite is rejected up front, so
a typo'd experiment dies before it trains for ten minutes.

The parsed result is a RunConfig, which hands out the per-module dataclasses
(SynthConfig, SplitRatios, Hyperparams, ArchConfig) on demand.  Each dataclass
declares its keys' names and defaults, typed by the default, and checks their
ranges in its ``validate``.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .inference import DebiasConfig
from .predictors import ArchConfig, Hyperparams
from .splitter import SplitError, SplitRatios
from .synthgen import SynthConfig, preset

__all__ = ["ConfigError", "RunConfig", "KNOWN_KEYS", "parse_config", "load_config"]


class ConfigError(Exception):
    """Bad key, bad type, or bad value in a run configuration."""


def _field_keys(cls, skip=()) -> dict[str, tuple[type, object]]:
    return {f.name: (type(f.default), f.default) for f in fields(cls) if f.name not in skip}


# key -> (type, default).  A default of None means "unset" and is only legal
# for keys that have an explicit unset meaning (beta: unset == sweep on val).
# Only the keys that no dataclass holds are written out here.
KNOWN_KEYS: dict[str, tuple[type, object]] = {
    "preset": (str, ""),
    **_field_keys(SynthConfig, skip=("seed",)),
    "split_mode": (str, "separated"),
    **_field_keys(SplitRatios),
    **_field_keys(Hyperparams),
    **_field_keys(ArchConfig),
    "beta": (float, None),
    "ablate_seeds": (int, 10),
}


def _coerce(key: str, raw):
    """Parse a string, or type-check a Python value, as ``key``'s type.

    An int key takes only an int, a float key an int or a float, and no key a
    bool.  A float must be finite.
    """
    typ = KNOWN_KEYS[key][0]
    if isinstance(raw, str):
        raw = raw.strip()
        try:
            value = int(raw, 10) if typ is int else typ(raw)
        except ValueError:
            kind = "an integer" if typ is int else "a number"
            raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None
    elif isinstance(raw, bool) or not isinstance(raw, (int, float) if typ is float else typ):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}")
    else:
        value = typ(raw)
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def parse_config(text: str, source: str = "<config>") -> "RunConfig":
    """Parse flat key=value text into a validated RunConfig."""
    cfg = RunConfig()
    # load_config reads with universal newlines; str.splitlines would also
    # break at U+2028, U+2029 and U+0085, which a comment may hold.
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        if key in cfg.values:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        cfg.set(key, raw)
    # Cross-field validity is checked by validate() only after --set overrides
    # are merged, so a bad file value can still be repaired on the command line.
    return cfg


def load_config(path) -> "RunConfig":
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


class RunConfig:
    """Typed view over the merged key=value mapping."""

    def __init__(self):
        self.values: dict[str, object] = {}

    def get(self, key: str):
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        return self.values.get(key, KNOWN_KEYS[key][1])

    def set(self, key: str, raw) -> None:
        """Store ``raw`` under ``key``: a string is parsed, a number type-checked."""
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        self.values[key] = _coerce(key, raw)

    def apply_overrides(self, pairs) -> None:
        """Apply ``key=value`` strings (from --set flags) over file values."""
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override must look like key=value, got {pair!r}")
            key, raw = (part.strip() for part in pair.split("=", 1))
            self.set(key, raw)

    # ---- per-module views -------------------------------------------------

    def synth_config(self, seed: int) -> SynthConfig:
        # Only keys set explicitly override the preset.
        given = {n: self.values[n] for n in _field_keys(SynthConfig) if n in self.values}
        name = self.get("preset")
        try:
            return preset(name, **given, seed=seed) if name else SynthConfig(**given, seed=seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _view(self, cls):
        return cls(**{f.name: self.get(f.name) for f in fields(cls)})

    def split_ratios(self) -> SplitRatios:
        return self._view(SplitRatios)

    def hyperparams(self) -> Hyperparams:
        return self._view(Hyperparams)

    def arch(self) -> ArchConfig:
        return self._view(ArchConfig)

    def validate(self) -> None:
        """Range-check everything a command could later touch."""
        if self.get("split_mode") not in ("separated", "mixed"):
            raise ConfigError(
                f"split_mode must be 'separated' or 'mixed', got {self.get('split_mode')!r}"
            )
        if self.get("ablate_seeds") < 1:
            raise ConfigError(f"ablate_seeds must be >= 1, got {self.get('ablate_seeds')}")
        views = [self.synth_config(seed=0), self.split_ratios(), self.hyperparams(), self.arch()]
        if self.get("beta") is not None:
            views.append(DebiasConfig(beta=self.get("beta")))
        try:
            for view in views:
                view.validate()
        except (ValueError, SplitError) as exc:  # descriptive per-field messages
            raise ConfigError(str(exc)) from None
