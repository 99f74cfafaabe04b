"""Typed values: every key is parsed or type-checked once, and floats are finite."""

import pytest

from fade.config import ConfigError, RunConfig, load_config, parse_config


@pytest.mark.parametrize("line", [
    "train_parts = nan",
    "test_parts = inf",
    "size_sigma = nan",
    "noise_sigma = -inf",
    "alpha = NaN",
    "beta = infinity",
])
def test_non_finite_number_is_rejected_at_parse(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
        parse_config(line)


@pytest.mark.parametrize("key, value", [
    ("epochs", 2.5),
    ("epochs", True),
    ("alpha", True),
    ("alpha", float("nan")),
    ("preset", 3),
    ("pooling", None),
])
def test_set_type_checks_python_values(key, value):
    cfg = RunConfig()
    with pytest.raises(ConfigError, match=f"^{key}: expected"):
        cfg.set(key, value)
    assert key not in cfg.values


def test_set_stores_python_values_as_the_key_type():
    cfg = RunConfig()
    cfg.set("alpha", 1)
    cfg.set("epochs", 3)
    assert cfg.get("alpha") == 1.0 and isinstance(cfg.get("alpha"), float)
    assert cfg.hyperparams().epochs == 3


def test_num_candidates_reaches_hyperparams_and_is_range_checked():
    cfg = parse_config("num_candidates = 3")
    assert cfg.hyperparams().num_candidates == 3
    cfg.set("num_candidates", "0")
    with pytest.raises(ConfigError, match="num_candidates must be >= 1"):
        cfg.validate()


def test_config_file_that_is_not_utf8_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"alpha = 0.1\n\xff = 2\n")
    with pytest.raises(ConfigError, match=f"cannot read config {path}"):
        load_config(path)
