import pytest

from fade.config import KNOWN_KEYS, ConfigError, RunConfig, load_config, parse_config
from fade.synthgen import PRESETS


def test_defaults_round_trip_through_empty_config():
    cfg = parse_config("")
    for key, (_, default) in KNOWN_KEYS.items():
        assert cfg.get(key) == default


def test_comments_blanks_and_whitespace_are_tolerated():
    cfg = parse_config(
        """
        # a comment
          n_events = 7   # trailing comment

        alpha=0.5
        """
    )
    assert cfg.get("n_events") == 7
    assert cfg.get("alpha") == 0.5


def test_unknown_key_is_rejected_with_location():
    with pytest.raises(ConfigError, match=r"<config>:1: unknown key 'n_event'"):
        parse_config("n_event = 7")


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("alpha = 0.1\nalpha = 0.2")


def test_int_key_rejects_float_literal():
    with pytest.raises(ConfigError, match="n_events"):
        parse_config("n_events = 3.5")


def test_float_key_accepts_int_literal():
    cfg = parse_config("alpha = 1")
    assert cfg.get("alpha") == 1.0
    assert isinstance(cfg.get("alpha"), float)


def test_malformed_line_is_rejected():
    with pytest.raises(ConfigError, match=":1:"):
        parse_config("just some words")


def test_overrides_beat_file_values():
    cfg = parse_config("alpha = 0.1\nepochs = 9")
    cfg.apply_overrides(["alpha=0.7"])
    assert cfg.get("alpha") == 0.7
    assert cfg.get("epochs") == 9


def test_override_without_equals_sign_is_rejected():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="key=value"):
        cfg.apply_overrides(["alpha0.7"])


def test_get_unknown_key_raises():
    with pytest.raises(ConfigError):
        RunConfig().get("nope")


def test_preset_fills_synth_fields_but_explicit_keys_win():
    cfg = parse_config("preset = t15-like\nn_classes = 2")
    synth = cfg.synth_config(seed=3)
    assert synth.n_events == PRESETS["t15-like"].n_events
    assert synth.n_classes == 2  # explicit key overrides the preset
    assert synth.seed == 3


def test_unknown_preset_is_a_config_error():
    cfg = parse_config("preset = t99-like")
    with pytest.raises(ConfigError, match="preset"):
        cfg.validate()


def test_beta_unset_by_default_and_settable():
    cfg = RunConfig()
    assert cfg.get("beta") is None
    cfg.set("beta", "0.4")
    assert cfg.get("beta") == 0.4


def test_validate_rejects_bad_values():
    for line in (
        "split_mode = diagonal",
        "beta = -0.5",
        "ablate_seeds = 0",
        "pooling = max",
        "lr = 0",
        "val_fraction = 1.5",
    ):
        cfg = parse_config(line)
        with pytest.raises(ConfigError):
            cfg.validate()


def test_validate_passes_on_defaults_and_preset():
    parse_config("").validate()
    parse_config("preset = t15-like\nbias_strength = 0.8").validate()


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 3\npreset = t15-like\n")
    cfg = load_config(path)
    assert cfg.get("epochs") == 3
    assert cfg.hyperparams().epochs == 3


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
def test_unicode_line_separators_in_a_comment_do_not_end_the_line(tmp_path, char):
    path = tmp_path / "u.cfg"
    path.write_text(f"alpha = 0.3  # a{char}note\nepochs = 3\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.get("alpha"), cfg.get("epochs")) == (0.3, 3)
    path.write_text(f"alpha = 0.3  # a{char}note\nbogus\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2: expected 'key = value', got 'bogus'"):
        load_config(path)


@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_lone_cr_end_a_config_line(tmp_path, eol):
    path = tmp_path / "run.cfg"
    path.write_bytes(f"alpha = 0.3{eol}# note{eol}epochs = 3{eol}".encode())
    cfg = load_config(path)
    assert (cfg.get("alpha"), cfg.get("epochs")) == (0.3, 3)
    path.write_bytes(f"alpha = 0.3{eol}# note{eol}bogus{eol}".encode())
    with pytest.raises(ConfigError, match=":3: expected 'key = value', got 'bogus'"):
        load_config(path)


def test_sub_config_builders_reflect_keys():
    cfg = parse_config(
        "alpha = 0.0\nepochs = 2\nbatch_size = 16\nlr = 0.01\n"
        "hidden_dim = 8\nn_layers = 3\nproj_dim = 4\n"
        "val_fraction = 0.2\ntrain_parts = 2\ntest_parts = 1"
    )
    hyper = cfg.hyperparams()
    assert (hyper.alpha, hyper.epochs, hyper.batch_size, hyper.lr) == (0.0, 2, 16, 0.01)
    arch = cfg.arch()
    assert (arch.hidden_dim, arch.n_layers, arch.proj_dim) == (8, 3, 4)
    ratios = cfg.split_ratios()
    assert ratios.val_fraction == 0.2
    assert ratios.train_parts == 2.0
