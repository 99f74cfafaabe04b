import json
from pathlib import Path

import numpy as np
import pytest

import fade.cli as cli
from fade.autodiff import TrainingError
from fade.cli import main
from fade.data import load_dataset
from fade.inference import target_logits
from fade.predictors import load_checkpoint
from fade.splitter import load_manifest

# Small-but-real pipeline knobs: 2 classes, 12 events, 3 epochs.
FAST = [
    "--set", "n_events=12",
    "--set", "instances_per_event=6",
    "--set", "epochs=3",
    "--set", "hidden_dim=16",
    "--set", "proj_dim=8",
    "--set", "batch_size=32",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset, one split, one trained run, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "data": str(root / "d.jsonl"),
        "manifest": str(root / "m.json"),
        "run": str(root / "run"),
        "root": root,
    }
    assert main(["gen-synth", "--seed", "5", "--out", paths["data"], *FAST]) == 0
    assert main(["split", "--data", paths["data"], "--seed", "5",
                 "--out", paths["manifest"], *FAST]) == 0
    assert main(["train", "--data", paths["data"], "--split", paths["manifest"],
                 "--seed", "5", "--out", paths["run"], *FAST]) == 0
    return paths


def test_gen_synth_output_loads_and_matches_config(workspace):
    ds = load_dataset(workspace["data"])
    assert len(ds.events()) == 12
    assert len(ds.instances) == 12 * 6


def test_gen_synth_preset_flag_with_explicit_override(tmp_path, capsys):
    out = tmp_path / "p.jsonl"
    rc = main(["gen-synth", "--preset", "t15-like", "--bias", "0.9",
               "--set", "n_events=4", "--out", str(out)])
    assert rc == 0
    ds = load_dataset(out)
    # preset supplies the shape (4 classes), the explicit key wins for n_events
    assert len(ds.events()) == 4
    assert len(ds.class_names) == 4


def test_split_manifest_schema_and_separation(workspace):
    payload = json.loads(Path(workspace["manifest"]).read_text(encoding="utf-8"))
    assert set(payload) == {"seed", "train", "val", "test"}
    ds = load_dataset(workspace["data"])
    manifest = load_manifest(workspace["manifest"], ds)
    manifest.assert_valid(ds, event_separated=True)


def test_train_writes_checkpoints_and_log(workspace):
    run = workspace["root"] / "run"
    assert (run / "target.ckpt").exists()
    assert (run / "event_only.ckpt").exists()
    log = json.loads((run / "log.json").read_text())
    assert list(log)[0] == "generated_at"
    for section in ("target", "event_only"):
        rows = log[section]
        assert len(rows) == 3
        assert set(rows[0]) == {"epoch", "loss_ce", "loss_cl", "loss_total", "val_acc"}


def test_eval_writes_report_json_and_svg(workspace, tmp_path, capsys):
    out = tmp_path / "r.json"
    svg = tmp_path / "f1.svg"
    rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", workspace["run"], "--out", str(out), "--plot", str(svg)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "beta" in text and "accuracy" in text and "confusion" in text
    payload = json.loads(out.read_text())
    assert list(payload)[0] == "generated_at"
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["beta_source"] == "sweep"
    assert svg.read_text().startswith("<svg")


def test_eval_beta_zero_equals_target_only_accuracy(workspace, tmp_path, capsys):
    out = tmp_path / "r0.json"
    rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", workspace["run"], "--beta", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["beta_source"] == "flag"

    ds = load_dataset(workspace["data"])
    manifest = load_manifest(workspace["manifest"], ds)
    by_id = ds.by_id()
    test = [by_id[i] for i in manifest.test_ids]
    target = load_checkpoint(workspace["root"] / "run" / "target.ckpt")
    preds = np.argmax(target_logits(target, test), axis=1)
    acc = float(np.mean(preds == np.array([i.label for i in test])))
    assert payload["accuracy"] == pytest.approx(acc, abs=1e-12)


def test_beta_flag_beats_config_value(workspace, tmp_path):
    out = tmp_path / "rb.json"
    rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", workspace["run"], "--beta", "0.2", "--set", "beta=0.9",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["beta"] == 0.2
    assert payload["beta_source"] == "flag"


def test_predict_stdout_lists_every_test_instance(workspace, capsys):
    rc = main(["predict", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", workspace["run"], "--beta", "0.5"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    manifest = json.loads(Path(workspace["manifest"]).read_text(encoding="utf-8"))
    assert len(lines) == len(manifest["test"])
    assert all("\t" in l for l in lines)


def test_predict_json_without_split_covers_dataset(workspace, tmp_path, capsys):
    out = tmp_path / "p.json"
    rc = main(["predict", "--data", workspace["data"], "--run", workspace["run"],
               "--beta", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    ds = load_dataset(workspace["data"])
    assert len(payload["predictions"]) == len(ds.instances)
    names = set(ds.class_names)
    assert all(row["prediction"] in names for row in payload["predictions"])


def test_predict_without_beta_or_split_is_a_config_error(workspace, capsys):
    rc = main(["predict", "--data", workspace["data"], "--run", workspace["run"]])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_repeated_commands_are_deterministic(workspace, tmp_path, capsys):
    run2 = tmp_path / "run2"
    rc = main(["train", "--data", workspace["data"], "--split", workspace["manifest"],
               "--seed", "5", "--out", str(run2), *FAST])
    assert rc == 0
    run1 = workspace["root"] / "run"
    assert (run1 / "target.ckpt").read_bytes() == (run2 / "target.ckpt").read_bytes()
    assert (run1 / "event_only.ckpt").read_bytes() == (run2 / "event_only.ckpt").read_bytes()
    log1 = json.loads((run1 / "log.json").read_text())
    log2 = json.loads((run2 / "log.json").read_text())
    log1.pop("generated_at"), log2.pop("generated_at")
    assert log1 == log2


def test_ablate_writes_expected_variants(tmp_path, capsys):
    out = tmp_path / "ab"
    rc = main(["ablate", "--out", str(out), "--seeds", "2",
               "--set", "n_events=8", "--set", "instances_per_event=5",
               "--set", "epochs=2", "--set", "hidden_dim=8", "--set", "proj_dim=4"])
    assert rc == 0
    payload = json.loads((out / "ablation.json").read_text())
    assert list(payload["variants"]) == ["full", "beta0", "alpha0_beta0", "event_mixed"]
    for stats in payload["variants"].values():
        assert len(stats["accuracies"]) == 2
        assert 0.0 <= stats["mean"] <= 1.0
    assert len(payload["betas"]) == 2
    table = capsys.readouterr().out
    order = [table.index(v) for v in ("full", "beta0", "alpha0_beta0", "event_mixed")]
    assert order == sorted(order)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    rc = main(["gen-synth", "--out", str(tmp_path / "x.jsonl"), "--set", "nope=1"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_data_file_exits_3(tmp_path, capsys):
    rc = main(["split", "--data", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_corrupt_checkpoint_exits_3(workspace, tmp_path, capsys):
    inputs = [b"not a checkpoint"]
    # A high bit in the first name length or row count, a 0xff name byte.
    for offset, bits in ((15, 0x80), (43, 0x80), (16, 0xFF)):
        blob = bytearray((workspace["root"] / "run" / "target.ckpt").read_bytes())
        blob[offset] |= bits
        inputs.append(bytes(blob))
    for n, blob in enumerate(inputs):
        bad = tmp_path / f"badrun{n}"
        bad.mkdir()
        (bad / "target.ckpt").write_bytes(blob)
        (bad / "event_only.ckpt").write_bytes(blob)
        rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
                   "--run", str(bad), "--beta", "0"])
        assert rc == 3, n
        assert str(bad / "target.ckpt") in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    ("[]", "object"),
    ('{"seed": 0, "train": 5, "val": [], "test": []}', "'train'"),
    ('{"seed": 0, "train": [[1]], "val": [], "test": []}', "'train'"),
    ('{"seed": 0, "train": [], "val": [], "test": [3]}', "'test'"),
    ('{"seed": "0", "train": [], "val": [], "test": []}', "'seed'"),
    ('{"seed": 0, "train": []', "JSON"),
])
def test_malformed_manifest_exits_3_naming_file_and_field(workspace, tmp_path, capsys, text, field):
    manifest = tmp_path / "m.json"
    manifest.write_text(text)
    rc = main(["train", "--data", workspace["data"], "--split", str(manifest),
               "--out", str(tmp_path / "z"), *FAST])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(manifest) in err and field in err


def test_too_few_events_exits_3(tmp_path, capsys):
    data = tmp_path / "tiny.jsonl"
    assert main(["gen-synth", "--set", "n_events=2", "--out", str(data)]) == 0
    rc = main(["split", "--data", str(data), "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_invalid_hyperparameter_exits_2(workspace, tmp_path, capsys):
    rc = main(["train", "--data", workspace["data"], "--split", workspace["manifest"],
               "--out", str(tmp_path / "z"), "--set", "lr=-1"])
    assert rc == 2


def test_numeric_failure_exits_4(workspace, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise TrainingError("non-finite loss at epoch 0 batch 0")

    monkeypatch.setattr(cli, "train_target", boom)
    rc = main(["train", "--data", workspace["data"], "--split", workspace["manifest"],
               "--out", str(tmp_path / "z"), *FAST])
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err
