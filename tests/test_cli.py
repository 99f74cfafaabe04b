import argparse
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fade.cli as cli
from fade.autodiff import TrainingError
from fade.cli import main
from fade.config import RunConfig
from fade.data import Dataset, load_dataset, save_dataset
from fade.inference import DebiasConfig, evaluate, predict, target_logits
from fade.predictors import load_checkpoint, save_checkpoint, train_event_only, train_target
from fade.splitter import event_mixed_split, event_separated_split, load_manifest
from fade.synthgen import generate

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


def test_gen_synth_report_describes_the_dataset_it_wrote(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(["gen-synth", "--seed", "5", "--out", str(out), "--report", *FAST]) == 0
    wrote, report = capsys.readouterr().out.split("\n", 1)
    assert wrote.startswith("wrote ")
    payload = json.loads(report)
    ds = load_dataset(out)
    assert (payload["n_events"], payload["n_instances"]) == (len(ds.events()), len(ds.instances))


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


def test_train_without_a_validation_split_says_it_kept_the_last_epoch(workspace, tmp_path, capsys):
    manifest = tmp_path / "no_val.json"
    assert main(["split", "--data", workspace["data"], "--seed", "5", "--out", str(manifest),
                 "--set", "val_fraction=0"]) == 0
    capsys.readouterr()
    assert main(["train", "--data", workspace["data"], "--split", str(manifest),
                 "--out", str(tmp_path / "run"), *FAST]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "target       kept the last of 3 epochs: no validation split",
        "event_only   kept the last of 3 epochs: no validation split",
    ]


def test_eval_writes_report_json(workspace, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", workspace["run"], "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "beta" in text and "accuracy" in text and "confusion" in text
    payload = json.loads(out.read_text())
    assert list(payload)[0] == "generated_at"
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["beta_source"] == "sweep"


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


def test_predict_on_an_empty_test_split_exits_3(workspace, tmp_path, capsys):
    payload = json.loads(Path(workspace["manifest"]).read_text(encoding="utf-8"))
    payload["train"] += payload["test"]
    payload["test"] = []
    manifest = tmp_path / "no_test.json"
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["predict", "--data", workspace["data"], "--split", str(manifest),
               "--run", workspace["run"], "--beta", "0"])
    assert rc == 3
    assert capsys.readouterr().err == f"error: manifest {manifest}: the test split is empty\n"


def test_predict_on_an_empty_dataset_exits_3_naming_it(workspace, tmp_path, capsys):
    ds = load_dataset(workspace["data"])
    empty = tmp_path / "empty.jsonl"
    save_dataset(Dataset(ds.class_names, ds.feature_dim, []), empty)
    rc = main(["predict", "--data", str(empty), "--run", workspace["run"], "--beta", "0"])
    assert rc == 3
    assert capsys.readouterr().err == f"error: dataset {empty} is empty\n"


def test_train_on_an_empty_train_split_exits_3_naming_the_manifest(
    workspace, tmp_path, capsys, monkeypatch
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    payload = json.loads(Path(workspace["manifest"]).read_text(encoding="utf-8"))
    payload["test"] += payload["train"]
    payload["train"] = []
    manifest = tmp_path / "no_train.json"
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["train", "--data", workspace["data"], "--split", str(manifest),
               "--out", str(tmp_path / "run"), *FAST])
    assert rc == 3
    assert capsys.readouterr().err == f"error: manifest {manifest}: the train split is empty\n"
    assert not (tmp_path / "run").exists()


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


TINY_ABLATE = ["--set", "n_events=8", "--set", "instances_per_event=5",
               "--set", "epochs=2", "--set", "hidden_dim=8", "--set", "proj_dim=4"]


def test_ablate_pool_matches_serial_loop_and_restores_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    environ = dict(os.environ)
    out = tmp_path / "ab"
    assert main(["ablate", "--out", str(out), "--seeds", "3", *TINY_ABLATE]) == 0
    assert dict(os.environ) == environ
    assert "3 seeds on " in capsys.readouterr().err

    cfg = RunConfig()
    cfg.apply_overrides(TINY_ABLATE[1::2])
    rows = [cli._ablate_one_seed(cfg, seed) for seed in range(3)]
    payload = json.loads((out / "ablation.json").read_text())
    del payload["generated_at"]
    assert payload == {
        "preset": "",
        "seeds": [0, 1, 2],
        "betas": [r["beta"] for r in rows],
        "variants": {
            name: {
                "accuracies": [r[name] for r in rows],
                "mean": float(np.mean([r[name] for r in rows])),
                "std": float(np.std([r[name] for r in rows])),
            }
            for name in cli.ABLATION_VARIANTS
        },
    }


def test_ablate_scores_each_variant_as_eval_does():
    # `ablate` scores each variant through predict and evaluate, as `eval` does.
    # Retrained from the same seeds, the four models score the same both ways.
    # At seed 2 the sweep picks beta > 0, so `full` and `beta0` differ.
    seed = 2
    cfg = RunConfig()
    cfg.apply_overrides(TINY_ABLATE[1::2])
    row = cli._ablate_one_seed(cfg, seed)
    assert row["beta"] > 0

    ds = generate(cfg.synth_config(seed))
    hyper, arch = cfg.hyperparams(), cfg.arch()
    sep = event_separated_split(ds, cfg.split_ratios(), seed)
    mixed = event_mixed_split(ds, cfg.split_ratios(), seed)

    def fit(trainer, split, hyper):
        return trainer(ds, split.train_ids, split.val_ids, hyper, seed=seed, arch=arch)[0]

    target, event_only = fit(train_target, sep, hyper), fit(train_event_only, sep, hyper)
    hyper0 = replace(hyper, alpha=0.0)
    plain, plain_mixed = fit(train_target, sep, hyper0), fit(train_target, mixed, hyper0)

    by_id = ds.by_id()

    def eval_accuracy(model, ids, beta):
        insts = [by_id[i] for i in ids]
        predictions = predict(model, event_only, insts, DebiasConfig(beta=beta))
        return evaluate(predictions, [i.label for i in insts], ds.class_names)["accuracy"]

    assert row["full"] == eval_accuracy(target, sep.test_ids, row["beta"])
    assert row["beta0"] == eval_accuracy(target, sep.test_ids, 0.0)
    assert row["alpha0_beta0"] == eval_accuracy(plain, sep.test_ids, 0.0)
    assert row["event_mixed"] == eval_accuracy(plain_mixed, mixed.test_ids, 0.0)


@pytest.mark.parametrize("override, message", [
    ("beta=0.9", "--set beta: not used here, ablate sweeps beta and runs both split modes"),
    ("split_mode=mixed",
     "--set split_mode: not used here, ablate sweeps beta and runs both split modes"),
    ("val_fraction=0", "val_fraction must be > 0 for ablate: beta is swept on validation events"),
], ids=["beta", "split_mode", "val_fraction"])
def test_ablate_rejects_what_it_cannot_honour_before_any_seed_runs(
    tmp_path, capsys, monkeypatch, override, message
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    # A shared config file may hold the keys that ablate does not read.
    config = tmp_path / "shared.cfg"
    config.write_text("beta = 0.9\nsplit_mode = mixed\n")
    out = tmp_path / "ab"
    argv = ["ablate", "--out", str(out), "--config", str(config), "--set", override]
    assert main([*argv, *TINY_ABLATE]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_ablate_numeric_failure_in_a_worker_exits_4(tmp_path, capsys):
    out = tmp_path / "ab"
    rc = main(["ablate", "--out", str(out), "--seeds", "2", "--set", "lr=1e300", *TINY_ABLATE])
    assert rc == 4
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: non-finite validation logits at epoch 0"
    )
    assert not out.exists()


@pytest.mark.parametrize("val_fraction, message", [
    ("0.1", "error: non-finite validation logits at epoch 0"),
    ("0", "error: non-finite augmentation radius at epoch 1"),
])
def test_diverged_train_exits_4_and_writes_no_checkpoint(tmp_path, capsys, val_fraction, message):
    data, manifest, run = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "run"
    assert main(["gen-synth", "--out", str(data),
                 "--set", "n_events=8", "--set", "instances_per_event=5"]) == 0
    assert main(["split", "--data", str(data), "--out", str(manifest),
                 "--set", f"val_fraction={val_fraction}"]) == 0
    with np.errstate(all="ignore"):  # lr=1e300 overflows the weights on purpose
        rc = main(["train", "--data", str(data), "--split", str(manifest), "--out", str(run),
                   "--set", "lr=1e300", "--set", "epochs=3"])
    assert rc == 4
    assert capsys.readouterr().err.splitlines()[-1] == message
    assert not run.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_diverged_run_prints_only_the_error_line(tmp_path, command):
    # Run as a user would: in a new process, outside the suite's
    # warnings-as-errors filter, so a numpy RuntimeWarning would show on stderr.
    data, manifest = tmp_path / "d.jsonl", tmp_path / "m.json"
    if command == "train":
        assert main(["gen-synth", "--out", str(data),
                     "--set", "n_events=8", "--set", "instances_per_event=5"]) == 0
        assert main(["split", "--data", str(data), "--out", str(manifest)]) == 0
        argv = ["train", "--data", str(data), "--split", str(manifest), "--out",
                str(tmp_path / "run"), "--set", "lr=1e300", "--set", "epochs=3"]
    else:
        argv = ["ablate", "--out", str(tmp_path / "ab"), "--seeds", "2",
                "--set", "lr=1e300", *TINY_ABLATE]
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "fade.cli", *argv], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert result.returncode == 4
    assert result.stderr == "error: non-finite validation logits at epoch 0\n"


@pytest.mark.parametrize("command", ["gen-synth", "eval", "predict"])
def test_a_reader_that_closed_stdout_is_not_an_error(workspace, tmp_path, command):
    # As in `fade predict ... | head -0`.  Without PYTHONUNBUFFERED stdout is
    # block-buffered, so the output is still in the buffer when the command
    # returns.
    data = tmp_path / "d.jsonl"
    run = ["--data", workspace["data"], "--split", workspace["manifest"],
           "--run", workspace["run"], "--beta", "0"]
    argv = {
        "gen-synth": ["gen-synth", "--report", "--out", str(data), *FAST],
        "eval": ["eval", *run],
        "predict": ["predict", *run],
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "fade.cli", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")
    if command == "gen-synth":
        assert len(load_dataset(data).instances) == 12 * 6


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_ablate_bad_out_exits_3_before_any_seed_runs(tmp_path, capsys, monkeypatch, out):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["ablate", "--out", str(tmp_path / out), "--seeds", "2", *TINY_ABLATE]) == 3
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == ""


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_train_bad_out_exits_3_before_training(workspace, tmp_path, capsys, monkeypatch, out):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "train_target", no_training)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["train", "--data", workspace["data"], "--split", workspace["manifest"],
            "--out", str(tmp_path / out), *FAST]
    assert main(argv) == 3
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == ""


def test_train_bad_out_is_reported_before_missing_inputs(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["train", "--data", str(tmp_path / "missing.jsonl"),
            "--split", str(tmp_path / "missing.json"), "--out", str(taken)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: --out {taken}: exists and is not a directory\n"


def test_train_worker_matches_serial_trainers(workspace):
    cfg = RunConfig()
    cfg.apply_overrides(FAST[1::2])
    ds = load_dataset(workspace["data"])
    manifest = load_manifest(workspace["manifest"], ds)
    fits = {
        "target": train_target(ds, manifest.train_ids, manifest.val_ids, cfg.hyperparams(),
                               seed=5, arch=cfg.arch()),
        "event_only": train_event_only(ds, manifest.train_ids, manifest.val_ids,
                                       cfg.hyperparams(), seed=5, arch=cfg.arch()),
    }
    run = Path(workspace["run"])
    log = json.loads((run / "log.json").read_text())
    for name, (params, rows) in fits.items():
        saved = load_checkpoint(run / f"{name}.ckpt").tensors
        expected = params.tensors
        assert list(saved) == list(expected), name
        for key, tensor in expected.items():
            assert np.array_equal(saved[key], tensor), key
        assert log[name] == rows, name


@pytest.mark.parametrize("command, expected", [
    ("train", [("load",), ("pool", "fork"), ("fork", 1)]),
    ("ablate", [("pool", "fork"), ("fork", 1)]),
])
def test_train_and_ablate_fork_their_workers_from_the_loaded_parent(
    workspace, tmp_path, monkeypatch, command, expected
):
    # `train` reads its inputs once, and only then forks its worker, which
    # shares them.  No other thread is alive at any fork, so there is nothing
    # for Python 3.12+ to warn about under the suite's warnings-as-errors filter.
    import concurrent.futures

    events = []
    pool, load, fork = concurrent.futures.ProcessPoolExecutor, cli.load_dataset, os.fork

    def recording_pool(workers, mp_context, **kwargs):
        events.append(("pool", mp_context.get_start_method()))
        return pool(workers, mp_context=mp_context, **kwargs)

    def counting_load(path):
        events.append(("load",))
        return load(path)

    def recording_fork():
        events.append(("fork", threading.active_count()))
        return fork()

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(cli, "load_dataset", counting_load)
    monkeypatch.setattr(os, "fork", recording_fork)
    if command == "train":
        argv = ["train", "--data", workspace["data"], "--split", workspace["manifest"],
                "--seed", "5", "--out", str(tmp_path / "run"), *FAST]
    else:
        argv = ["ablate", "--out", str(tmp_path / "ab"), "--seeds", "1", *TINY_ABLATE]
    assert main(argv) == 0
    assert events == expected


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_train_bytes_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # The full 25 epochs on t15-like: with fewer, two BLAS threads happened to
    # round the same as one.  Each child's environment is built here, because
    # importing fade has already pinned this process's own.
    data, manifest = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert main(["gen-synth", "--preset", "t15-like", "--bias", "0.8", "--out", str(data)]) == 0
    assert main(["split", "--data", str(data), "--out", str(manifest)]) == 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in (None, "1", "2"):
        run = tmp_path / f"run-{threads}"
        pinned = {} if threads is None else dict.fromkeys(BLAS_THREAD_VARS, threads)
        subprocess.run([sys.executable, "-m", "fade.cli", "train", "--data", str(data),
                        "--split", str(manifest), "--out", str(run)],
                       env=dict(env, **pinned), capture_output=True, check=True, timeout=300)
        log = json.loads((run / "log.json").read_text())
        del log["generated_at"]
        outputs.append(((run / "target.ckpt").read_bytes(),
                        (run / "event_only.ckpt").read_bytes(), log))
    assert outputs[0] == outputs[1] == outputs[2]


def test_importing_cli_loads_no_process_pool_modules():
    # `import fade.cli` is paid by every command; the pool's modules load only
    # when `fade ablate` runs.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, fade.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.strip() == "[]"


def test_importing_cli_loads_no_openssl():
    # `secrets` and `hashlib` load OpenSSL's libcrypto into every command;
    # nothing in `fade` hashes.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, fade.cli; print('_hashlib' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("key", cli.SPLIT_KEYS)
@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_split_key_override_on_manifest_command_exits_2(workspace, tmp_path, capsys, command, key):
    argv = [command, "--data", workspace["data"], "--split", workspace["manifest"],
            "--set", f"{key}=0", "--out", str(tmp_path / "out")]
    if command != "train":
        argv += ["--run", workspace["run"]]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --set {key}: not used here, the split comes from the manifest\n"
    )
    assert not (tmp_path / "out").exists()


def test_split_keys_in_a_config_file_are_accepted(workspace, tmp_path, capsys):
    config = tmp_path / "shared.cfg"
    config.write_text("split_mode = mixed\nval_fraction = 0\n")
    rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", workspace["run"], "--config", str(config), "--beta", "0"])
    assert rc == 0


def test_train_with_add_pooling_exits_2_naming_pooling(workspace, tmp_path, capsys):
    rc = main(["train", "--data", workspace["data"], "--split", workspace["manifest"],
               "--out", str(tmp_path / "run"), "--set", "pooling=add"])
    assert rc == 2
    assert capsys.readouterr().err == "error: pooling must be one of ('mean',), got 'add'\n"
    assert not (tmp_path / "run").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    rc = main(["gen-synth", "--out", str(tmp_path / "x.jsonl"), "--set", "nope=1"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.fixture(scope="module")
def misfits(tmp_path_factory):
    """A run trained on t15-like data (32 features, 4 classes) and datasets it does not fit."""
    root = tmp_path_factory.mktemp("misfit")
    t15 = ["--preset", "t15-like", *FAST]
    for name, key in (("fit", "feature_dim=32"), ("16-features", "feature_dim=16"),
                      ("2-classes", "n_classes=2"), ("6-classes", "n_classes=6")):
        data = str(root / f"{name}.jsonl")
        assert main(["gen-synth", *t15, "--set", key, "--out", data]) == 0
        assert main(["split", "--data", data, "--out", str(root / f"{name}.json")]) == 0
    assert main(["train", "--data", str(root / "fit.jsonl"), "--split", str(root / "fit.json"),
                 "--out", str(root / "run"), *FAST]) == 0
    return root


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("name, features, classes", [
    ("16-features", 16, 4), ("2-classes", 32, 2), ("6-classes", 32, 6),
])
def test_run_that_does_not_fit_the_dataset_exits_3_naming_both(
    misfits, capsys, command, name, features, classes
):
    data = misfits / f"{name}.jsonl"
    rc = main([command, "--data", str(data), "--split", str(misfits / f"{name}.json"),
               "--run", str(misfits / "run"), "--beta", "0.5"])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {misfits / 'run' / 'target.ckpt'} takes 32 features and 4 classes, "
        f"but {data} has {features} features and {classes} classes\n"
    )


def test_missing_data_file_exits_3(tmp_path, capsys):
    rc = main(["split", "--data", str(tmp_path / "missing.jsonl"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_corrupt_checkpoint_exits_3(workspace, tmp_path, capsys):
    blob = (workspace["root"] / "run" / "target.ckpt").read_bytes()
    target = load_checkpoint(workspace["root"] / "run" / "target.ckpt")
    # A well-formed archive holding the removed `add` pooling.
    add_pooling = io.BytesIO()
    np.savez(add_pooling, kind="target", pooling="add", **target.tensors)
    # A well-formed archive whose classifier weight is NaN, which training never writes.
    nan = np.full_like(target.tensors["classifier.weight"], np.nan)
    nan_weight = replace(target, tensors={**target.tensors, "classifier.weight": nan})
    save_checkpoint(nan_weight, tmp_path / "nan_weight.ckpt")
    # A well-formed archive whose classifier bias has one class fewer than its weight.
    target.tensors["classifier.bias"] = target.tensors["classifier.bias"][:, 1:]
    save_checkpoint(target, tmp_path / "short_bias.ckpt")
    # The first byte of classifier.weight's data, after its .npy header line.
    data_byte = blob.index(b"\n", blob.index(b"NUMPY", blob.index(b"classifier.weight"))) + 1
    inputs = [
        b"not a checkpoint",
        blob[: len(blob) // 2],
        blob[:data_byte] + bytes([blob[data_byte] ^ 0x01]) + blob[data_byte + 1 :],
        b"FADE" + (1).to_bytes(4, "little") + blob[8:],
        (tmp_path / "short_bias.ckpt").read_bytes(),
        add_pooling.getvalue(),
        (tmp_path / "nan_weight.ckpt").read_bytes(),
    ]
    for n, bad_blob in enumerate(inputs):
        bad = tmp_path / f"badrun{n}"
        bad.mkdir()
        (bad / "target.ckpt").write_bytes(bad_blob)
        (bad / "event_only.ckpt").write_bytes(bad_blob)
        rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
                   "--run", str(bad), "--beta", "0"])
        assert rc == 3, n
        assert str(bad / "target.ckpt") in capsys.readouterr().err


def test_run_with_swapped_checkpoints_exits_3_naming_the_file(workspace, tmp_path, capsys):
    swapped = tmp_path / "swapped"
    swapped.mkdir()
    run = Path(workspace["run"])
    (swapped / "target.ckpt").write_bytes((run / "event_only.ckpt").read_bytes())
    (swapped / "event_only.ckpt").write_bytes((run / "target.ckpt").read_bytes())
    rc = main(["eval", "--data", workspace["data"], "--split", workspace["manifest"],
               "--run", str(swapped), "--beta", "0"])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {swapped / 'target.ckpt'} does not hold target predictor weights\n"
    )


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


@pytest.mark.parametrize("mode", ["separated", "mixed"])
def test_too_few_events_exits_3(tmp_path, capsys, mode):
    data = tmp_path / "tiny.jsonl"
    assert main(["gen-synth", "--set", "n_events=2", "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["split", "--data", str(data), "--mode", mode, "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: dataset {data}: need at least 3 distinct events, got 2\n"
    )


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


@pytest.mark.parametrize("command, key, value", [
    ("split", "train_parts", "nan"),
    ("split", "train_parts", "inf"),
    ("split", "test_parts", "inf"),
    ("gen-synth", "size_sigma", "nan"),
    ("gen-synth", "noise_sigma", "nan"),
    ("gen-synth", "signature_diversity", "inf"),
])
def test_non_finite_config_value_exits_2(workspace, tmp_path, capsys, command, key, value):
    argv = [command, "--set", f"{key}={value}", "--out", str(tmp_path / "out")]
    if command == "split":
        argv += ["--data", workspace["data"]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {key}: expected a finite number, got {value!r}\n"
    assert not (tmp_path / "out").exists()


def test_invalid_dataset_exits_3_naming_the_file(workspace, tmp_path, capsys):
    header, first, *rest = Path(workspace["data"]).read_text(encoding="utf-8").splitlines()
    rec = json.loads(first)
    rec["x"] = [row[:-1] for row in rec["x"]]
    bad = tmp_path / "short.jsonl"
    bad.write_text("\n".join([header, json.dumps(rec), *rest]) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(bad), "--split", workspace["manifest"],
               "--out", str(tmp_path / "z"), *FAST])
    assert rc == 3
    dim = len(rec["x"][0]) + 1
    assert capsys.readouterr().err == (
        f"error: {bad}: instance {rec['id']!r}: feature dim {dim - 1} != dataset dim {dim}\n"
    )


def test_manifest_listing_an_id_twice_exits_3_naming_the_file(workspace, tmp_path, capsys):
    payload = json.loads(Path(workspace["manifest"]).read_text(encoding="utf-8"))
    payload["test"].append(payload["train"][0])
    manifest = tmp_path / "twice.json"
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["train", "--data", workspace["data"], "--split", str(manifest),
               "--out", str(tmp_path / "z"), *FAST])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: manifest {manifest}: manifest assigns some instance twice\n"
    )


@pytest.mark.parametrize("command, required", [
    ("gen-synth", []),
    ("split", ["--data", "d.jsonl"]),
    ("train", ["--data", "d.jsonl", "--split", "m.json"]),
])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command, required):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, required", [
    ("eval", ["--data", "d.jsonl", "--split", "m.json", "--run", "run"]),
    ("predict", ["--data", "d.jsonl", "--run", "run"]),
    ("ablate", TINY_ABLATE),
])
def test_seed_is_rejected_where_no_seed_is_read(tmp_path, capsys, command, required):
    # Abbreviations are off: otherwise `ablate --seed 3` would run `--seeds 3`.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--seed", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_bad_beta_exits_2_before_any_input_is_read(tmp_path, capsys, command):
    argv = [command, "--data", str(tmp_path / "missing.jsonl"), "--run", str(tmp_path / "run"),
            "--split", str(tmp_path / "missing.json"), "--beta", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: beta must be finite and >= 0, got -1.0\n"


@pytest.mark.parametrize("argv, message", [
    (["gen-synth", "--bias", "abc"], "bias_strength: expected a number, got 'abc'"),
    (["gen-synth", "--preset", "nope"], "unknown preset 'nope'; available: ['t15-like']"),
    (["split", "--data", "d.jsonl", "--mode", "random"],
     "split_mode must be 'separated' or 'mixed', got 'random'"),
    (["eval", "--data", "d.jsonl", "--split", "m.json", "--run", "run", "--beta", "nan"],
     "beta: expected a finite number, got 'nan'"),
    (["ablate", "--seeds", "2.5"], "ablate_seeds: expected an integer, got '2.5'"),
    (["ablate", "--seeds", "0"], "ablate_seeds must be >= 1, got 0"),
    (["ablate", "--set", "preset=nope"], "unknown preset 'nope'; available: ['t15-like']"),
])
def test_config_key_flags_are_checked_like_set(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_each_command_offers_only_the_flags_it_reads():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    common = ["-h", "--help", "--config", "--set"]
    expected = {
        "gen-synth": ["--seed", "--preset", "--bias", "--out", "--report"],
        "split": ["--seed", "--data", "--mode", "--out"],
        "train": ["--seed", "--data", "--split", "--out"],
        "eval": ["--data", "--split", "--run", "--beta", "--out"],
        "predict": ["--data", "--split", "--run", "--beta", "--out"],
        "ablate": ["--out", "--seeds"],
    }
    offered = {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert offered == {name: sorted(common + flags) for name, flags in expected.items()}
    assert not any(p.allow_abbrev for p in [parser, *sub.choices.values()])
