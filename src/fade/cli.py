"""Command-line front end: generate, split, train, eval, predict, ablate.

Every command takes ``--config`` (key=value file) plus repeatable ``--set``
overrides, resolves a RunConfig up front, and fails fast with a typed exit
code: 2 for configuration problems, 3 for data/file problems, 4 for numeric
failures during training or inference.

JSON artifacts are deterministic for a fixed seed/config/input; the only
varying field is ``generated_at``, which is kept separate from the payload
proper so byte-comparisons can exclude it by dropping one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .autodiff import ShapeError, TrainingError
from .config import ConfigError, RunConfig, load_config
from .data import DatasetError, atomic_write, load_dataset, save_dataset
from .inference import (
    DebiasConfig,
    evaluate,
    f1_bar_chart_svg,
    predict,
    report_to_json,
    report_to_text,
    sweep_beta,
)
from .predictors import (
    CheckpointError,
    EventOnlyPredictorParams,
    TargetPredictorParams,
    load_checkpoint,
    save_checkpoint,
    train_event_only,
    train_target,
)
from .splitter import (
    SplitError,
    event_mixed_split,
    event_separated_split,
    load_manifest,
    save_manifest,
)
from .synthgen import bias_report, generate

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ABLATION_VARIANTS = ("full", "beta0", "alpha0_beta0", "event_mixed")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(path, text: str) -> None:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(p) as fh:
        fh.write(text)


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


# Keys that only `split` reads.  The commands that read a manifest reject them
# on the command line, where they would otherwise be ignored silently; config
# files are shared across commands and may hold them.
SPLIT_KEYS = ("split_mode", "val_fraction", "train_parts", "test_parts")


def _build_config(args, reads_manifest: bool = False) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg.apply_overrides(args.set)
    if reads_manifest:
        for pair in args.set:
            key = pair.split("=", 1)[0].strip()
            if key in SPLIT_KEYS:
                raise ConfigError(f"--set {key}: not used here, the split comes from the manifest")
    return cfg


def _load_inputs(data_path, split_path, require_manifest=True):
    """Dataset plus manifest, with coverage checked against the dataset."""
    ds = load_dataset(data_path)
    manifest = None
    if split_path is not None:
        manifest = load_manifest(split_path, ds)
        # Coverage/disjointness only: mixed manifests are legal inputs here,
        # so event separation is not asserted at this layer.
        try:
            manifest.assert_valid(ds, event_separated=False)
        except SplitError as e:
            raise SplitError(f"manifest {split_path}: {e}") from None
    elif require_manifest:
        raise ConfigError("a split manifest is required (--split)")
    return ds, manifest


def _load_run(run_dir):
    """Load the two checkpoints a training run leaves behind."""
    run = Path(run_dir)
    target = load_checkpoint(run / "target.ckpt")
    event_only = load_checkpoint(run / "event_only.ckpt")
    if not isinstance(target, TargetPredictorParams):
        raise CheckpointError(f"{run / 'target.ckpt'} does not hold target predictor weights")
    if not isinstance(event_only, EventOnlyPredictorParams):
        raise CheckpointError(
            f"{run / 'event_only.ckpt'} does not hold event-only predictor weights"
        )
    return target, event_only


def _resolve_beta(args, cfg: RunConfig, target, event_only, val_insts):
    """Flag beats config beats validation sweep; report where it came from."""
    if getattr(args, "beta", None) is not None:
        beta, source = float(args.beta), "flag"
    elif cfg.get("beta") is not None:
        beta, source = float(cfg.get("beta")), "config"
    else:
        if not val_insts:
            raise ConfigError(
                "beta is unset: pass --beta, set beta in the config, "
                "or provide a manifest with a validation split to sweep over"
            )
        return sweep_beta(target, event_only, val_insts), "sweep"
    try:
        DebiasConfig(beta=beta).validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return beta, source


# ---------------------------------------------------------------------------
# commands


def cmd_gen_synth(args) -> int:
    cfg = _build_config(args)
    if args.preset is not None:
        cfg.set("preset", args.preset)
    if args.bias is not None:
        cfg.set("bias_strength", args.bias)
    cfg.validate()
    ds = generate(cfg.synth_config(args.seed))
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    print(f"wrote {len(ds.instances)} instances across {len(ds.events())} events to {out}")
    if args.report:
        print(json.dumps(bias_report(ds), indent=2))
    return 0


def cmd_split(args) -> int:
    cfg = _build_config(args)
    if args.mode is not None:
        cfg.set("split_mode", args.mode)
    cfg.validate()
    ds = load_dataset(args.data)
    ratios = cfg.split_ratios()
    mode = cfg.get("split_mode")
    split_fn = event_mixed_split if mode == "mixed" else event_separated_split
    manifest = split_fn(ds, ratios, args.seed)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(manifest, out)
    print(
        f"{mode} split of {len(ds.instances)} instances: "
        f"train {len(manifest.train_ids)}, val {len(manifest.val_ids)}, "
        f"test {len(manifest.test_ids)} -> {out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args, reads_manifest=True)
    cfg.validate()
    ds, manifest = _load_inputs(args.data, args.split)
    hyper = cfg.hyperparams()
    arch = cfg.arch()

    t0 = time.perf_counter()
    target, target_log = train_target(
        ds, manifest.train_ids, manifest.val_ids, hyper, seed=args.seed, arch=arch
    )
    event_only, event_log = train_event_only(
        ds, manifest.train_ids, manifest.val_ids, hyper, seed=args.seed, arch=arch
    )
    elapsed = time.perf_counter() - t0

    run = Path(args.out)
    run.mkdir(parents=True, exist_ok=True)
    save_checkpoint(target, run / "target.ckpt")
    save_checkpoint(event_only, run / "event_only.ckpt")
    _write_json(
        run / "log.json",
        {
            "generated_at": _timestamp(),
            "seed": args.seed,
            "target": target_log,
            "event_only": event_log,
        },
    )
    best_t = max(row["val_acc"] for row in target_log)
    best_e = max(row["val_acc"] for row in event_log)
    print(f"trained both predictors in {elapsed:.1f}s -> {run}", file=sys.stderr)
    print(f"target       best val_acc {best_t:.3f} over {len(target_log)} epochs")
    print(f"event_only   best val_acc {best_e:.3f} over {len(event_log)} epochs")
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args, reads_manifest=True)
    cfg.validate()
    ds, manifest = _load_inputs(args.data, args.split)
    target, event_only = _load_run(args.run)

    by_id = ds.by_id()
    val_insts = [by_id[i] for i in manifest.val_ids]
    test_insts = [by_id[i] for i in manifest.test_ids]
    beta, source = _resolve_beta(args, cfg, target, event_only, val_insts)

    predictions = predict(target, event_only, test_insts, DebiasConfig(beta=beta))
    labels = np.array([i.label for i in test_insts])
    events = [i.event for i in test_insts]
    report = evaluate(predictions, labels, ds.class_names, events=events)

    print(f"beta      {beta:g}  ({source})")
    print(report_to_text(report), end="")
    if args.out:
        payload = {"generated_at": _timestamp(), "beta": beta, "beta_source": source}
        payload.update(json.loads(report_to_json(report)))
        _write_json(args.out, payload)
    if args.plot:
        _write_text(args.plot, f1_bar_chart_svg(report))
    return 0


def cmd_predict(args) -> int:
    cfg = _build_config(args, reads_manifest=True)
    cfg.validate()
    ds, manifest = _load_inputs(args.data, args.split, require_manifest=False)
    target, event_only = _load_run(args.run)

    if manifest is not None:
        by_id = ds.by_id()
        insts = [by_id[i] for i in manifest.test_ids]
        val_insts = [by_id[i] for i in manifest.val_ids]
    else:
        insts = list(ds.instances)
        val_insts = []
    if not insts:
        raise DatasetError("nothing to predict: the selected split is empty")

    beta, source = _resolve_beta(args, cfg, target, event_only, val_insts)
    predictions = predict(target, event_only, insts, DebiasConfig(beta=beta))
    rows = [
        {"id": inst.id, "event": inst.event, "prediction": ds.class_names[int(p)]}
        for inst, p in zip(insts, predictions)
    ]
    if args.out:
        _write_json(
            args.out,
            {
                "generated_at": _timestamp(),
                "beta": beta,
                "beta_source": source,
                "predictions": rows,
            },
        )
        print(f"wrote {len(rows)} predictions (beta {beta:g}, {source}) to {args.out}")
    else:
        for row in rows:
            print(f"{row['id']}\t{row['prediction']}")
    return 0


def _ablate_one_seed(cfg: RunConfig, seed: int) -> dict:
    """All four variants on one seed's dataset; shared splits, shared seeds."""
    ds = generate(cfg.synth_config(seed))
    ratios = cfg.split_ratios()
    hyper = cfg.hyperparams()
    arch = cfg.arch()

    sep = event_separated_split(ds, ratios, seed)
    mixed = event_mixed_split(ds, ratios, seed)

    target, _ = train_target(ds, sep.train_ids, sep.val_ids, hyper, seed=seed, arch=arch)
    event_only, _ = train_event_only(ds, sep.train_ids, sep.val_ids, hyper, seed=seed, arch=arch)
    hyper0 = replace(hyper, alpha=0.0)
    plain, _ = train_target(ds, sep.train_ids, sep.val_ids, hyper0, seed=seed, arch=arch)
    plain_mixed, _ = train_target(
        ds, mixed.train_ids, mixed.val_ids, hyper0, seed=seed, arch=arch
    )

    def acc(params, insts, beta):
        preds = predict(params, event_only, insts, DebiasConfig(beta=beta))
        labels = np.array([i.label for i in insts])
        return float(np.mean(preds == labels))

    by_id = ds.by_id()
    sep_val = [by_id[i] for i in sep.val_ids]
    sep_test = [by_id[i] for i in sep.test_ids]
    mixed_test = [by_id[i] for i in mixed.test_ids]
    beta = sweep_beta(target, event_only, sep_val)
    return {
        "seed": seed,
        "beta": beta,
        "full": acc(target, sep_test, beta),
        "beta0": acc(target, sep_test, 0.0),
        "alpha0_beta0": acc(plain, sep_test, 0.0),
        "event_mixed": acc(plain_mixed, mixed_test, 0.0),
    }


# Environment of the ablate workers: one BLAS thread each, so the seeds share
# the cores without oversubscribing them and every seed computes the same
# bytes whatever the core count.  It must be set before a worker imports numpy.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cmd_ablate(args) -> int:
    # Imported here, not at module level, so that `import fade.cli`, which
    # every command pays for, does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cfg = _build_config(args)
    if args.seeds is not None:
        cfg.set("ablate_seeds", args.seeds)
    cfg.validate()

    n_seeds = cfg.get("ablate_seeds")
    seeds = list(range(n_seeds))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # Seeds run on spawned worker processes, one seed per task; `map` returns
    # them in seed order.  Spawn, not fork: a forked worker would inherit the
    # parent's already-started BLAS threads.  There is always a pool, even for
    # one seed, so there is one code path whatever the core count.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(n_seeds, cpus)
    saved_env = {key: os.environ.get(key) for key in _WORKER_ENV}
    t0 = time.perf_counter()
    os.environ.update(_WORKER_ENV)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            try:
                results = list(pool.map(_ablate_one_seed, [cfg] * n_seeds, seeds))
            except BaseException:
                # Fail as the first failing seed does; do not start the rest.
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    elapsed = time.perf_counter() - t0

    variants = {}
    for name in ABLATION_VARIANTS:
        accs = [r[name] for r in results]
        variants[name] = {
            "accuracies": accs,
            "mean": float(np.mean(accs)),
            "std": float(np.std(accs)),
        }
    payload = {
        "generated_at": _timestamp(),
        "preset": cfg.get("preset"),
        "seeds": seeds,
        "betas": [r["beta"] for r in results],
        "variants": variants,
    }
    _write_json(out / "ablation.json", payload)

    print(f"{n_seeds} seeds on {workers} worker processes in {elapsed:.1f}s", file=sys.stderr)
    width = max(len(v) for v in ABLATION_VARIANTS)
    print(f"{'variant':<{width}}  {'mean':>6}  {'std':>6}   (n={len(seeds)})")
    for name in ABLATION_VARIANTS:
        s = variants[name]
        print(f"{name:<{width}}  {s['mean']:6.3f}  {s['std']:6.3f}")
    print("betas (full): " + " ".join(f"{b:g}" for b in payload["betas"]))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="fade",
        description="Event-debiased propagation-graph classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--preset", help="named generator preset (e.g. t15-like)")
    p.add_argument("--bias", type=float, help="override bias_strength")
    p.add_argument("--out", required=True, help="output dataset path (.jsonl)")
    p.add_argument("--report", action="store_true", help="print a bias summary as JSON")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("split", parents=[common], help="write a train/val/test manifest")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--mode", choices=("separated", "mixed"), help="split mode")
    p.add_argument("--out", required=True, help="output manifest path (.json)")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common], help="train both predictors")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--split", required=True, help="manifest path")
    p.add_argument("--out", required=True, help="run directory for checkpoints + log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a run on the test split")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--split", required=True, help="manifest path")
    p.add_argument("--run", required=True, help="run directory holding the checkpoints")
    p.add_argument("--beta", type=float, help="debiasing strength (default: config, else val sweep)")
    p.add_argument("--out", help="write the report as JSON here")
    p.add_argument("--plot", help="write a per-class F1 bar chart (SVG) here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[common], help="emit per-instance predictions")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--split", help="manifest path (predict the test split only)")
    p.add_argument("--run", required=True, help="run directory holding the checkpoints")
    p.add_argument("--beta", type=float, help="debiasing strength (default: config, else val sweep)")
    p.add_argument("--out", help="write predictions as JSON here (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "ablate", parents=[common], help="compare full / beta0 / alpha0_beta0 / event_mixed"
    )
    p.add_argument("--out", required=True, help="output directory for ablation.json")
    p.add_argument("--seeds", type=int, help="number of seeds (default: config ablate_seeds)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingError, ShapeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # Downstream reader (e.g. `| head`) closed stdout early; not our error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DatasetError, SplitError, CheckpointError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
