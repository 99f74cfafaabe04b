"""Command-line front end: generate, split, train, eval, predict, ablate.

Every command takes ``--config`` (key=value file) plus repeatable ``--set``
overrides; flags that spell a config key are parsed like ``--set``, and the
RunConfig is checked before any input is read.  Errors exit with a typed code:
2 for configuration problems, 3 for data/file problems, 4 for numeric failures
during training or inference.

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
    predict,
    report_to_text,
    sweep_beta,
)
from .predictors import (
    CheckpointError,
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


def _out_path(path) -> Path:
    """``path`` as a Path, with its parent directory created."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path, payload: dict) -> None:
    with atomic_write(_out_path(path)) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _run_dir(path) -> Path:
    """``--out`` of `train` or `ablate`, checked before any work.

    It is made only when the first file is written, so a failed run leaves none.
    """
    out = Path(path)
    for part in (out, *out.parents):
        if part.exists() and not part.is_dir():
            where = "" if part == out else f" {part}"
            raise NotADirectoryError(f"--out {out}:{where} exists and is not a directory")
    return out


# (keys, reason): keys a command never reads.  `_build_config` rejects them on
# the command line, where they would otherwise be ignored silently; config files
# are shared across commands and may hold them.
SPLIT_KEYS = ("split_mode", "val_fraction", "train_parts", "test_parts")
FROM_MANIFEST = (SPLIT_KEYS, "the split comes from the manifest")
ABLATE_UNREAD = (("beta", "split_mode"), "ablate sweeps beta and runs both split modes")


def _build_config(args, unread=((), ""), **flags) -> RunConfig:
    """Config file, then ``--set``, then each ``flags`` key whose flag was given; checked once."""
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg.apply_overrides(args.set)
    keys, reason = unread
    for pair in args.set:
        key = pair.split("=", 1)[0].strip()
        if key in keys:
            raise ConfigError(f"--set {key}: not used here, {reason}")
    for key, value in flags.items():
        if value is not None:
            cfg.set(key, value)
    cfg.validate()
    return cfg


def _load_inputs(data_path, split_path):
    """The dataset, then the manifest if ``split_path`` is given (else None)."""
    ds = load_dataset(data_path)
    return ds, None if split_path is None else load_manifest(split_path, ds)


def _load_run(run_dir, ds, data_path):
    """Load the two checkpoints a training run leaves behind, made for ``ds``'s shape."""
    loaded = []
    for name in ("target", "event_only"):
        path = Path(run_dir) / f"{name}.ckpt"
        params = load_checkpoint(path)
        if params.kind != name:
            raise CheckpointError(f"{path} does not hold {name} predictor weights")
        shape = (params.layers[0].shape[0], params.tensors["classifier.weight"].shape[1])
        if shape != (ds.feature_dim, ds.n_classes):
            raise DatasetError(
                f"{path} takes {shape[0]} features and {shape[1]} classes, but "
                f"{data_path} has {ds.feature_dim} features and {ds.n_classes} classes"
            )
        loaded.append(params)
    return loaded


def _predict_run(args, cfg: RunConfig):
    """``(ds, instances, beta, beta_source, predictions)`` on the test split, else all of ds."""
    ds, manifest = _load_inputs(args.data, args.split)
    target, event_only = _load_run(args.run, ds, args.data)
    if manifest is not None:
        by_id = ds.by_id()
        insts = [by_id[i] for i in manifest.test_ids]
        val_insts = [by_id[i] for i in manifest.val_ids]
    else:
        insts, val_insts = list(ds.instances), []
    if not insts:
        where = (f"manifest {args.split}: the test split" if manifest is not None
                 else f"dataset {args.data}")
        raise DatasetError(f"{where} is empty")

    beta = cfg.get("beta")
    if beta is not None:
        source = "flag" if args.beta is not None else "config"
    elif val_insts:
        beta, source = sweep_beta(target, event_only, val_insts), "sweep"
    else:
        raise ConfigError(
            "beta is unset: pass --beta, set beta in the config, "
            "or provide a manifest with a validation split to sweep over"
        )
    predictions = predict(target, event_only, insts, DebiasConfig(beta=beta))
    return ds, insts, beta, source, predictions


def _fork_pool(workers: int, initializer=None, initargs=()):
    """A process pool of ``workers`` processes forked from this one.

    A forked worker starts as this process is: numpy and `fade` are imported,
    it computes on the one BLAS thread `fade` pinned before numpy loaded, and
    it shares this process's memory copy-on-write.  ``initargs`` reach
    ``initializer`` as these very objects, not pickled.  The pool forks all
    its workers before it starts its own manager thread, and the CLI starts
    no thread, so none is alive at the fork.  Needs a platform with ``fork``
    (POSIX).
    """
    # Imported here, not at module level, so that `import fade.cli`, which
    # every command pays for, does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_gen_synth(args) -> int:
    cfg = _build_config(args, preset=args.preset, bias_strength=args.bias)
    ds = generate(cfg.synth_config(args.seed))
    out = _out_path(args.out)
    save_dataset(ds, out)
    print(f"wrote {len(ds.instances)} instances across {len(ds.events())} events to {out}")
    if args.report:
        print(json.dumps(bias_report(ds), indent=2))
    return 0


def cmd_split(args) -> int:
    cfg = _build_config(args, split_mode=args.mode)
    ds = load_dataset(args.data)
    mode = cfg.get("split_mode")
    split_fn = event_mixed_split if mode == "mixed" else event_separated_split
    try:
        manifest = split_fn(ds, cfg.split_ratios(), args.seed)
    except SplitError as e:
        raise SplitError(f"dataset {args.data}: {e}") from None
    out = _out_path(args.out)
    save_manifest(manifest, out)
    print(
        f"{mode} split of {len(ds.instances)} instances: "
        f"train {len(manifest.train_ids)}, val {len(manifest.val_ids)}, "
        f"test {len(manifest.test_ids)} -> {out}"
    )
    return 0


# `train`'s inputs, ``(ds, manifest)``, in its event-only worker; set there by
# the pool's initializer, `_keep_inputs`.
_worker_inputs = None


def _keep_inputs(ds, manifest) -> None:
    global _worker_inputs
    _worker_inputs = ds, manifest


def _train_event_only_run(hyper, seed, arch):
    """``train``'s event-only fit, on the inputs `_keep_inputs` kept in this worker."""
    ds, manifest = _worker_inputs
    return train_event_only(ds, manifest.train_ids, manifest.val_ids, hyper, seed=seed, arch=arch)


def cmd_train(args) -> int:
    cfg = _build_config(args, unread=FROM_MANIFEST)
    hyper = cfg.hyperparams()
    arch = cfg.arch()
    run = _run_dir(args.out)
    ds, manifest = _load_inputs(args.data, args.split)
    if not manifest.train_ids:
        raise DatasetError(f"manifest {args.split}: the train split is empty")

    # The two predictors train independently, so a worker forked from this
    # process fits the event-only one meanwhile, on the inputs loaded here.
    # On a failure here the pool waits for the worker.
    t0 = time.perf_counter()
    with _fork_pool(1, _keep_inputs, (ds, manifest)) as pool:
        future = pool.submit(_train_event_only_run, hyper, args.seed, arch)
        target, target_log = train_target(
            ds, manifest.train_ids, manifest.val_ids, hyper, seed=args.seed, arch=arch
        )
        event_only, event_log = future.result()
    elapsed = time.perf_counter() - t0

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
    print(f"trained both predictors in {elapsed:.1f}s -> {run}", file=sys.stderr)
    for name, log in (("target", target_log), ("event_only", event_log)):
        if manifest.val_ids:
            best = max(row["val_acc"] for row in log)
            print(f"{name:<12} best val_acc {best:.3f} over {len(log)} epochs")
        else:
            print(f"{name:<12} kept the last of {len(log)} epochs: no validation split")
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args, unread=FROM_MANIFEST, beta=args.beta)
    ds, insts, beta, source, predictions = _predict_run(args, cfg)
    labels, events = [i.label for i in insts], [i.event for i in insts]
    report = evaluate(predictions, labels, ds.class_names, events=events)

    print(f"beta      {beta:g}  ({source})")
    print(report_to_text(report), end="")
    if args.out:
        _write_json(
            args.out,
            {"generated_at": _timestamp(), "beta": beta, "beta_source": source, **report},
        )
    return 0


def cmd_predict(args) -> int:
    cfg = _build_config(args, unread=FROM_MANIFEST, beta=args.beta)
    ds, insts, beta, source, predictions = _predict_run(args, cfg)
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

    by_id = ds.by_id()
    beta = sweep_beta(target, event_only, [by_id[i] for i in sep.val_ids])
    row = {"seed": seed, "beta": beta}
    # Each variant's test accuracy, scored as `eval` scores a run.
    for name, model, split, b in (
        ("full", target, sep, beta),
        ("beta0", target, sep, 0.0),
        ("alpha0_beta0", plain, sep, 0.0),
        ("event_mixed", plain_mixed, mixed, 0.0),
    ):
        insts = [by_id[i] for i in split.test_ids]
        predictions = predict(model, event_only, insts, DebiasConfig(beta=b))
        row[name] = evaluate(predictions, [i.label for i in insts], ds.class_names)["accuracy"]
    return row


def cmd_ablate(args) -> int:
    cfg = _build_config(args, unread=ABLATE_UNREAD, ablate_seeds=args.seeds)
    if cfg.get("val_fraction") == 0:
        raise ConfigError("val_fraction must be > 0 for ablate: beta is swept on validation events")
    n_seeds = cfg.get("ablate_seeds")
    seeds = list(range(n_seeds))
    out = _run_dir(args.out)

    # Seeds run on forked worker processes, one seed per task; `map` returns
    # them in seed order.  There is always a pool, even for one seed, so there
    # is one code path whatever the core count.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(n_seeds, cpus)
    t0 = time.perf_counter()
    with _fork_pool(workers) as pool:
        try:
            results = list(pool.map(_ablate_one_seed, [cfg] * n_seeds, seeds))
        except BaseException:
            # Fail as the first failing seed does; do not start the rest.
            pool.shutdown(cancel_futures=True)
            raise
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


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


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
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="fade",
        description="Event-debiased propagation-graph classification pipeline.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, parent, func, summary):
        p = sub.add_parser(name, parents=[parent], help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("gen-synth", seeded, cmd_gen_synth, "generate a synthetic dataset")
    p.add_argument("--preset", help="named generator preset (e.g. t15-like)")
    p.add_argument("--bias", help="bias_strength: probability an event is biased")
    p.add_argument("--out", required=True, help="output dataset path (.jsonl)")
    p.add_argument("--report", action="store_true", help="print a bias summary as JSON")

    p = command("split", seeded, cmd_split, "write a train/val/test manifest")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--mode", help="split_mode: separated or mixed")
    p.add_argument("--out", required=True, help="output manifest path (.json)")

    p = command("train", seeded, cmd_train, "train both predictors")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--split", required=True, help="manifest path")
    p.add_argument("--out", required=True, help="run directory for checkpoints + log")

    p = command("eval", common, cmd_eval, "evaluate a run on the test split")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--split", required=True, help="manifest path")
    p.add_argument("--run", required=True, help="run directory holding the checkpoints")
    p.add_argument("--beta", help="debiasing strength (default: config, else val sweep)")
    p.add_argument("--out", help="write the report as JSON here")

    p = command("predict", common, cmd_predict, "emit per-instance predictions")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--split", help="manifest path (predict the test split only)")
    p.add_argument("--run", required=True, help="run directory holding the checkpoints")
    p.add_argument("--beta", help="debiasing strength (default: config, else val sweep)")
    p.add_argument("--out", help="write predictions as JSON here (default: stdout)")

    p = command("ablate", common, cmd_ablate, "compare full / beta0 / alpha0_beta0 / event_mixed")
    p.add_argument("--out", required=True, help="output directory for ablation.json")
    p.add_argument("--seeds", help="ablate_seeds: number of seeds (default 10)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, not at interpreter exit, so a closed pipe is caught below.
        sys.stdout.flush()
        return code
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
