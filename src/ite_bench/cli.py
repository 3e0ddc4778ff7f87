"""Command-line interface.

Commands: simulate, train, evaluate, sweep, report. Exit codes:
0 success, 2 configuration error, 3 data error, 4 numeric error
(divergence or non-finite values), 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import (
    ConfigError,
    DataError,
    NumericError,
    check_out_dir,
    load_json_object,
    write_json_atomic,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    SweepSpec,
    _fit_repeat,
    apply_overrides,
    render_eval_report,
    render_report_table,
    report_table_csv,
    run_sweep,
    usable_cpus,
)
from .metrics import EvalReport, evaluate_model
# train is bound here for perfbench's tracer (perfbench/tracing.py)
from .model import VARIANTS, load_checkpoint, save_checkpoint, train  # noqa: F401
from .simulate import SPLIT_NAMES, load_dataset, save_dataset, simulate_dataset

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _config_doc(path) -> dict:
    """The experiment config document at path; none is the empty one."""
    return {} if path is None else load_json_object(path, ConfigError)


def _flag_overrides(args) -> dict:
    """The config fields that the given flags set. An override flag's dest
    is the field it sets: a dotted key (sim.n, train.base_lr) or variant."""
    return {
        key: value for key, value in vars(args).items()
        if ("." in key or key == "variant") and value is not None
    }


def cmd_simulate(args) -> int:
    overrides = _flag_overrides(args)
    if "sim.kappa" in overrides:
        try:
            parts = [float(v) for v in overrides["sim.kappa"].split(",")]
        except ValueError as exc:
            raise ConfigError(f"--kappa must be numbers separated by commas: {exc}") from exc
        overrides["sim.kappa"] = parts[0] if len(parts) == 1 else parts
    cfg = apply_overrides(ExperimentConfig.from_dict(_config_doc(args.config)), overrides).sim
    # refuse before simulating, which kmeans makes slow at large n
    check_out_dir(args.out, args.force)
    ds = simulate_dataset(cfg)
    save_dataset(ds, args.out, force=args.force)
    sizes = {name: len(ds.splits[name]) for name in SPLIT_NAMES}
    print(
        f"wrote dataset to {args.out}: n={ds.n} d={ds.d} k={ds.k} "
        f"seed={cfg.seed} splits={sizes}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    doc = _config_doc(args.config)
    ds = load_dataset(args.dataset)
    # without a sim section the run's sim is the dataset's own, so zero_shot
    # is checked against the data's k
    doc.setdefault("sim", ds.config.to_dict())
    cfg = apply_overrides(ExperimentConfig.from_dict(doc), _flag_overrides(args))
    ours, theirs = cfg.sim.to_dict(), ds.config.to_dict()
    differ = [
        f"{name}={ours[name]!r} (dataset has {theirs[name]!r})"
        for name in ours if ours[name] != theirs[name]
    ]
    if differ:
        raise DataError(f"config's sim is not the dataset's config: {', '.join(differ)}")
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    # refuse before training, which can take minutes at search-grid width:
    # an --out that is not a directory, or one that holds a checkpoint (its
    # other files are kept, so the emptiness check is forced past)
    check_out_dir(args.out, force=True)
    if os.path.exists(ckpt_path) and not args.force:
        raise DataError(f"{ckpt_path} exists; pass --force to overwrite")
    # repeat 0 of an experiment: the same zero-shot filter and seed
    trained = _fit_repeat(cfg, ds, 0)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(ckpt_path, trained)
    write_json_atomic(
        os.path.join(args.out, "history.json"),
        {"schema_version": "2", "history": trained.history.to_dict()},
    )
    epochs = trained.history.n_epochs()
    print(
        f"trained {cfg.variant} for {epochs} epochs; best epoch "
        f"{trained.best_epoch} (val mse {trained.best_val_mse}); wrote {ckpt_path}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ds = load_dataset(args.dataset)
    trained = load_checkpoint(args.checkpoint)
    report = evaluate_model(
        trained.model, ds, split=args.split, zero_shot_z=args.zero_shot
    )
    text = render_eval_report(report)
    if args.out:
        write_json_atomic(args.out, report.to_dict())
        text += f"\nwrote report to {args.out}"
    print(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = SweepSpec.from_dict(load_json_object(args.config, ConfigError))
    flags = {"seed": args.seed, "max_trials": args.max_trials}
    spec = replace(spec, **{name: v for name, v in flags.items() if v is not None})
    threads = args.threads if args.threads is not None else usable_cpus()
    summary = run_sweep(spec, args.out, threads=threads, force=args.force)
    winner = summary["winner"]
    print(
        f"ran {summary['n_trials']} trials; winner trial {winner['trial']} "
        f"{winner['overrides']} val mse {winner['mean_val_mse']:.6g}"
    )
    agg = winner["test_sqrt_pehe"]
    print(
        f"winner test sqrt_pehe {agg['mean']:.4f} +/- {agg['std']:.4f} (n={agg['n']})"
    )
    print(f"test truth reads before selection: {summary['test_truth_reads_before_selection']}")
    return EXIT_OK


def cmd_report(args) -> int:
    # an eval report stores no label; it is named by its path below the
    # files' common directory, so runs/joint/report.json and
    # runs/tarnet/report.json make two rows, joint/report and tarnet/report
    root = os.path.commonpath([os.path.dirname(os.path.abspath(p)) for p in args.records])
    records: list[RunRecord] = []
    for path in args.records:
        doc = load_json_object(path, DataError)
        kind = doc.get("kind")
        if kind not in ("run_record", "eval_report"):
            raise DataError(f"{path}: not a run record or eval report")
        try:
            if kind == "run_record":
                record = RunRecord.from_dict(doc)
            else:
                record = RunRecord(
                    label=os.path.splitext(os.path.relpath(os.path.abspath(path), root))[0],
                    config={},
                    per_seed=[EvalReport.from_dict(doc)],
                )
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed {kind}: {exc!r}") from exc
        records.append(record)
    table = render_report_table(records)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_table_csv(records))
        table += f"\nwrote csv to {args.csv}"
    print(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ite-bench",
        description=(
            "Semi-synthetic benchmark for individual treatment effect "
            "estimation with embedding-valued treatments. Treatments are "
            "indexed 0..k-1 everywhere."
        ),
        epilog=(
            "exit codes: 0 success, 2 config error, 3 data error, "
            "4 numeric error, 1 unexpected"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset directory")
    p.add_argument("--config", help="experiment config JSON (checked whole; 'sim' is used)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--force", action="store_true", help="overwrite a non-empty directory")
    # each override flag's dest is the config field it sets (_flag_overrides)
    p.add_argument("--seed", type=int, dest="sim.seed")
    p.add_argument("--n", type=int, dest="sim.n")
    p.add_argument("--d", type=int, dest="sim.d")
    p.add_argument("--k", type=int, dest="sim.k")
    p.add_argument("--c", type=float, dest="sim.c")
    p.add_argument("--kappa", dest="sim.kappa",
                   help="scalar or comma-separated per-treatment values")
    p.add_argument("--centroid-method", choices=["random", "kmeans"],
                   dest="sim.centroid_method")
    p.add_argument("--covariate-file", dest="sim.embedding_file",
                   help="CSV of embedding rows to use instead of Gaussian draws")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train one model on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory for checkpoint and history")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--epochs-max", type=int, dest="train.epochs_max")
    p.add_argument("--alpha", type=float, dest="train.alpha")
    p.add_argument("--beta", type=float, dest="train.beta")
    p.add_argument("--batch-size", type=int, dest="train.batch_size")
    p.add_argument("--lr", type=float, dest="train.base_lr")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--zero-shot", type=int, dest="zero_shot",
                   help="also report PEHE restricted to pairs involving this treatment")
    p.add_argument("--out", help="optional path for the report JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid search selected on validation MSE")
    p.add_argument("--config", required=True, help="sweep config JSON with 'base' and 'grid'")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="reuse a non-empty directory; the previous sweep's outputs are replaced")
    p.add_argument("--max-trials", type=int, dest="max_trials",
                   help="random subsample of the grid (deterministic in --seed)")
    p.add_argument("--threads", type=int,
                   help="worker processes; default the number of CPUs this process may use")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate run records into a table")
    p.add_argument("records", nargs="+", help="run record or eval report JSON files")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`). Every command writes its
        # files before it prints, so only output is lost; stdout goes to
        # devnull, or the flush at exit would fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())
