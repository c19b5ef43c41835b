"""Command-line front end.

One JSON config document drives everything. Its schema is the
``harness.ExperimentConfig`` dataclass tree: the defaults and the type checks
come from those dataclasses, each dataclass checks its own fields when it is
built, and every field has a default, so an empty document is a complete
experiment. ``--set a.b=v`` writes v at that dotted path of the document;
``normalize_config`` then walks the document against the schema once and
names a path it does not know. No environment variable is read. The class
a run excludes is not in the document: ``train`` takes it as ``--exclude C``
and ``correct`` requires it; ``run_single`` checks its range. Exit codes: 0
success (``--help`` too), 1 invalid configuration or arguments (the message
names the field, or argparse prints the usage; a generated feature shape the
model cannot take is one), 2 runtime failure (the message names the pipeline
stage, and the file where one is at fault).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .composer import read_prediction_log
from .datagen import save_dataset
from .harness import (
    MANIFEST_ARTIFACT,
    ConfigError,
    ExperimentConfig,
    StageError,
    _stage,
    build_dataset,
    load_sweep,
    normalize_config,
    render_report,
    run_single,
    run_sweep,
)
from .metrics import evaluate, report_to_csv, report_to_text

__all__ = ["main", "build_parser", "load_config"]


def _parse_set(assignment: str) -> tuple[list[str], object]:
    if "=" not in assignment:
        raise ConfigError(assignment, "--set expects dotted.path=value")
    raw_path, raw_value = assignment.split("=", 1)
    path = raw_path.strip().split(".")
    if not all(path):
        raise ConfigError(raw_path, "empty path component")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare string
    return path, value


def _apply_set(doc: dict, path: list[str], value: object) -> None:
    # intermediate objects are created; normalize_config names an unknown path
    node = doc
    for part in path[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(path), "path crosses a non-object value")
    node[path[-1]] = value


def load_config(config_path: str | None, sets: list[str] | None = None) -> ExperimentConfig:
    """Read and override the config document, then build the experiment config.

    Precedence: --set > file > defaults. A sweep manifest stands for the
    config it records, so ``--set`` applies to that config.
    """
    doc: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError("config", f"no such file: {config_path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"{config_path} is not UTF-8: {exc}") from None
        except OSError as exc:
            raise ConfigError("config", f"cannot read {config_path}: {exc.strerror}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        if loaded.get("artifact") == MANIFEST_ARTIFACT:  # replay a sweep from its manifest
            loaded = loaded.get("config")
            if not isinstance(loaded, dict):
                raise ConfigError("config", f"{config_path} is a sweep manifest without a config")
        doc = loaded
    for path_parts, value in [_parse_set(s) for s in sets or []]:  # all parse first
        _apply_set(doc, path_parts, value)
    return normalize_config(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclab",
        description="Train, correct, compose, and evaluate staged classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a config field, e.g. --set policy.tau=0.7",
        )

    p = sub.add_parser("gen", help="generate the configured dataset and save it")
    common(p)
    p.add_argument("--out", help="output CSV file (default <sweep root>/dataset.csv)")

    p = sub.add_parser("train", help="train the base model only")
    common(p)
    p.add_argument("--exclude", type=int, metavar="C", help="class left out of training")

    p = sub.add_parser("correct", help="one full exclusion run (train, correct, compose)")
    common(p)
    p.add_argument("--exclude", type=int, required=True, metavar="C",
                   help="class left out of training and recovered by the corrector")

    p = sub.add_parser("eval", help="recompute metrics from a prediction log")
    p.add_argument("--preds", required=True, help="prediction log (preds.csv)")
    p.add_argument("--out", help="write metrics CSV here instead of text to stdout")

    p = sub.add_parser("sweep", help="baseline plus one run per excluded class")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("report", help="re-render tables from persisted run artifacts")
    p.add_argument("--run", required=True, help="sweep root (…/<name>)")
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set)
    with _stage("data"):
        data = build_dataset(config)
        out = args.out or str(config.root / "dataset.csv")
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        save_dataset(data, out)
    counts = ", ".join(str(int(c)) for c in data.class_counts)
    print(f"wrote {len(data)} samples ({counts}) to {out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set)
    result = run_single(config, args.exclude, base_only=True)
    history = result.history
    print(
        f"trained {len(history.rows)} epochs, best val_acc "
        f"{history.best_val_acc:.4f} at epoch {history.best_epoch}; "
        f"model saved to {Path(result.run_dir) / 'model.bin'}"
    )
    return 0


def _cmd_correct(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set)
    result = run_single(config, args.exclude)
    agg = result.report.aggregate
    ret = "n/a" if agg.retention_macro is None else f"{agg.retention_macro:.4f}"
    print(
        f"run complete: val_acc {result.history.best_val_acc:.4f}, "
        f"retention_macro {ret}, accuracy {agg.accuracy_base:.4f} -> "
        f"{agg.accuracy_corrected:.4f}; artifacts in {result.run_dir}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        report = evaluate(read_prediction_log(args.preds))
    except OSError as exc:
        raise StageError("metrics", f"cannot read prediction log {args.preds}: "
                                    f"{exc.strerror}") from None
    except ValueError as exc:
        raise StageError("metrics", str(exc)) from exc
    if args.out:
        with _stage("metrics"):
            Path(args.out).write_text(report_to_csv(report), encoding="ascii")
        print(f"wrote metrics to {args.out}")
    else:
        print(report_to_text(report), end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set)
    if args.jobs < 1:
        raise ConfigError("jobs", "must be >= 1")
    sweep = run_sweep(config, jobs=args.jobs)
    for excluded in [None] + sorted(sweep.runs):
        result = sweep.baseline if excluded is None else sweep.runs[excluded]
        agg = result.report.aggregate
        tag = "baseline " if excluded is None else f"excl_{excluded}   "
        ret = "   n/a" if agg.retention_macro is None else f"{agg.retention_macro:.4f}"
        print(
            f"{tag} val_acc {result.history.best_val_acc:.4f}  retention_macro {ret}  "
            f"accuracy {agg.accuracy_base:.4f} -> {agg.accuracy_corrected:.4f}"
        )
    print(f"report written to {sweep.root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    sweep = load_sweep(args.run)
    render_report(sweep)
    print(f"re-rendered tables under {sweep.root}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "correct": _cmd_correct,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (code 0) or a usage error
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
