"""Command-line entry point: gen-data | train | experiment | report.

Every command works on one run directory with fixed file names.  gen-data
writes events.jsonl and dataset.json there, the latter at the configured
model's input width, as train builds it; train reads events.jsonl and
writes model-<name>-seed<base_seed>.json; experiment reads events.jsonl and
writes runs.csv, one line per (model, seed, epoch) with the columns model,
threshold, split_seed, seed, epoch, train_loss, train_accuracy and
test_accuracy; report prints the final-epoch summary of runs.csv.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from .dataset import build_dataset, check_width, run_sweep
from .serialize import (
    load_events,
    read_runs_csv,
    save_dataset,
    save_events,
    save_model,
    write_runs_csv,
)
from .train import MODEL_NAMES, input_width, run_experiment, summarize, train


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_input(parser, help="run directory from gen-data"):
    parser.add_argument("--in", dest="run_dir", type=Path, required=True, help=help)


def _load_values(args):
    values = cfgmod.load_config(args.config) if args.config else {}
    values.update(cfgmod.parse_assignments(args.overrides))
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scatterqml",
        description=(
            "Fermion-antifermion scattering simulations and "
            "entanglement-threshold classifiers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="run a sweep, write events + dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--workers", type=_positive_int, default=None)

    p = sub.add_parser("train", help="train one classifier")
    _add_common(p)
    _add_input(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)

    p = sub.add_parser("experiment", help="multi-run experiments, write runs.csv")
    _add_common(p)
    _add_input(p)
    p.add_argument(
        "--models",
        nargs="+",
        choices=MODEL_NAMES,
        default=["qcnn4-hee", "cnn51", "cnn113"],
    )
    p.add_argument("--workers", type=_positive_int, default=None)

    p = sub.add_parser("report", help="summarize a run directory's runs.csv")
    _add_input(p, help="run directory with runs.csv")
    return parser


def cmd_gen_data(args):
    values = _load_values(args)
    sweep = cfgmod.sweep_config(values)
    options = cfgmod.dataset_config(values)
    # train builds its dataset from the same config at this width
    width = input_width(cfgmod.train_config(values).model)
    check_width(width, len(sweep.grid()), options.test_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events = run_sweep(sweep, workers=args.workers)
    save_events(out / "events.jsonl", sweep, events)
    errors = sum(1 for e in events if e.error)
    labeled = sum(1 for e in events if e.delta_s_mid is not None)
    print(f"wrote {len(events)} events ({labeled} labeled, {errors} failed)")
    dataset = build_dataset(events, width, options)
    save_dataset(out / "dataset.json", dataset)
    print(
        f"wrote dataset: {dataset.labels.size} balanced events, "
        f"threshold {dataset.threshold:.6g}, to {out}"
    )
    return 0


def cmd_train(args):
    values = _load_values(args)
    tc = cfgmod.train_config(values, model=args.model)
    options = cfgmod.dataset_config(values)
    _, events = load_events(args.run_dir / "events.jsonl")
    dataset = build_dataset(events, input_width(tc.model), options)
    # run 0 of an experiment with the same config
    result = train(dataset, tc, seed=tc.base_seed)
    print(
        f"{tc.model} seed {tc.base_seed}: "
        f"final train acc {result.train_accuracy[-1]:.4f}, "
        f"test acc {result.test_accuracy[-1]:.4f}, "
        f"loss {result.train_loss[-1]:.6f}"
    )
    out = args.run_dir / f"model-{tc.model}-seed{tc.base_seed}.json"
    save_model(
        out,
        tc.model,
        result.final_params,
        metadata={
            "seed": tc.base_seed,
            "epochs": tc.epochs,
            "threshold": dataset.threshold,
            "final_test_accuracy": result.test_accuracy[-1],
        },
    )
    print(f"wrote checkpoint to {out}")
    return 0


def _sem_text(summary):
    return "n/a" if summary.sem is None else f"{summary.sem:.4f}"


def cmd_experiment(args):
    if len(set(args.models)) < len(args.models):
        raise cfgmod.ConfigError(f"--models names a model twice: {' '.join(args.models)}")
    values = _load_values(args)
    options = cfgmod.dataset_config(values)
    _, events = load_events(args.run_dir / "events.jsonl")
    rows = []
    datasets = {}
    for model in args.models:
        width = input_width(model)
        if width not in datasets:
            datasets[width] = build_dataset(events, width, options)
        tc = cfgmod.train_config(values, model=model)
        rep = run_experiment(datasets[width], tc, workers=args.workers)
        rows += rep.rows()
        summary = summarize(rep.rows())[model]
        print(
            f"{model}: mean test acc {summary.mean:.4f} (sem {_sem_text(summary)}, "
            f"{summary.runs} runs, {len(rep.failures)} failed)"
        )
    out = args.run_dir / "runs.csv"
    write_runs_csv(out, rows)
    print(f"wrote runs to {out}")
    return 0


def cmd_report(args):
    summaries = summarize(read_runs_csv(args.run_dir / "runs.csv"))
    if not summaries:
        print("report is empty", file=sys.stderr)
        return 1
    print(f"{'model':<12} {'threshold':>10} {'epochs':>6} {'mean acc':>9} {'sem':>8}")
    for model, s in sorted(summaries.items()):
        print(f"{model:<12} {s.threshold:>10.4f} {s.epochs:>6} {s.mean:>9.4f} {_sem_text(s):>8}")
    best = max(summaries, key=lambda model: summaries[model].mean)
    print(f"best: {best} at {summaries[best].mean:.4f}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
