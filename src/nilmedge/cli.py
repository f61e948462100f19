"""Command-line front door.

Subcommands: synth | extract | train | mda | sweep | classify | cost.
Exit codes: 0 success, 1 usage error, 2 data error, 3 budget infeasible
under --strict-budget. Every run prints the resolved seed so outputs can
be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import scenarios
from .cost import CORTEX_M4_PAPER, cost_report, load_profile
from .events import DEFAULT_THRESHOLD_W
from .features import (
    DEFAULT_LAYOUT,
    FREQUENCY_ONLY_LAYOUT,
    TIME_ONLY_LAYOUT,
    feature_matrix,
    write_features_csv,
)
from .models.io import load_model, save_model
from .pipeline import classify_stream, write_stream_labels_csv
from .sampleio import FORMATS, load_samples, save_samples
from .signals import ACQUISITION_RATE_HZ, decimate_stream
from .synth import parse_scenario_script, synth_scenario
from .train import (
    MODEL_KINDS,
    GridSpec,
    derive_seed,
    evaluate,
    load_dataset,
    mda_rank,
    split_dataset,
    sweep_feature_count,
    train_model,
)
from .train.selection import check_drop_tolerance
from .models.base import classify_matrix

USAGE_ERROR, DATA_ERROR, BUDGET_ERROR = 1, 2, 3

LAYOUTS = {
    "default": DEFAULT_LAYOUT,
    "time": TIME_ONLY_LAYOUT,
    "frequency": FREQUENCY_ONLY_LAYOUT,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _hyperparams(args, kind: str) -> dict:
    if kind == "knn":
        return {"k": args.k}
    if kind == "svm":
        return {"c": args.c, "gamma": args.gamma, "kernel": args.kernel}
    if kind == "mlp":
        hidden = tuple(int(s) for s in args.layers.split(","))
        return {"hidden": hidden, "lr": args.lr, "epochs": args.epochs, "batch": args.batch}
    return {"n_trees": args.trees, "max_depth": args.depth}


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=MODEL_KINDS)
    p.add_argument("--k", type=int, default=5, help="kNN neighbour count")
    p.add_argument("--c", type=float, default=10.0, help="SVM regularization")
    p.add_argument("--gamma", type=float, default=None, help="SVM rbf gamma (default 1/f)")
    p.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    p.add_argument("--trees", type=int, default=100, help="RF tree count")
    p.add_argument("--depth", type=int, default=12, help="RF depth limit")
    p.add_argument("--layers", default="800,100", help="MLP hidden sizes, comma separated")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)


def cmd_synth(args) -> int:
    if args.script:
        script, registry = parse_scenario_script(Path(args.script).read_text())
    else:
        script, registry = scenarios.builtin_scenario(args.scenario, seed=args.seed)
    stream, track = synth_scenario(script, registry, seed=args.seed)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    sample_path = out_dir / f"samples.{args.format}"
    save_samples(stream, sample_path, format=args.format)
    label_path = out_dir / "labels.csv"
    with open(label_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index,active,event_id,event_action\n")
        for j, on in enumerate(track.active):
            ev_id, ev_action = "", ""
            if j in track.toggles:
                ev_id, ev_action = track.toggles[j][0]
            fh.write(f"{j},{'+'.join(sorted(on))},{ev_id},{ev_action}\n")
    print(f"wrote {sample_path} ({len(stream)} samples) and {label_path}")
    return 0


def _samples(args):
    """The sample file as a 10 kHz stream; a 20 kHz file is pair-averaged
    by the chain's own decimation."""
    stream = load_samples(args.samples, format=args.format if args.format != "auto" else None)
    return decimate_stream(stream) if stream.rate_hz == ACQUISITION_RATE_HZ else stream


def cmd_extract(args) -> int:
    stream = _samples(args)
    layout = LAYOUTS[args.layout]
    matrix = feature_matrix(stream, layout)
    out = args.out or "features.csv"
    write_features_csv(out, matrix, range(len(matrix)), layout)
    print(f"wrote {out}: {matrix.shape[0]} windows x {matrix.shape[1]} features")
    return 0


def _split(args):
    """The dataset file's stratified (train, test) split."""
    d = load_dataset(args.dataset)
    return split_dataset(d, args.train_frac, seed=derive_seed(args.seed, 0x5711))


def _budget_exit(args, fits: bool) -> int:
    if args.strict_budget and not fits:
        print("budget infeasible under --strict-budget", file=sys.stderr)
        return BUDGET_ERROR
    return 0


def cmd_train(args) -> int:
    train_part, test_part = _split(args)
    model = train_model(args.kind, train_part, _hyperparams(args, args.kind), seed=args.seed)
    metrics = evaluate(test_part.y, classify_matrix(model, test_part.x), model.n_classes)
    out = args.out or f"model-{args.kind}.nlmm"
    save_model(model, out)
    print(json.dumps({"model": str(out), "seed": args.seed, **metrics.as_dict()}, sort_keys=True))
    return 0


def _mda(args, params, train_part, test_part):
    """The MDA ranking, after a note on how much of it the tie rule set."""
    report = mda_rank(args.kind, params, train_part, test_part,
                      repetitions=args.repetitions, seed=args.seed)
    note = f"{report.nonzero} of {len(report.importances)} importances non-zero; "
    if report.nonzero == 0:
        print(note + "the tie rule (lower index first) set the whole ranking")
    elif report.tied:
        print(note + f"the tie rule (lower index first) ordered {report.tied} "
              "features that share an importance")
    else:
        print(note + "no two importances tie")
    return report


def cmd_mda(args) -> int:
    report = _mda(args, _hyperparams(args, args.kind), *_split(args))
    out = args.out or "mda.json"
    Path(out).write_text(report.to_json())
    print(f"wrote {out}; baseline accuracy {report.baseline_accuracy:.4f}, "
          f"top features {list(report.ranking[:5])}")
    return 0


def cmd_sweep(args) -> int:
    check_drop_tolerance(args.drop_tolerance)  # before the MDA fits
    train_part, test_part = _split(args)
    profile = load_profile(args.profile)
    params = _hyperparams(args, args.kind)
    report_mda = _mda(args, params, train_part, test_part)
    counts = [int(s) for s in args.counts.split(",")] if args.counts else None
    report = sweep_feature_count(
        train_part, test_part, args.kind, report_mda, profile,
        grid=None if args.fast else GridSpec(),
        fixed_params=params if args.fast else None,
        drop_tolerance=args.drop_tolerance,
        feature_counts=counts,
        seed=args.seed,
    )
    out = args.out or "sweep.json"
    Path(out).write_text(report.to_json())
    csv_out = args.csv_out or "sweep_points.csv"
    Path(csv_out).write_text(report.to_csv())
    print(f"wrote {out} and {csv_out}; chosen m={report.chosen_m} "
          f"accuracy={report.chosen.accuracy:.4f} feasible={report.feasible}")
    return _budget_exit(args, report.feasible)


def cmd_classify(args) -> int:
    stream = _samples(args)
    model = load_model(args.model)
    labels = classify_stream(stream, model, mode=args.mode, threshold_w=args.threshold_w)
    out = args.out or "events.csv"
    write_stream_labels_csv(out, labels)
    labeled = sum(1 for s in labels if s.status == "labeled")
    print(f"wrote {out}: {len(labels)} events ({labeled} labeled)")
    return 0


def cmd_cost(args) -> int:
    model = load_model(args.model)
    profile = load_profile(args.profile)
    report = cost_report(model, profile)
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"wrote {args.out}")
    return _budget_exit(args, report.verdict.fits)


def build_parser() -> _Parser:
    parser = _Parser(prog="nilmedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=(), fmt_default=None):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if formats:  # only the subcommands that write or read a sample file
            p.add_argument("--format", choices=formats, default=fmt_default)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    common(p, formats=FORMATS, fmt_default="bin")
    p.add_argument("--scenario", choices=scenarios.SCENARIO_IDS, default="single7")
    p.add_argument("--script", default=None, help="scenario script file (overrides --scenario)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract per-window feature vectors")
    common(p, formats=FORMATS + ("auto",), fmt_default="auto")
    p.add_argument("--samples", required=True)
    p.add_argument("--layout", choices=tuple(LAYOUTS), default="default")
    p.set_defaults(func=cmd_extract)

    def dataset_command(name, func, help):
        p = sub.add_parser(name, help=help)
        common(p)
        p.add_argument("--dataset", required=True)
        p.add_argument("--train-frac", type=float, default=0.8)
        _add_model_args(p)
        p.set_defaults(func=func)
        return p

    dataset_command("train", cmd_train, "train one model on a dataset file")
    p = dataset_command("mda", cmd_mda, "rank features by mean decrease accuracy")
    p.add_argument("--repetitions", type=int, default=10)
    p = dataset_command("sweep", cmd_sweep, "feature-count sweep along the MDA ranking")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--profile", default=CORTEX_M4_PAPER.name)
    p.add_argument("--fast", action="store_true", help="fixed hyperparameters, no per-point grid")
    p.add_argument("--counts", default=None, help="comma-separated feature counts to sweep")
    p.add_argument("--drop-tolerance", type=float, default=0.05)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--strict-budget", action="store_true")

    p = sub.add_parser("classify", help="run the online pipeline over a sample stream")
    common(p, formats=FORMATS + ("auto",), fmt_default="auto")
    p.add_argument("--samples", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("single", "multi"), default="single")
    p.add_argument("--threshold-w", type=float, default=DEFAULT_THRESHOLD_W)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cost", help="resource report for a trained model file")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--profile", default=CORTEX_M4_PAPER.name)
    p.add_argument("--strict-budget", action="store_true")
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print(f"seed: {args.seed}")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, LookupError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
