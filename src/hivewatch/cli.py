"""Command-line pipeline: generate, train, calibrate, detect, compare.

Each command reads input files, writes its outputs into --out-dir, and
drops a `<command>_manifest.json` beside them recording every parameter,
input digest, and seed needed to reproduce the outputs byte-for-byte,
plus, for commands that read a trace, its ingest report (rows, repairs,
and which parser ran), and for `detect`, `rba` and `report` a `run`
object with what the command found.
Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
All randomness flows from the single --seed flag: it seeds both weight
initialization and epoch shuffling directly, and the generator noise
stream for synth.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

from . import __version__
from .analysis import (
    ANOMALY_CLASSES,
    LAYOUTS,
    SynthConfig,
    generate,
    pearson_matrix,
    write_correlation,
)
from .data import (
    DayLabel,
    auto_label_days,
    build_splits,
    fit_normalization,
    format_splits,
    ingest,
    make_windows,
    read_labels,
    read_splits,
    write_labels,
    write_splits,
    write_trace,
)
from .detector import (
    DEFAULT_MERGE_GAP_S,
    Threshold,
    _iso,
    calibrate,
    detect,
    format_summary,
    read_events,
    read_threshold,
    score_trace,
    write_events,
    write_threshold,
)
from .errors import (
    DATA_ERRORS,
    InvalidHyperparameter,
    SplitMismatch,
    TrainingDiverged,
    UsageError,
)
from .nn import TrainConfig, init_model, load_model, save_model, train
from .rba import RbaConfig, rba_detect
from .search import SearchSpace, random_search, write_search_report

#: `synth --format` names and the delimiter each writes.
FORMATS = {"csv": ",", "tsv": "\t"}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_manifest(
    args, inputs: list, outputs: list, trace=None, digests=None, run=None
) -> Path:
    """Write everything needed to re-run one command bit-identically,
    plus the trace's ingest report when the command read one, and `run`,
    what the command found, when given. `digests` maps an input's path to
    the SHA-256 the command already took of it, so that file is not read
    again."""
    digests = digests or {}
    doc = {
        "command": args.command,
        "tool_version": __version__,
        "parameters": {
            k: _jsonable(v) for k, v in vars(args).items() if k not in ("func", "command")
        },
        "inputs": {str(p): digests.get(p) or _sha256(p) for p in inputs},
        "outputs": [Path(p).name for p in outputs],
    }
    if trace is not None:
        doc["ingest"] = trace.metadata
    if run is not None:
        doc["run"] = run
    path = Path(args.out_dir) / f"{args.command}_manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _events_by_class(events) -> dict:
    return dict(Counter(e.class_hint for e in events))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise UsageError(f"bad date {text!r}: {exc}") from exc


def _parse_anomaly(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad --anomaly {text!r}: expected DAY:CLASS:MINUTE")
    try:
        return int(parts[0]), parts[1], int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --anomaly {text!r}: {exc}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"bad range {text!r}: expected LO:HI")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    schedule = tuple(_parse_anomaly(a) for a in args.anomaly or [])
    config = SynthConfig(
        days=args.days,
        sensors=args.sensors,
        seed=args.seed,
        anomaly_schedule=schedule,
        start_day=_parse_date(args.start_day),
    )
    trace, truth = generate(config)

    out = _out_dir(args)
    trace_path = out / f"trace.{args.format}"
    write_trace(trace_path, trace, FORMATS[args.format])
    truth_path = out / "truth_events.csv"
    write_events(truth_path, truth)

    anomalous_days = {config.start_day + timedelta(days=d) for d, _, _ in schedule}
    labels = [
        DayLabel(day=day, label="anomalous" if day in anomalous_days else "normal",
                 source="auto")
        for day in trace.days()
    ]
    labels_path = out / "labels.csv"
    write_labels(labels_path, labels)

    _write_manifest(args, inputs=[], outputs=[trace_path, truth_path, labels_path])
    print(f"wrote {len(trace)} readings, {len(truth)} ground-truth events to {out}")
    return 0


def _prepare_training_windows(args, trace):
    labels = read_labels(args.labels) if args.labels else auto_label_days(trace, args.sensor)
    splits = build_splits(labels, validation_fraction=args.val_fraction)
    norm = fit_normalization(trace, args.sensor, splits.training)
    train_w = make_windows(
        trace, args.sensor, splits.training, args.window_size, args.stride, norm
    )
    val_w = make_windows(
        trace, args.sensor, splits.validation, args.window_size, args.stride, norm
    )
    return labels, splits, norm, train_w.matrix, val_w.matrix


def _split_digest(splits) -> str:
    """SHA-256 of the split file `write_splits` writes, which a model's
    checkpoint records; taken before any file is written."""
    return hashlib.sha256(format_splits(splits).encode("utf-8")).hexdigest()


def _write_split(out: Path, labels, splits) -> list[Path]:
    """The split and day labels a model was trained on, for `calibrate`;
    returns their paths."""
    splits_path = out / "splits.txt"
    write_splits(splits_path, splits)
    labels_path = out / "labels_used.csv"
    write_labels(labels_path, labels)
    return [splits_path, labels_path]


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )


def cmd_train(args) -> int:
    trace = ingest(args.input, [args.sensor])
    labels, splits, norm, train_w, val_w = _prepare_training_windows(args, trace)
    model = init_model(
        args.hs, args.layers, window_size=args.window_size, seed=args.seed, norm=norm
    )
    result = train(model, train_w, val_w, _train_config(args))

    out = _out_dir(args)
    split_paths = _write_split(out, labels, splits)
    model_path = out / "model.bin"
    save_model(model_path, replace(result.model, split=_split_digest(splits)))
    history_path = out / "history.csv"
    with history_path.open("w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for s in result.history:
            fh.write(f"{s.epoch},{s.train_loss!r},{s.val_loss!r}\n")

    _write_manifest(
        args,
        inputs=[args.input] + ([args.labels] if args.labels else []),
        outputs=[model_path, history_path, *split_paths],
        trace=trace,
    )
    print(
        f"trained {result.epochs_run} epochs; best epoch {result.best_epoch} "
        f"val loss {result.best_val_loss:.6g}; model at {model_path}"
    )
    return 0


def cmd_search(args) -> int:
    trace = ingest(args.input, [args.sensor])
    labels, splits, norm, train_w, val_w = _prepare_training_windows(args, trace)
    space = SearchSpace(
        hs_range=_parse_range(args.hs_range),
        n_range=_parse_range(args.layers_range),
        trials=args.trials,
        seed=args.seed,
    )
    # Every trial trains before `random_search` writes a checkpoint, and
    # the split files follow, so a failed trial leaves `--out-dir` as it was.
    results = random_search(
        space, train_w, val_w, norm, _train_config(args),
        out_dir=args.out_dir, split=_split_digest(splits),
    )
    out = _out_dir(args)
    split_paths = _write_split(out, labels, splits)
    report_path = out / "search_report.csv"
    write_search_report(report_path, results)

    outputs = [report_path, *split_paths] + [r.model_path for r in results if r.model_path]
    _write_manifest(
        args,
        inputs=[args.input] + ([args.labels] if args.labels else []),
        outputs=outputs,
        trace=trace,
    )
    best = results[0]
    print(
        f"searched {len(results)} configurations; best hs={best.hs} layers={best.n} "
        f"val loss {best.best_val_loss:.6g}; report at {report_path}"
    )
    return 0


def cmd_calibrate(args) -> int:
    if args.alpha is not None:
        threshold = Threshold(alpha=args.alpha, method="manual")
        threshold_path = _out_dir(args) / "threshold.json"
        write_threshold(threshold_path, threshold)
        _write_manifest(args, inputs=[], outputs=[threshold_path])
        print(f"manual threshold alpha={threshold.alpha!r} at {threshold_path}")
        return 0

    if not (args.checkpoint and args.input and args.splits):
        raise UsageError("calibrate needs --checkpoint, --input and --splits (or --alpha)")
    model = load_model(args.checkpoint)
    splits = read_splits(args.splits)
    digest = _sha256(args.splits)
    if model.split is not None and digest != model.split:
        raise SplitMismatch(
            f"{args.splits} (SHA-256 {digest}) is not the split {args.checkpoint} "
            f"was trained on ({model.split})"
        )
    trace = ingest(args.input, [args.sensor])
    val_w = make_windows(
        trace, args.sensor, splits.validation, model.window_size, args.stride, model.norm
    )
    holdout_w = make_windows(
        trace, args.sensor, splits.holdout, model.window_size, args.stride, model.norm
    )
    threshold = calibrate(
        model, val_w.matrix, holdout_windows=holdout_w.matrix, quantile=args.quantile
    )
    threshold_path = _out_dir(args) / "threshold.json"
    write_threshold(threshold_path, threshold)

    _write_manifest(
        args,
        inputs=[args.checkpoint, args.input, args.splits],
        outputs=[threshold_path],
        trace=trace,
        digests={args.splits: digest},
    )
    stats = threshold.calibration_stats
    extra = (
        f"; holdout exceedances {stats.holdout_exceedances}"
        if stats and stats.holdout_exceedances is not None
        else ""
    )
    print(
        f"calibrated alpha={threshold.alpha!r} ({threshold.method}, "
        f"{len(val_w)} validation windows){extra}; at {threshold_path}"
    )
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.checkpoint)
    if args.threshold:
        threshold = read_threshold(args.threshold)
    elif args.alpha is not None:
        threshold = Threshold(alpha=args.alpha, method="manual")
    else:
        raise UsageError("detect needs --threshold or --alpha")
    trace = ingest(args.input, [args.sensor])
    scores = score_trace(model, trace, args.sensor, stride=args.stride)
    events = detect(scores, threshold, merge_gap=args.merge_gap)

    out = _out_dir(args)
    events_path = out / "ae_events.csv"
    write_events(events_path, events)
    inputs = [args.checkpoint, args.input] + ([args.threshold] if args.threshold else [])
    run = {
        "windows_scored": len(scores.errors),
        "gap_spans": len(scores.gaps),
        "gap_seconds": sum(b - a for a, b in scores.gaps),
        "events": _events_by_class(events),
    }
    _write_manifest(args, inputs=inputs, outputs=[events_path], trace=trace, run=run)
    sys.stdout.write(format_summary(events))
    print(f"{len(events)} events at {events_path}")
    return 0


def cmd_rba(args) -> int:
    trace = ingest(args.input, [args.sensor])
    config = RbaConfig(
        base_temp=args.base_temp,
        band=args.band,
        min_duration=args.min_duration,
        max_duration=args.max_duration,
    )
    events = rba_detect(trace, args.sensor, config)

    out = _out_dir(args)
    events_path = out / "rba_events.csv"
    write_events(events_path, events)
    _write_manifest(
        args, inputs=[args.input], outputs=[events_path], trace=trace,
        run={"events": _events_by_class(events)},
    )
    sys.stdout.write(format_summary(events))
    print(f"{len(events)} events at {events_path}")
    return 0


def cmd_corr(args) -> int:
    if args.sensors:
        sensors = [s for s in args.sensors.split(",") if s]
        trace = ingest(args.input, sensors)
    else:
        trace = ingest(args.input)
        sensors = [c.name for c in trace.columns if c.unit == "°C"]
    if args.days:
        days = [_parse_date(d) for d in args.days.split(",") if d]
    elif args.labels:
        wanted = "normal" if args.population == "normal-days" else "anomalous"
        days = [l.day for l in read_labels(args.labels) if l.label == wanted]
    else:
        raise UsageError("corr needs --days or --labels to pick the day set")
    matrix = pearson_matrix(trace, sensors, days)

    out = _out_dir(args)
    matrix_path = out / f"correlation_{args.population}.csv"
    write_correlation(matrix_path, matrix)
    inputs = [args.input] + ([args.labels] if args.labels else [])
    _write_manifest(args, inputs=inputs, outputs=[matrix_path], trace=trace)
    print(f"{len(sensors)}x{len(sensors)} matrix over {len(days)} days at {matrix_path}")
    return 0


def _overlaps(a_start: int, a_end: int, b_start: int, b_end: int, tol: int) -> bool:
    return a_start - tol <= b_end and b_start - tol <= a_end


def cmd_report(args) -> int:
    if args.window_size < 0 or args.period < 0:
        raise UsageError("report needs a --window-size and --period of 0 or more")
    if args.truth:
        reference = read_events(args.truth)
    elif args.rba_events:
        reference = read_events(args.rba_events)
    else:
        raise UsageError("report needs --truth or --rba-events as the reference")
    ae = read_events(args.ae_events) if args.ae_events else []
    rba = read_events(args.rba_events) if args.rba_events else []
    tol = args.window_size * args.period

    out = _out_dir(args)
    report_path = out / "report.csv"
    matched_ae: set = set()
    matched_rba: set = set()
    with report_path.open("w", encoding="utf-8") as fh:
        fh.write("start,end,class_hint,rba,ae\n")
        for ev in reference:
            hit_rba = [
                i
                for i, r in enumerate(rba)
                if _overlaps(ev.start_ts, ev.end_ts, r.start_ts, r.end_ts, tol)
            ]
            hit_ae = [
                i
                for i, a in enumerate(ae)
                if _overlaps(ev.start_ts, ev.end_ts, a.start_ts, a.end_ts, tol)
            ]
            matched_rba.update(hit_rba)
            matched_ae.update(hit_ae)
            fh.write(
                f"{_iso(ev.start_ts)},{_iso(ev.end_ts)},{ev.class_hint},"
                f"{'yes' if hit_rba else 'no'},{'yes' if hit_ae else 'no'}\n"
            )

    run = {
        "unmatched_ae": len(ae) - len(matched_ae),
        "unmatched_rba": len(rba) - len(matched_rba),
    }
    inputs = [p for p in (args.truth, args.ae_events, args.rba_events) if p]
    _write_manifest(args, inputs=inputs, outputs=[report_path], run=run)
    print(
        f"{len(reference)} reference events; {run['unmatched_ae']} unmatched AE, "
        f"{run['unmatched_rba']} unmatched RBA; table at {report_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser, *, input_required: bool = True) -> None:
    p.add_argument("--input", required=input_required, help="trace file to read")
    p.add_argument("--sensor", default="temp_core", help="sensor column to analyze")
    p.add_argument("--out-dir", required=True, help="directory for outputs")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-size", type=int, default=60, help="readings per window")
    p.add_argument("--stride", type=int, default=1, help="window start spacing")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--labels", default=None, help="day-label file (default: auto-label)")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="fraction of normal days held for validation")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=5,
                   help="epochs without validation improvement before stopping")
    p.add_argument("--seed", type=int, default=0, help="seeds init and shuffling")


def _synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--sensors", choices=sorted(LAYOUTS), default="single")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-day", default="2021-06-01")
    p.add_argument("--anomaly", action="append", metavar="DAY:CLASS:MINUTE",
                   help=f"schedule an anomaly (classes: {', '.join(ANOMALY_CLASSES)}); "
                        "repeatable")
    p.add_argument("--format", choices=sorted(FORMATS), default="csv")
    p.add_argument("--out-dir", required=True)


def _train_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_window_flags(p)
    p.add_argument("--hs", type=int, default=16, help="hidden units per layer")
    p.add_argument("--layers", type=int, default=1, help="stacked layers per side")
    _add_training_flags(p)


def _search_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_window_flags(p)
    p.add_argument("--hs-range", default="2:64", metavar="LO:HI")
    p.add_argument("--layers-range", default="1:4", metavar="LO:HI")
    p.add_argument("--trials", type=int, default=20)
    _add_training_flags(p)


def _calibrate_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p, input_required=False)
    p.add_argument("--checkpoint", default=None, help="trained model file")
    p.add_argument("--splits", default=None, help="split file from train or search")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--quantile", type=float, default=1.0,
                   help="validation-error quantile (1.0 = maximum)")
    p.add_argument("--alpha", type=float, default=None,
                   help="manual threshold; skips calibration")


def _detect_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="trained model file")
    p.add_argument("--threshold", default=None, help="threshold file from calibrate")
    p.add_argument("--alpha", type=float, default=None, help="manual threshold")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--merge-gap", type=int, default=DEFAULT_MERGE_GAP_S,
                   help="seconds between hits merged into one event")


def _rba_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--base-temp", type=float, default=34.5)
    p.add_argument("--band", type=float, default=1.0)
    p.add_argument("--min-duration", type=int, default=2, help="minutes")
    p.add_argument("--max-duration", type=int, default=20, help="minutes")


def _corr_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--sensors", default=None,
                   help="comma-separated sensor names (default: all temperatures)")
    p.add_argument("--days", default=None, help="comma-separated dates")
    p.add_argument("--labels", default=None, help="day-label file")
    p.add_argument("--population", choices=("normal-days", "anomalous-days"),
                   default="normal-days")


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--truth", default=None, help="ground-truth event file")
    p.add_argument("--ae-events", default=None)
    p.add_argument("--rba-events", default=None)
    p.add_argument("--window-size", type=int, default=60,
                   help="matching tolerance, in readings")
    p.add_argument("--period", type=int, default=60, help="seconds per reading")
    p.add_argument("--out-dir", required=True)


#: Every subcommand as (name, help, flag builder, handler), in help order.
COMMANDS = (
    ("synth", "generate a synthetic trace with ground truth", _synth_flags, cmd_synth),
    ("train", "train the autoencoder on normal days", _train_flags, cmd_train),
    ("search", "random hyperparameter search", _search_flags, cmd_search),
    ("calibrate", "set the anomaly threshold", _calibrate_flags, cmd_calibrate),
    ("detect", "score a trace and emit events", _detect_flags, cmd_detect),
    ("rba", "rule-based swarm detection", _rba_flags, cmd_rba),
    ("corr", "sensor correlation matrix over a day set", _corr_flags, cmd_corr),
    ("report", "per-event detector comparison table", _report_flags, cmd_report),
)
_COMMAND_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hivewatch` parser with every subcommand, or with `command`'s only.

    The one-command parser prints that command's help and errors byte for
    byte as the full one does: a subparser's `prog` is `hivewatch <cmd>`
    either way, and the top-level usage, printed for an unrecognized
    argument, names every command through the metavar. Only the full
    parser can reject an unknown command or list them all under `--help`.
    """
    parser = argparse.ArgumentParser(
        prog="hivewatch",
        description="Beehive sensor anomaly detection: reconstruction-based "
        "detector with a rule-based baseline.",
    )
    parser.add_argument("--version", action="version", version=f"hivewatch {__version__}")
    # A metavar would also rename the subcommand argument in the full
    # parser's own errors ("required: command"), so only the one-command
    # parser sets it.
    metavar = None if command is None else "{%s}" % ",".join(_COMMAND_NAMES)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_flags, handler in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (InvalidHyperparameter, TrainingDiverged, ValueError) as exc:
        print(f"error: usage: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"error: data: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
