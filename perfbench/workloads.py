"""The two workloads: their inputs, their closed-loop operations and the
checks made on what the program wrote.

Inputs come only from the benchmark seed; the program sees nothing but
the files written here. Set-up reaches the generator and the trace
writer through their modules so that a traced run sees those calls too.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import hivewatch.analysis.synthetic as synthetic
import hivewatch.cli as cli
import hivewatch.data as data
import oracles

WINDOW = 60
HIDDEN = 16
FIT_EPOCHS = 2
TRAIN_SEED = 42
SAFETY_MARGIN = 1.05
RULE = dict(base=34.5, band=1.0, lo=2, hi=20)
ANOMALY_KINDS = ("swarm", "opening", "varroa-treatment", "sensor-failure")


@dataclass
class Command:
    name: str
    argv: list[str]
    out_dir: Path
    readings: int  # rows x sensor columns of the file the command reads


@dataclass
class Op:
    """One unit of closed-loop work: its commands run back to back."""

    key: str
    commands: list[Command]


@dataclass
class Record:
    """What one operation did in one round."""

    key: str
    traced: bool
    commands: list[tuple[str, int, float]]  # (name, exit code, seconds)
    readings: int  # readings of the files its successful commands read

    @property
    def seconds(self) -> float:
        return sum(dt for _, _, dt in self.commands)

    @property
    def succeeded(self) -> bool:
        return all(rc == 0 for _, rc, _ in self.commands)


@dataclass
class TraceFile:
    """One generated trace as written to disk, with what generated it."""

    path: Path
    labels: Path
    trace: object  # hivewatch SensorTrace straight from the generator
    truth: list
    anomalous_days: set

    @property
    def readings(self) -> int:
        return len(self.trace) * len(self.trace.columns)


@dataclass
class Plan:
    files: list[TraceFile]
    extra: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `hivewatch` command; (exit code, captured output).

    `cli.main` is looked up at call time so that a traced run reaches it.
    """
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def _write_file(path: Path, config) -> TraceFile:
    trace, truth = synthetic.generate(config)
    data.write_trace(path, trace)
    anomalous = {config.start_day + timedelta(days=d) for d, _, _ in config.anomaly_schedule}
    labels = path.with_name(path.stem + "_labels.csv")
    data.write_labels(labels, [
        data.DayLabel(day, "anomalous" if day in anomalous else "normal", "auto")
        for day in trace.days()
    ])
    return TraceFile(path, labels, trace, truth, anomalous)


def _start_day(rng) -> date:
    return date(2021, 5, 1) + timedelta(days=int(rng.integers(0, 120)))


def _gen_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _col(tf: TraceFile, sensor: str) -> np.ndarray:
    return tf.trace.values[tf.trace.sensor_names.index(sensor)]


def _day_mask(tf: TraceFile, days) -> np.ndarray:
    nums = np.array([(d - date(1970, 1, 1)).days for d in days], dtype=np.int64)
    return np.isin(tf.trace.timestamps // 86400, nums)


def _read_splits(path: Path) -> dict[str, list[date]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition("=")
        out[key] = [date.fromisoformat(d) for d in rest.split(",") if d]
    return out


def _check_rule_events(tf: TraceFile, sensor: str, table: Path, where: str) -> list[str]:
    got = oracles.read_event_table(table)
    want = oracles.rule_runs(tf.trace.timestamps, _col(tf, sensor), **RULE)
    if [g[:4] for g in got] != want:
        return [f"{where}: rba events {[g[:4] for g in got]} != enumeration {want}"]
    if any(g[4:] != ("RBA", "swarm-like") for g in got):
        return [f"{where}: rba events carry wrong method or class"]
    return []


def _check_ingest(tf: TraceFile, where: str) -> list[str]:
    """The program's `ingest` returns the generated readings bit for bit."""
    got = data.ingest(tf.path)
    want = tf.trace
    same_nan = np.array_equal(np.isnan(got.values), np.isnan(want.values))
    present = ~np.isnan(want.values)
    same_bits = np.array_equal(got.values[present].view(np.uint64),
                               want.values[present].view(np.uint64))
    if not (np.array_equal(got.timestamps, want.timestamps) and same_nan and same_bits):
        return [f"{where}: ingested readings differ from the generated arrays"]
    return []


def _check_matrix(tf: TraceFile, path: Path, days, where: str) -> list[str]:
    names, got = oracles.read_matrix(path)
    want_names = [c.name for c in tf.trace.columns if c.unit == "°C"]
    if names != want_names:
        return [f"{where}: sensors {names} != {want_names}"]
    if not (np.array_equal(got, got.T) and np.all(np.diag(got) == 1.0)):
        return [f"{where}: matrix not exactly symmetric with a unit diagonal"]
    mask = _day_mask(tf, days)
    cols = [_col(tf, n) for n in names]
    worst = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            both = mask & np.isfinite(cols[i]) & np.isfinite(cols[j])
            r = oracles.pearson_two_pass(cols[i][both], cols[j][both])
            worst = max(worst, abs(got[i, j] - r))
    if not worst < 1e-10:
        return [f"{where}: Pearson deviates from the two-pass reference by {worst:.2e}"]
    return []


# ---------------------------------------------------------------------------
# fit: train + calibrate on one single-sensor trace, then a correlation
# study over the normal days of a multi-sensor trace


class Fit:
    name = "fit"
    min_rounds = 3
    setup_repeats = 9  # a set-up takes about 0.35 s
    days = 5

    def setup(self, root: Path, seed: int) -> Plan:
        rng = np.random.default_rng([seed, 1])
        schedule = (
            (3, "swarm", int(rng.integers(60, 1300))),
            (4, "opening", int(rng.integers(60, 600))),
            (4, "sensor-failure", int(rng.integers(700, 1300))),
        )
        config = synthetic.SynthConfig(days=self.days, sensors="single", seed=_gen_seed(rng),
                                       anomaly_schedule=schedule, start_day=_start_day(rng))
        root.mkdir(parents=True)
        trace = _write_file(root / "trace.csv", config)
        # The study trace: all four anomaly classes on distinct days, so
        # that the normal days are a fixed count whatever the seed.
        days = rng.choice(self.days, size=len(ANOMALY_KINDS), replace=False)
        study = synthetic.SynthConfig(
            days=self.days, sensors="hobos-13", seed=_gen_seed(rng), start_day=_start_day(rng),
            anomaly_schedule=tuple((int(d), kind, int(rng.integers(30, 1300)))
                                   for d, kind in zip(days, ANOMALY_KINDS)))
        return Plan([trace, _write_file(root / "study.csv", study)])

    def ops(self, plan: Plan, out: Path) -> list[Op]:
        tf = plan.files[0]
        train_dir, cal_dir = out / "train", out / "cal"
        train = ["train", "--input", str(tf.path), "--sensor", "temp_core",
                 "--labels", str(tf.labels), "--window-size", str(WINDOW),
                 "--hs", str(HIDDEN), "--layers", "1", "--batch-size", "256",
                 "--max-epochs", str(FIT_EPOCHS), "--patience", str(FIT_EPOCHS),
                 "--seed", str(TRAIN_SEED), "--out-dir", str(train_dir)]
        calibrate = ["calibrate", "--input", str(tf.path), "--sensor", "temp_core",
                     "--checkpoint", str(train_dir / "model.bin"),
                     "--splits", str(train_dir / "splits.txt"), "--quantile", "1.0",
                     "--out-dir", str(cal_dir)]
        study, corr_dir = plan.files[1], out / "corr"
        corr = ["corr", "--input", str(study.path), "--labels", str(study.labels),
                "--population", "normal-days", "--out-dir", str(corr_dir)]
        return [Op("fit", [Command("train", train, train_dir, tf.readings),
                           Command("calibrate", calibrate, cal_dir, tf.readings),
                           Command("corr", corr, corr_dir, study.readings)])]

    def check(self, plan: Plan, ops: list[Op], ok: set) -> list[str]:
        if ok != {("fit", "train"), ("fit", "calibrate"), ("fit", "corr")}:
            return []  # failures are counted, not checked
        from hivewatch.nn.checkpoint import load_model
        from hivewatch.nn.model import loss_and_gradients

        tf, study = plan.files
        train_dir, cal_dir, corr_dir = (c.out_dir for c in ops[0].commands)
        errors = _check_ingest(study, "fit study")
        errors += _check_matrix(study, next(corr_dir.glob("correlation_*.csv")),
                                set(study.trace.days()) - study.anomalous_days, "fit corr")
        splits = _read_splits(train_dir / "splits.txt")
        col = _col(tf, "temp_core")
        ts = tf.trace.timestamps

        history = (train_dir / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        val_losses = [float(line.split(",")[2]) for line in history]
        if len(val_losses) != FIT_EPOCHS:
            errors.append(f"fit: {len(val_losses)} epochs run, expected {FIT_EPOCHS}")

        train_mask = _day_mask(tf, splits["training"])
        train_vals = col[train_mask & np.isfinite(col)]
        mean, std = float(np.mean(train_vals)), float(np.std(train_vals))
        hyper, norm, params = oracles.read_checkpoint(train_dir / "model.bin")
        if (hyper["window_size"], hyper["hidden_size"], hyper["n_layers"]) != (WINDOW, HIDDEN, 1):
            errors.append(f"fit: checkpoint hyperparameters {hyper}")
        if oracles.relative_error(norm["mean"], mean, 0) > 1e-12 or \
                oracles.relative_error(norm["std"], std, 0) > 1e-12:
            errors.append(f"fit: checkpoint normalization {norm} vs {mean}, {std}")

        val_starts = oracles.window_starts(ts, col, _day_mask(tf, splits["validation"]), WINDOW)
        initial = oracles.initial_params(HIDDEN, 1, TRAIN_SEED)
        initial_loss = oracles.mean_loss(
            initial, oracles.window_matrix(col, val_starts, WINDOW, mean, std))
        if not min(val_losses) < initial_loss:
            errors.append(f"fit: best val loss {min(val_losses)} not below initial {initial_loss}")

        X_val = oracles.window_matrix(col, val_starts, WINDOW, norm["mean"], norm["std"])
        want_alpha = SAFETY_MARGIN * float(np.max(oracles.window_errors(params, X_val)))
        alpha = json.loads((cal_dir / "threshold.json").read_text(encoding="utf-8"))["alpha"]
        if oracles.relative_error(alpha, want_alpha, 0) > 1e-9:
            errors.append(f"fit: alpha {alpha!r} != 1.05 x reference max error {want_alpha!r}")

        rng = np.random.default_rng(0)
        X = X_val[:, rng.choice(X_val.shape[1], size=8, replace=False)]
        _, analytic = loss_and_gradients(load_model(train_dir / "model.bin"), X)
        entries = [(name, int(i)) for name, arr in params.items()
                   for i in rng.choice(arr.size, size=min(3, arr.size), replace=False)]
        numeric = oracles.finite_difference_probe(params, X, entries)
        for (name, i), num in zip(entries, numeric):
            err = oracles.relative_error(float(analytic[name].reshape(-1)[i]), num)
            if err >= 1e-4:
                errors.append(f"fit: gradient {name}[{i}] rel err {err:.2e}")

        train_starts = oracles.window_starts(ts, col, train_mask, WINDOW)
        plan.extra["train_windows"] = len(train_starts)
        plan.extra["epochs"] = len(val_losses)
        return errors

    def detail(self, plan: Plan, best: dict) -> dict:
        seconds = {name: dt for name, _, dt in best["fit"].commands}
        windows = plan.extra.get("train_windows", 0) * plan.extra.get("epochs", 0)
        return {"train_s": seconds["train"], "calibrate_s": seconds["calibrate"],
                "train_windows_per_s": windows / seconds["train"], "corr_s": seconds["corr"]}


# ---------------------------------------------------------------------------
# fleet-score: detect + rba on each hive's upload


class FleetScore:
    name = "fleet-score"
    min_rounds = 2
    setup_repeats = 3
    hives = 40
    patterns = ((), ("swarm",), ("opening", "varroa-treatment"), ("sensor-failure",),
                ("swarm", "sensor-failure"))

    def setup(self, root: Path, seed: int) -> Plan:
        rng = np.random.default_rng([seed, 2])
        root.mkdir(parents=True)
        model = _write_file(root / "model_trace.csv", synthetic.SynthConfig(
            days=3, sensors="single", seed=_gen_seed(rng), start_day=_start_day(rng)))
        train_dir, cal_dir = root / "model", root / "threshold"
        common = ["--input", str(model.path), "--sensor", "temp_core", "--stride", "10"]
        for argv in (
            ["train", *common, "--labels", str(model.labels), "--window-size", str(WINDOW),
             "--hs", str(HIDDEN), "--layers", "1", "--batch-size", "256", "--max-epochs", "2",
             "--patience", "2", "--seed", str(TRAIN_SEED), "--out-dir", str(train_dir)],
            ["calibrate", *common, "--checkpoint", str(train_dir / "model.bin"),
             "--splits", str(train_dir / "splits.txt"), "--out-dir", str(cal_dir)],
        ):
            rc, text = run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"fleet-score set-up: {argv[0]} exited {rc}: {text}")

        files = []
        for i in range(self.hives):
            backfill = i % 10 == 9  # multi-day backfill uploads
            days = 2 if backfill else 1
            kinds = self.patterns[(i // 10) % 5 if backfill else i % 5]
            schedule = tuple(
                (int(rng.integers(0, days)), kind, int(rng.integers(*span)))
                for kind, span in zip(kinds, ((30, 650), (720, 1300)))
            )
            files.append(_write_file(root / f"hive{i:02d}.csv", synthetic.SynthConfig(
                days=days, sensors="single", seed=_gen_seed(rng), anomaly_schedule=schedule,
                start_day=_start_day(rng))))
        return Plan(files, {"model": train_dir / "model.bin",
                            "threshold": cal_dir / "threshold.json"})

    def ops(self, plan: Plan, out: Path) -> list[Op]:
        ops = []
        for tf in plan.files:
            det, rba = out / tf.path.stem / "detect", out / tf.path.stem / "rba"
            ops.append(Op(tf.path.stem, [
                Command("detect", ["detect", "--input", str(tf.path), "--sensor", "temp_core",
                                   "--checkpoint", str(plan.extra["model"]),
                                   "--threshold", str(plan.extra["threshold"]),
                                   "--out-dir", str(det)], det, tf.readings),
                Command("rba", ["rba", "--input", str(tf.path), "--sensor", "temp_core",
                                "--out-dir", str(rba)], rba, tf.readings),
            ]))
        return ops

    def check(self, plan: Plan, ops: list[Op], ok: set) -> list[str]:
        errors = []
        sampled = {"hive01", "hive19"}  # one day with a swarm; a backfill with a swarm
        for tf, op in zip(plan.files, ops):
            key = op.key
            det, rba = op.commands[0].out_dir, op.commands[1].out_dir
            if (key, "rba") in ok:
                errors += _check_rule_events(tf, "temp_core", rba / "rba_events.csv", key)
                rule = oracles.read_event_table(rba / "rba_events.csv")
                for t in tf.truth:
                    if t.class_hint == "swarm" and not any(
                            s < t.end_ts and t.start_ts < e for s, e, *_ in rule):
                        errors.append(f"{key}: swarm at {oracles.iso(t.start_ts)} missed by rba")
            if (key, "detect") in ok:
                events = oracles.read_event_table(det / "ae_events.csv")
                spans = {(s, e) for s, e, _, _, _, hint in events if hint == "data-gap"}
                for t in tf.truth:
                    if t.class_hint == "sensor-failure" and (t.start_ts, t.end_ts) not in spans:
                        errors.append(f"{key}: sensor failure {oracles.iso(t.start_ts)} "
                                      "has no data-gap event with its span")
                if key in sampled:
                    errors += self._check_scores(plan, tf, events, key)
        return errors

    def _check_scores(self, plan: Plan, tf: TraceFile, events, key) -> list[str]:
        """Window errors against the reference forward, the CLI's events
        against a recomputation, and a sweep of rising thresholds."""
        from hivewatch.detector import Threshold, detect, read_threshold, score_trace
        from hivewatch.nn.checkpoint import load_model

        errors = []
        _, norm, params = oracles.read_checkpoint(plan.extra["model"])
        scores = score_trace(load_model(plan.extra["model"]), data.ingest(tf.path), "temp_core")
        col, ts = _col(tf, "temp_core"), tf.trace.timestamps
        starts = oracles.window_starts(ts, col, np.ones(len(ts), bool), WINDOW)
        if not np.array_equal(ts[starts], scores.start_ts):
            return [f"{key}: scored windows differ from the reference window set"]
        rng = np.random.default_rng(len(starts))
        pick = rng.choice(len(starts), size=min(64, len(starts)), replace=False)
        want = oracles.window_errors(
            params, oracles.window_matrix(col, starts[pick], WINDOW, norm["mean"], norm["std"]))
        worst = max(oracles.relative_error(g, w, 0) for g, w in zip(scores.errors[pick], want))
        if worst > 1e-9:
            errors.append(f"{key}: window error rel err {worst:.2e} vs reference")

        threshold = read_threshold(plan.extra["threshold"])
        redo = [(e.start_ts, e.end_ts, e.peak_ts, e.peak_score, e.method, e.class_hint)
                for e in detect(scores, threshold)]
        if redo != events:
            errors.append(f"{key}: ae_events.csv differs from detect() on the same scores")
        counts = [len(redo)]
        for scale in (1.25, 1.5, 2.0, 4.0, 8.0, 16.0):
            counts.append(len(detect(scores, Threshold(alpha=threshold.alpha * scale))))
        if any(a < b for a, b in zip(counts, counts[1:])):
            errors.append(f"{key}: raising alpha added events: {counts}")
        return errors

    def detail(self, plan: Plan, best: dict) -> dict:
        hive = [r.seconds for r in best.values() if r.succeeded]
        rows = {tf.path.stem: len(tf.trace) for tf in plan.files}
        scored = sum(rows[key] for key, r in best.items()
                     for name, rc, _ in r.commands if name == "detect" and rc == 0)
        return {"hive_p50_s": float(np.median(hive)),
                "hive_p75_s": float(np.percentile(hive, 75)),
                "scored_readings_per_s": scored / sum(r.seconds for r in best.values())}


WORKLOADS = {w.name: w for w in (Fit(), FleetScore())}
