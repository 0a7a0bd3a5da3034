"""hivewatch benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Set-up is repeated several times and its median reported;
then whole rounds of the workload's operations run back to back while
the next round, as long as the slowest so far, still ends within
`--seconds`, and at least the workload's minimum number of rounds (two
or three), so that every command has repeats to take its fastest from
and to compare artifacts with. With `--trace 1` the first
half of the time runs untraced and the second half traced, and the run
reports per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (nproc or fewer): the matrices are small, and a single
# thread keeps run-to-run spread low on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _pin_malloc() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc raises its mmap threshold as large blocks are freed,
    so whether a command's large NumPy arrays are mapped and page-faulted
    afresh on every allocation depends on what ran earlier in the process.
    Runs of the same code then settled in one of two states about 20%
    apart. Fixed thresholds make every repetition reuse heap memory.
    """
    import ctypes

    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to pin
        return
    if not (libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) and libc.mallopt(M_TRIM_THRESHOLD, 256 << 20)):
        raise RuntimeError("mallopt refused the malloc thresholds")


WORKLOAD_NAMES = ("fit", "fleet-score")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "readings_per_s": "readings/s",
    "peak_rss_mb": "MB",
}


def _digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under `directory`, manifests excluded: they
    record absolute paths."""
    if not directory.is_dir():
        return {}
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith("_manifest.json")
    }


class Runner:
    """Runs one workload's rounds and keeps what each command did."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.records = []
        self.rounds = []  # (traced, seconds of command time)
        self.first_digests: dict[tuple, dict] = {}
        self.rc_seen: dict[tuple, set] = {}
        self.errors: list[str] = []

    def run_round(self, traced: bool) -> None:
        from workloads import Record, run_cli

        total = 0.0
        for op in self.ops:
            done, readings = [], 0
            for cmd in op.commands:
                # A fresh CLI process starts without the previous command's
                # garbage; collect it here, untimed.
                gc.collect()
                start = time.perf_counter()
                try:
                    rc, text = run_cli(cmd.argv)
                except Exception:  # an escaped exception is a crashed command
                    rc, text = 1, traceback.format_exc()
                seconds = time.perf_counter() - start
                key = (op.key, cmd.name)
                if rc != 0 and key not in self.rc_seen:
                    print(f"{op.key} {cmd.name}: exit {rc}: {text.strip()[-300:]}",
                          file=sys.stderr)
                self.rc_seen.setdefault(key, set()).add(rc)
                done.append((cmd.name, rc, seconds))
                total += seconds
                if rc == 0:
                    readings += cmd.readings
                    digests = _digests(cmd.out_dir)
                    first = self.first_digests.setdefault(key, digests)
                    if digests != first:
                        self.errors.append(f"{op.key} {cmd.name}: artifacts differ from round 1")
            self.records.append(Record(op.key, traced, done, readings))
        self.rounds.append((traced, total))

    def run_for(self, seconds: float, min_rounds: int, traced: bool) -> None:
        """Whole rounds until `min_rounds` have run and the next round,
        as long as the slowest so far, would end after `seconds`."""
        start = time.perf_counter()
        done, longest = 0, 0.0
        while done < min_rounds or time.perf_counter() - start + longest <= seconds:
            round_start = time.perf_counter()
            self.run_round(traced)
            longest = max(longest, time.perf_counter() - round_start)
            done += 1

    def succeeded(self) -> set:
        return {key for key, rcs in self.rc_seen.items() if rcs == {0}}


def best_of_rounds(records, traced: bool = False) -> dict:
    """Each operation with every command at its fastest round.

    Noise from the rest of the machine only ever adds time, so the
    fastest repetition of a command is the steadiest estimate of its cost.
    """
    from workloads import Record

    fastest: dict[str, dict[str, tuple[int, float]]] = {}
    readings = {}
    for r in records:
        if r.traced != traced:
            continue
        commands = fastest.setdefault(r.key, {})
        for name, rc, seconds in r.commands:
            old_rc, old_s = commands.get(name, (0, seconds))
            commands[name] = (rc or old_rc, min(seconds, old_s))
        readings[r.key] = r.readings
    return {
        key: Record(key, traced, [(n, rc, s) for n, (rc, s) in commands.items()], readings[key])
        for key, commands in fastest.items()
    }


def end_to_end(best: dict, setup_times: list[float]) -> dict[str, float]:
    ok = [r.seconds for r in best.values() if r.succeeded]
    return {
        "setup_s": float(np.median(setup_times)),
        "op_p50_s": float(np.median(ok)),
        "op_p75_s": float(np.percentile(ok, 75)),
        "readings_per_s": sum(r.readings for r in best.values())
        / sum(r.seconds for r in best.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, runner: Runner, setups: int) -> dict[str, tuple[float, str]]:
    """Per-round layer times and counts from the traced rounds; set-up
    layers per set-up. The overhead is the median over operations of the
    traced time over the untraced time, each at its fastest round."""
    n = sum(1 for traced, _ in runner.rounds if traced)
    plain = best_of_rounds(runner.records)
    traced = best_of_rounds(runner.records, traced=True)
    slowdown = [traced[k].seconds / plain[k].seconds for k in plain]
    inc, own = tracer.totals("timed")
    setup_inc, _ = tracer.totals("setup")

    def count(key):
        return tracer.count("timed", key) / n

    lstm_s = inc["nn.lstm.forward"] + inc["nn.lstm.backward"]
    ingest_s = inc["data.ingest"]
    out = {
        "nn.lstm.forward_s": (inc["nn.lstm.forward"] / n, "s"),
        "nn.lstm.backward_s": (inc["nn.lstm.backward"] / n, "s"),
        "nn.lstm.gflop_per_s": (
            tracer.count("timed", "nn.lstm.flop") / 1e9 / lstm_s if lstm_s else 0.0, "gflop/s"),
        "nn.lstm.timesteps": (count("nn.lstm.timesteps"), "count"),
        "nn.model.loss_and_gradients_self_s": (own["nn.model.loss_and_gradients"] / n, "s"),
        "nn.adam.step_s": (inc["nn.adam.step"] / n, "s"),
        "nn.adam.steps": (count("nn.adam.steps"), "count"),
        "nn.training.self_s": (own["nn.training"] / n, "s"),
        "nn.training.val_s": (inc["nn.training.val"] / n, "s"),
        "nn.checkpoint.save_s": (inc["nn.checkpoint.save"] / n, "s"),
        "nn.checkpoint.load_s": (inc["nn.checkpoint.load"] / n, "s"),
        "data.ingest_s": (ingest_s / n, "s"),
        "data.ingest_rows_per_s": (
            tracer.count("timed", "data.ingest_rows") / ingest_s if ingest_s else 0.0, "rows/s"),
        "data.make_windows_s": (inc["data.make_windows"] / n, "s"),
        "data.windows": (count("data.windows"), "count"),
        "data.missing_spans_s": (inc["data.missing_spans"] / n, "s"),
        "data.write_trace_s": (setup_inc["data.write_trace"] / setups, "s"),
        "analysis.synthetic.generate_s": (
            setup_inc["analysis.synthetic.generate"] / setups, "s"),
        "analysis.correlation.pearson_s": (inc["analysis.correlation.pearson"] / n, "s"),
        "analysis.correlation.pairs": (count("analysis.correlation.pairs"), "count"),
        "rba.detect_s": (inc["rba.detect"] / n, "s"),
        "rba.events": (count("rba.events"), "count"),
        "detector.window_errors_s": (inc["detector.window_errors"] / n, "s"),
        "detector.windows_scored": (count("detector.windows_scored"), "count"),
        "detector.score_trace_self_s": (own["detector.score_trace"] / n, "s"),
        "detector.detect_s": (inc["detector.detect"] / n, "s"),
        "detector.events": (count("detector.events"), "count"),
        "detector.write_events_s": (inc["detector.write_events"] / n, "s"),
        "cli.manifest_s": (inc["cli.manifest"] / n, "s"),
        "cli.command_self_s": (own["cli.command"] / n, "s"),
        "trace.overhead_pct": (100.0 * (float(np.median(slowdown)) - 1.0), "%"),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_malloc()

    if not (ROOT / "src" / "hivewatch" / "__init__.py").is_file():
        print(f"error: no hivewatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        setup_times, setup_digests = [], []
        plan = None
        for i in range(workload.setup_repeats):
            start = time.perf_counter()
            this_plan = workload.setup(work / f"setup{i}", args.seed)
            setup_times.append(time.perf_counter() - start)
            setup_digests.append(_digests(work / f"setup{i}"))
            if plan is None:
                plan = this_plan
            else:
                shutil.rmtree(work / f"setup{i}")
        if tracer:
            tracer.uninstall()

        runner = Runner(workload.ops(plan, work / "out"))
        if any(d != setup_digests[0] for d in setup_digests):
            runner.errors.append("set-up wrote different files on repetition")
        if tracer:
            runner.run_for(args.seconds / 2, 1, traced=False)
            tracer.phase = "timed"
            tracer.install()
            runner.run_for(args.seconds / 2, 1, traced=True)
            tracer.uninstall()
        else:
            runner.run_for(args.seconds, workload.min_rounds, traced=False)

        runner.errors += workload.check(plan, runner.ops, runner.succeeded())
        best = best_of_rounds(runner.records)
        detail = workload.detail(plan, best)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "round_s": [round(s, 3) for _, s in runner.rounds], "detail": detail}))
        if tracer:
            scratch.mkdir(exist_ok=True)
            tracer.write(scratch / f"spans-{args.workload}-seed{args.seed}.jsonl")
            layers = per_layer(tracer, runner, workload.setup_repeats)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end(best, setup_times).items()}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for message in runner.errors:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(len(r.commands) for r in runner.records)
    failed = sum(1 for r in runner.records for _, rc, _ in r.commands if rc != 0)
    correct = not runner.errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
