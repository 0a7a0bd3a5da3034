"""Acceptance suite: seven pass/fail gates for the whole package.

Each test is one gate, self-contained down to its oracle: exact
gradients against finite differences, the rule detector against a
from-scratch run enumeration, Pearson against a two-pass reference, and
the full pipeline (via the CLI) against its generator's ground truth,
its own determinism, and its window/normalization contracts.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conftest import E2E_ARTIFACTS, IDENT_NORM, PipelineRun
from hivewatch.analysis import SynthConfig, generate, pearson_matrix
from hivewatch.data import (
    SensorColumn,
    SensorTrace,
    fit_normalization,
    make_windows,
    sample_period,
)
from hivewatch.detector import (
    Threshold,
    detect,
    read_events,
    read_threshold,
    score_trace,
)
from hivewatch.nn import init_model, load_model
from hivewatch.nn.model import backward, forward, model_parameters, reconstruction_loss
from hivewatch.rba import RbaConfig, rba_detect

# ---------------------------------------------------------------------------
# 1. Exact gradients


def finite_difference_gradients(model, window: np.ndarray, h: float = 1e-5) -> dict:
    """Central differences of the reconstruction loss, every parameter."""
    grads = {}
    for key, arr in model_parameters(model).items():
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = reconstruction_loss(window, forward(model, window))
            flat[idx] = orig - h
            down = reconstruction_loss(window, forward(model, window))
            flat[idx] = orig
            gf[idx] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def test_1_gradients_match_finite_differences() -> None:
    """Analytic gradients agree with central finite differences
    (h=1e-5) to relative error < 1e-4 on 20 random configurations."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        hs = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        w = int(rng.integers(4, 9))
        model = init_model(hs, n, window_size=w, seed=trial, norm=IDENT_NORM)
        window = rng.normal(0.0, 1.0, w)
        analytic = backward(model, window)
        numeric = finite_difference_gradients(model, window)
        assert analytic.keys() == numeric.keys()
        for key in analytic:
            err = relative_error(analytic[key], numeric[key])
            worst = max(worst, err)
            assert err < 1e-4, f"trial {trial} {key}: rel err {err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS gradients: worst rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Rule detector vs enumeration oracle


def enumerate_rule_events(trace: SensorTrace, sensor: str, config: RbaConfig):
    """Independent reference: walk every reading, tracking maximal runs
    that stay above the band with consecutive timestamps."""
    col = trace.sensor(sensor)
    ts = trace.timestamps
    period = sample_period(trace)
    limit = config.base_temp + config.band
    events = []
    run: list[int] = []
    for i in range(len(trace) + 1):
        above = (
            i < len(trace)
            and np.isfinite(col[i])
            and col[i] > limit
            and (not run or ts[i] - ts[run[-1]] == period)
        )
        if above:
            run.append(i)
            continue
        if run:
            minutes = len(run)  # one reading per minute
            if config.min_duration <= minutes <= config.max_duration:
                peak = run[int(np.argmax(col[run]))]
                events.append(
                    (int(ts[run[0]]), int(ts[run[-1]]) + period, int(ts[peak]))
                )
            run = []
        if i < len(trace) and np.isfinite(col[i]) and col[i] > limit:
            run = [i]
    return events


def random_rule_day(rng: np.random.Generator) -> SensorTrace:
    n = 1440
    vals = rng.normal(34.5, 0.4, n)
    for _ in range(int(rng.integers(0, 6))):
        at = int(rng.integers(0, n - 40))
        span = int(rng.integers(1, 35))
        vals[at : at + span] += rng.uniform(0.5, 3.0)
    for _ in range(int(rng.integers(0, 4))):
        at = int(rng.integers(0, n - 10))
        vals[at : at + int(rng.integers(1, 10))] = np.nan
    ts = 1_600_000_000 + 60 * np.arange(n, dtype=np.int64)
    if rng.random() < 0.5:  # drop a block of rows entirely
        at = int(rng.integers(1, n - 30))
        keep = np.r_[np.arange(at), np.arange(at + int(rng.integers(1, 20)), n)]
        ts, vals = ts[keep], vals[keep]
    return SensorTrace(
        hive_id="day",
        columns=[SensorColumn("temp_core", "°C")],
        timestamps=ts,
        values=vals[None, :],
    )


def test_2_rule_detector_matches_enumeration_oracle() -> None:
    """Detected event sets are exactly equal to the brute-force run
    enumeration on 200 random days."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    config = RbaConfig()
    total = 0
    for day in range(200):
        if day % 4 == 0:  # every fourth day comes from the generator
            kind = ("swarm", "varroa-treatment", "opening")[day % 3]
            trace, _ = generate(
                SynthConfig(
                    days=1,
                    seed=day,
                    anomaly_schedule=((0, kind, int(rng.integers(0, 1300))),),
                )
            )
        else:
            trace = random_rule_day(rng)
        got = [
            (e.start_ts, e.end_ts, e.peak_ts)
            for e in rba_detect(trace, "temp_core", config)
        ]
        want = enumerate_rule_events(trace, "temp_core", config)
        assert got == want, f"day {day}: {got} != {want}"
        total += len(want)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS rule oracle: 200 days, {total} events matched in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Pearson vs two-pass reference


def two_pass_pearson(a: np.ndarray, b: np.ndarray) -> float:
    keep = np.isfinite(a) & np.isfinite(b)
    a, b = a[keep], b[keep]
    ma, mb = a.mean(), b.mean()
    num = float(np.sum((a - ma) * (b - mb)))
    den = math.sqrt(float(np.sum((a - ma) ** 2)) * float(np.sum((b - mb) ** 2)))
    return num / den


def test_3_pearson_matches_two_pass_reference() -> None:
    """|r - reference| < 1e-10 over 100 random series pairs, with the
    diagonal exactly one and the matrix exactly symmetric."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(30, 600))
        a = rng.normal(0.0, rng.uniform(0.1, 5.0), n)
        b = rng.normal(0.0, rng.uniform(0.1, 5.0), n) + rng.uniform(-1, 1) * a
        holes = rng.random(n) < rng.uniform(0.0, 0.2)
        a[holes & (rng.random(n) < 0.5)] = np.nan
        b[holes & (rng.random(n) < 0.5)] = np.nan
        trace = SensorTrace(
            hive_id="pair",
            columns=[SensorColumn("a", "°C"), SensorColumn("b", "°C")],
            timestamps=1_600_000_000 + 60 * np.arange(n, dtype=np.int64),
            values=np.stack([a, b]),
        )
        m = pearson_matrix(trace, ["a", "b"], trace.days())
        err = abs(m.r("a", "b") - two_pass_pearson(a, b))
        worst = max(worst, err)
        assert err < 1e-10, f"trial {trial}: err {err:.3e}"
        np.testing.assert_array_equal(np.diag(m.values), np.ones(2))
        np.testing.assert_array_equal(m.values, m.values.T)
    print(f"PASS pearson: worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4-6. End-to-end pipeline (fixture runs it twice through the CLI)


def read_report(run: PipelineRun) -> list[dict]:
    lines = (run.root / "rep" / "report.csv").read_text().splitlines()
    assert lines[0] == "start,end,class_hint,rba,ae"
    rows = []
    for line in lines[1:]:
        start, end, hint, rba, ae = line.split(",")
        rows.append({"class": hint, "rba": rba, "ae": ae})
    return rows


def test_4_end_to_end_detection_table(e2e_runs) -> None:
    """A month of synthetic data, trained and scored blind: the
    autoencoder catches both swarms plus the opening, treatment, and
    sensor-failure days; the rule detector catches exactly the swarms;
    a held-out anomaly-free day raises no events."""
    run = e2e_runs[0]
    assert run.seconds < 600.0
    rows = read_report(run)
    assert [r["class"] for r in rows] == [
        "swarm", "opening", "varroa-treatment", "swarm", "sensor-failure",
    ]
    by_class: dict = {}
    for r in rows:
        by_class.setdefault(r["class"], []).append(r)

    assert all(r["ae"] == "yes" for r in by_class["swarm"])
    assert all(r["rba"] == "yes" for r in by_class["swarm"])
    assert by_class["opening"][0]["ae"] == "yes"
    assert by_class["sensor-failure"][0]["ae"] == "yes"

    rba_events = read_events(run.root / "rba" / "rba_events.csv")
    assert len(rba_events) == 2
    for hint in ("opening", "varroa-treatment", "sensor-failure"):
        assert all(r["rba"] == "no" for r in by_class[hint])
    manifest = json.loads((run.root / "rep" / "report_manifest.json").read_text())
    assert manifest["run"]["unmatched_rba"] == 0

    held_events = read_events(run.root / "held_det" / "ae_events.csv")
    assert held_events == []
    caught = sum(1 for r in rows if r["ae"] == "yes")
    print(
        f"PASS end to end: AE caught {caught}/5 anomalies, rule caught 2 swarms, "
        f"held-out day clean, {run.seconds:.0f}s"
    )


def test_5_raising_threshold_never_adds_events(e2e_runs) -> None:
    """Sweeping alpha upward from the calibrated value monotonically
    thins the event list (20 values up to past the maximum error)."""
    run = e2e_runs[0]
    model = load_model(run.root / "train" / "model.bin")
    threshold = read_threshold(run.root / "cal" / "threshold.json")
    from hivewatch.data import ingest

    scores = score_trace(model, ingest(run.root / "synth" / "trace.csv"), "temp_core")
    alphas = np.geomspace(threshold.alpha, float(scores.errors.max()) * 1.2, 20)
    counts = [len(detect(scores, Threshold(alpha=float(a)))) for a in alphas]
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts
    print(f"PASS monotonicity: counts {counts[0]} -> {counts[-1]} over 20 alphas")


def test_6_pipeline_is_byte_reproducible(e2e_runs) -> None:
    """Re-running every stage with the same seeds reproduces every
    artifact byte for byte."""
    first, second = e2e_runs
    for rel in E2E_ARTIFACTS:
        a = (first.root / rel).read_bytes()
        b = (second.root / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    print(f"PASS determinism: {len(E2E_ARTIFACTS)} artifacts byte-identical")


# ---------------------------------------------------------------------------
# 7. Window and normalization contracts


def test_7_window_and_normalization_invariants() -> None:
    """1000 random gap-free traces: window count is n - w + 1, windows
    normalized with params fit on the same days have |mean| < 0.05 and
    std in [0.9, 1.1], and the z-score round trip is exact to 1e-12."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst_mu, worst_sd = 0.0, 1.0
    for trial in range(1000):
        w = int(rng.integers(2, 121))
        n = w + int(rng.integers(900, 2201))
        vals = rng.normal(rng.uniform(-30.0, 50.0), rng.uniform(0.05, 8.0), n)
        trace = SensorTrace(
            hive_id="t",
            columns=[SensorColumn("s", "°C")],
            timestamps=1_600_000_000 + 60 * np.arange(n, dtype=np.int64),
            values=vals[None, :],
        )
        days = set(trace.days())
        assert len(make_windows(trace, "s", days, w, 1)) == n - w + 1
        params = fit_normalization(trace, "s", days)
        normed = make_windows(trace, "s", days, w, 1, params)
        allv = normed.matrix.T.ravel()
        mu, sd = float(allv.mean()), float(allv.std())
        assert abs(mu) < 0.05 and 0.9 <= sd <= 1.1, (trial, mu, sd)
        worst_mu = max(worst_mu, abs(mu))
        worst_sd = max(worst_sd, abs(sd - 1.0) + 1.0)
        back = params.denormalize(params.normalize(vals))
        assert float(np.max(np.abs(back - vals))) < 1e-12 * max(
            1.0, float(np.max(np.abs(vals)))
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"PASS window/normalization: worst |mean| {worst_mu:.3f}, "
        f"worst std {worst_sd:.3f}, {elapsed:.1f}s"
    )
