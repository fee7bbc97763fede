"""Tests of the benchmark itself: smoke runs and the output checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every output check is fed a deliberately perturbed output and must
report it; the unperturbed output must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import repro.core  # noqa: E402,F401  (import before repro.system: known import cycle)
from repro.core import AggregationConfig, aggregate_history  # noqa: E402
from repro.core.evaluation import evaluate_model  # noqa: E402
from repro.core.model_zoo import make_model  # noqa: E402
from repro.core.feature_selection import LassoFeatureSelector  # noqa: E402
from repro.ml.serving import compile_predictor  # noqa: E402
from repro.rejuvenation.controller import Episode, ManagedRunLog, ManagedSystemConfig  # noqa: E402
from repro.system.simulator import CampaignConfig, TestbedSimulator  # noqa: E402
from repro.utils.rng import as_rng  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402


# -- smoke runs -----------------------------------------------------------------
# In-process runs of every workload on tiny inputs (set-up is still timed
# on the full inputs, in child processes).


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_each_workload(workload, in_tmp):
    res = run.measure(workload, 1, 1, traced=False, scale="tiny")
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    json.dumps(res)


def test_traced_run_reports_every_layer_metric(in_tmp):
    res = run.measure("campaign", 1, 1, traced=True, scale="tiny")
    assert res["correct"] is True
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert res["metrics"]["campaign.warm_s"]["value"] > 0
    assert res["metrics"]["system.loop_fallback_runs"]["value"] > 0
    assert (in_tmp / ".perfbench" / "trace-campaign-seed1.json").is_file()


@pytest.mark.parametrize("workload", ["paper", "fleet"])
def test_second_seed_passes_its_checks(workload, in_tmp):
    res = run.measure(workload, 2, 1, traced=False, scale="tiny")
    assert res["correct"] is True and res["failed"] == 0


def test_bare_directory_exits_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files, no program.
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no repro package" in proc.stderr


# -- pipeline checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    history = TestbedSimulator(CampaignConfig(n_runs=3, seed=7)).run_campaign()
    dataset = aggregate_history(history, AggregationConfig(window_seconds=30.0))
    train, val = dataset.split(0.3, seed=as_rng(0))
    return history, dataset, train, val


def test_timestamps(pipeline):
    history = pipeline[0]
    assert checks.check_timestamps(history) == []
    run0 = history[0]
    run0.features[[3, 4], 0] = run0.features[[4, 3], 0]
    try:
        assert checks.check_timestamps(history)
    finally:
        run0.features[[3, 4], 0] = run0.features[[4, 3], 0]


def test_aggregation_catches_a_shifted_label_and_a_wrong_mean(pipeline):
    history, dataset = pipeline[0], pipeline[1]
    assert checks.check_aggregation(history, dataset, 30.0) == []
    shifted = replace(dataset, y=dataset.y + np.where(np.arange(dataset.n_samples) == 5, 1.0, 0.0))
    assert any("RTTF label" in p for p in checks.check_aggregation(history, shifted, 30.0))
    X = dataset.X.copy()
    X[7, 3] *= 1.001
    assert checks.check_aggregation(history, replace(dataset, X=X), 30.0)


def test_lasso_kkt(pipeline):
    dataset = pipeline[1]
    selector = LassoFeatureSelector().fit(dataset)
    sel = selector.strongest_with_at_least(6)
    assert checks.check_lasso_kkt(dataset.X, dataset.y, sel.weights, sel.lam, selector.tol) == []
    bent = sel.weights.copy()
    j = int(np.flatnonzero(bent)[0])
    bent[j] *= 1.01
    assert checks.check_lasso_kkt(dataset.X, dataset.y, bent, sel.lam, selector.tol)


def test_linear_coefficients_against_lstsq(pipeline):
    train = pipeline[2]
    model = make_model("linear").fit(train.X, train.y)
    assert checks.check_linear_lstsq(model, train.X, train.y) == []
    model.coef_[0] *= 1.001
    model.intercept_ += 1.0
    assert checks.check_linear_lstsq(model, train.X, train.y)


def test_report_metrics_catch_a_wrong_smae(pipeline):
    train, val = pipeline[2], pipeline[3]
    report, _, pred = evaluate_model("m5p", make_model("m5p"), train, val, smae_threshold=100.0)
    assert checks.check_report(report, val.y, pred, 100.0) == []
    wrong = replace(report, s_mae=report.s_mae + 0.5)
    assert any("s_mae" in p for p in checks.check_report(wrong, val.y, pred, 100.0))


def test_svr_gap_separates_converged_from_capped_fits(pipeline):
    train = pipeline[2]
    done = make_model("svm").fit(train.X, train.y)
    assert checks.svr_kkt_gap(done, train.X, train.y) <= done.inner_.tol
    capped = make_model("svm", max_iter=50).fit(train.X, train.y)
    assert checks.svr_kkt_gap(capped, train.X, train.y) > capped.inner_.tol


def test_compile_gate_is_recomputed(pipeline):
    train, val = pipeline[2], pipeline[3]
    model = make_model("svm2").fit(train.X, train.y)
    compiled = compile_predictor(model, budget=64, tol=50.0, X_val=val.X, y_val=val.y,
                                 smae_threshold=100.0)
    assert compiled.report.accepted
    assert checks.check_compile(compiled, val.X, val.y, 100.0) == []
    compiled.report = replace(compiled.report, tol=-1.0, gate_delta=123.0)
    assert len(checks.check_compile(compiled, val.X, val.y, 100.0)) == 2


# -- fleet checks ---------------------------------------------------------------

MANAGED = ManagedSystemConfig(horizon_seconds=1000.0, rejuvenation_downtime=30.0,
                              crash_downtime=300.0)


def node(*episodes) -> ManagedRunLog:
    log = ManagedRunLog(policy_name="test", episodes=[Episode(*e) for e in episodes])
    log.total_uptime = sum(e.uptime for e in log.episodes)
    log.total_downtime = MANAGED.horizon_seconds - log.total_uptime
    return log


def test_episode_tiling_catches_overlap_and_gap():
    good = node((0.0, 400.0, "rejuvenation"), (430.0, 600.0, "crash"), (900.0, 1000.0, "horizon"))
    assert checks.check_episode_tiling(good, MANAGED) == []
    overlap = node((0.0, 400.0, "rejuvenation"), (420.0, 1000.0, "horizon"))
    assert any("overlap" in p for p in checks.check_episode_tiling(overlap, MANAGED))
    gap = node((0.0, 400.0, "rejuvenation"), (450.0, 1000.0, "horizon"))
    assert any("gap" in p for p in checks.check_episode_tiling(gap, MANAGED))


def test_capacity_floor_catches_two_planned_restarts_at_once():
    # Five nodes, floor 0.8: one node may be planned down at a time.
    quiet = [node((0.0, 1000.0, "horizon")) for _ in range(3)]
    # A node rebooting at t=430 is still down for a grant at t=430: the
    # controller grants before the tick that reboots it, so the next
    # restart can start one 0.5 s tick later.
    staggered = quiet + [
        node((0.0, 400.0, "rejuvenation"), (430.0, 1000.0, "horizon")),
        node((0.0, 430.5, "rejuvenation"), (460.5, 1000.0, "horizon")),
    ]
    assert checks.check_capacity_floor(staggered, MANAGED, 0.8) == []
    clashing = quiet + [
        node((0.0, 400.0, "rejuvenation"), (430.0, 1000.0, "horizon")),
        node((0.0, 410.0, "rejuvenation"), (440.0, 1000.0, "horizon")),
    ]
    assert checks.check_capacity_floor(clashing, MANAGED, 0.8)


def test_batched_predictions_against_per_row(pipeline):
    train, val = pipeline[2], pipeline[3]
    model = make_model("svm2").fit(train.X, train.y)
    X = val.X[:20]
    batched = model.predict(X)
    assert checks.check_batched_predict(model, [(X, batched)]) == []
    bad = batched.copy()
    bad[3] += 1e-3
    assert checks.check_batched_predict(model, [(X, bad)])


# -- campaign checks ------------------------------------------------------------


def test_campaign_checks_catch_corruption_and_warm_work(tmp_path, monkeypatch):
    import campaign_workload as cw
    from spans import SpanRecorder

    monkeypatch.chdir(tmp_path)
    inp = cw.setup(1, "tiny")
    out = cw.body(inp, SpanRecorder(enabled=False), "tiny", 0)
    try:
        assert not any(op.did_fail for op in cw.verify(inp, out))
        victim = out["store"].loaded[0]
        with open(out["store"].path(victim), "ab") as fh:
            fh.write(b"rot")
        out["warm_sims"][0] = 1.0
        failed = {op.name for op in cw.verify(inp, out) if op.problems}
        assert failed == {"store.sha256", "warm.pass0"}
    finally:
        cw.cleanup(inp)
