"""``paper``: the paper's F2PM workflow at paper scale.

Simulate the 20-run shopping-mix campaign on the fused substrate,
aggregate with 30 s windows, compute the Lasso path and the Table-I
selection, fit and validate the five learners and the ten Lasso
predictors on both feature sets, then compile the LS-SVM behind its
S-MAE gate and serve validation rows through it.

The campaign is the experiments' paper campaign (seed 7) and the split
is the framework's default (seed 0) on every run: at paper scale the
dataset size alone varies by a quarter between campaign seeds, which
would swamp any regression bound, and the known 30-feature SVR fault
must sit on inputs that do not depend on ``--seed``. The seed draws the
serving stage's inputs: the Nystrom landmarks and the rows served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import AggregationConfig, aggregate_history
from repro.core.evaluation import evaluate_model, resolve_smae_threshold
from repro.core.feature_selection import LassoFeatureSelector
from repro.core.model_zoo import make_model
from repro.ml.serving import compile_predictor
from repro.system.simulator import CampaignConfig, TestbedSimulator
from repro.utils.rng import as_rng

from common import Op, run_op
import checks

WINDOW_S = 30.0
LEARNERS = ("linear", "m5p", "reptree", "svm", "svm2")
LASSO_LAMBDAS = tuple(10.0**k for k in range(10))
SERVE_ROWS = {"full": 100_000, "tiny": 2_000}
SERVE_BATCH = 500
#: Nominal length of one round at full scale, seconds.
ROUND_SECONDS = 25.0


@dataclass
class Inputs:
    config: object
    landmark_seed: int
    serve_seed: int
    split_seed: int = 0


def setup(seed: int, scale: str) -> Inputs:
    rng = np.random.default_rng(seed)
    n_runs = 20 if scale == "full" else 3
    return Inputs(
        config=CampaignConfig(n_runs=n_runs, seed=7, substrate="fused"),
        landmark_seed=int(rng.integers(2**31)),
        serve_seed=int(rng.integers(2**31)),
    )


def body(inp: Inputs, rec, scale: str, round_index: int) -> dict:
    """One pass of the pipeline; every round repeats the same inputs."""
    out: dict = {}
    with rec.span("system.simulate"):
        t0 = time.perf_counter()
        history = TestbedSimulator(inp.config).run_campaign()
        out["simulate_s"] = time.perf_counter() - t0
    with rec.span("core.aggregate"):
        t0 = time.perf_counter()
        dataset = aggregate_history(history, AggregationConfig(window_seconds=WINDOW_S))
        out["aggregate_s"] = time.perf_counter() - t0
    with rec.span("core.select"):
        t0 = time.perf_counter()
        selector = LassoFeatureSelector().fit(dataset)
        selection = selector.strongest_with_at_least(6)
        out["select_s"] = time.perf_counter() - t0

    # The framework's split: identical rows for both feature sets.
    train, val = dataset.split(0.3, seed=as_rng(inp.split_seed))
    sets = {
        "all": (train, val),
        "selected": (
            train.select_features(selection.selected),
            val.select_features(selection.selected),
        ),
    }
    threshold = resolve_smae_threshold(None, 0.10, history.mean_run_length)
    candidates = [(name, name, {}) for name in LEARNERS] + [
        (f"lasso(1e{k})", "lasso", {"lam": lam}) for k, lam in enumerate(LASSO_LAMBDAS)
    ]
    evals = []
    for fs, (tr, va) in sets.items():
        for label, kind, kw in candidates:
            with rec.span("ml.evaluate", learner=label, feature_set=fs):
                report, model, pred = evaluate_model(
                    label, make_model(kind, **kw), tr, va,
                    smae_threshold=threshold, feature_set=fs,
                )
            evals.append((fs, label, kind, report, model, pred))

    lssvm = next(m for fs, label, _, _, m, _ in evals if fs == "all" and label == "svm2")
    with rec.span("serving.compile"):
        t0 = time.perf_counter()
        compiled = compile_predictor(
            lssvm, budget=128, tol=0.10 * threshold, X_val=val.X, y_val=val.y,
            smae_threshold=threshold, landmark_seed=inp.landmark_seed,
        )
        out["compile_s"] = time.perf_counter() - t0
    rows = np.random.default_rng(inp.serve_seed).integers(0, val.n_samples, SERVE_ROWS[scale])
    X_serve = val.X[rows]
    with rec.span("serving.predict"):
        t0 = time.perf_counter()
        served = [
            compiled.predict(X_serve[i : i + SERVE_BATCH])
            for i in range(0, X_serve.shape[0], SERVE_BATCH)
        ]
        out["serve_s"] = time.perf_counter() - t0
    out.update(
        history=history, dataset=dataset, selector=selector, selection=selection,
        sets=sets, threshold=threshold, evals=evals, compiled=compiled,
        val=val, served_rows=sum(s.shape[0] for s in served),
    )
    return out


def verify(inp: Inputs, out: dict) -> list[Op]:
    ops = [
        run_op("simulate", checks.check_timestamps, out["history"]),
        run_op("aggregate", checks.check_aggregation, out["history"], out["dataset"], WINDOW_S),
    ]
    sel, selector, ds = out["selection"], out["selector"], out["dataset"]
    ops.append(
        run_op("select", checks.check_lasso_kkt, ds.X, ds.y, sel.weights, sel.lam, selector.tol)
    )
    out["svr"] = {}
    for fs, label, kind, report, model, pred in out["evals"]:
        tr, va = out["sets"][fs]
        op = run_op(f"fit.{label}.{fs}", checks.check_report, report, va.y, pred, out["threshold"])
        if kind == "linear":
            op.problems += checks.check_linear_lstsq(model, tr.X, tr.y)
        if kind == "svm":
            gap = checks.svr_kkt_gap(model, tr.X, tr.y)
            tol = model.inner_.tol
            out["svr"][fs] = (model.inner_.n_iter_, gap)
            if gap > tol:
                # The known fault: SMO stops at its iteration cap and
                # returns without saying so. Counted, not hidden.
                op.failed = True
                op.reason = (
                    f"SVR stopped at {model.inner_.n_iter_} iterations "
                    f"(cap {model.inner_.max_iter}) with KKT gap {gap:.4f} > tol {tol}"
                )
        ops.append(op)
    ops.append(
        run_op("compile", checks.check_compile, out["compiled"], out["val"].X,
               out["val"].y, out["threshold"])
    )
    return ops


def layer_metrics(inp: Inputs, out: dict) -> dict[str, float]:
    history, ds = out["history"], out["dataset"]
    m = {
        "system.simulate_s": out["simulate_s"],
        "system.runs": len(history),
        "system.datapoints": history.n_datapoints,
        "system.sim_hours": sum(r.fail_time for r in history) / 3600.0,
        "core.aggregate_s": out["aggregate_s"],
        "core.rows": ds.n_samples,
        "core.select_s": out["select_s"],
        "core.lambdas": len(out["selector"].lambda_grid),
        "ml.best_smae_s": min(r.s_mae for _, _, _, r, _, _ in out["evals"]),
    }
    for fs in ("all", "selected"):
        for kind in ("linear", "m5p", "reptree", "svm", "svm2", "lasso"):
            reports = [r for f, _, k, r, _, _ in out["evals"] if f == fs and k == kind]
            m[f"ml.fit_s.{kind}.{fs}"] = sum(r.train_time for r in reports)
            m[f"ml.validate_s.{kind}.{fs}"] = sum(r.validation_time for r in reports)
        iters, gap = out["svr"].get(fs, (0, 0.0))
        m[f"ml.svr.smo_iters.{fs}"] = iters
        m[f"ml.svr.kkt_gap.{fs}"] = gap
    rep = out["compiled"].report
    m.update({
        "serving.compile_s": out["compile_s"],
        "serving.refs_in": rep.n_reference_rows_exact,
        "serving.refs_out": rep.n_reference_rows,
        "serving.gate_delta_s": rep.gate_delta if rep.gate_delta is not None else 0.0,
        "serving.predict_rows_per_s": out["served_rows"] / out["serve_s"],
    })
    return m
