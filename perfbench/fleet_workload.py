"""``fleet``: closed-loop rejuvenation on the real testbed source.

Six ``SimulatedFleetSource`` nodes (full machine + TPC-W pool + app
server + monitor per node) run for 4 800 s, about 1.3 times the
testbed's mean time to failure (about 3 600 s), under
``PredictiveRejuvenation`` over an LS-SVM, with capacity floor 0.8 and
exact batched scoring. Six nodes rather than a dozen keep one round
near 12 s, so a 30 s run holds two whole rounds. The policy model is trained during
set-up on a fixed campaign, so every seed serves the same model; the
seed drives the nodes' random streams. No learner is fitted in the
timed body: the per-node, per-tick ``AppServer.tick`` path and the
batched ``predict`` do the work.

The benchmark passes its own objects in at the controller's extension
points: a ``FleetSource`` that delegates to ``SimulatedFleetSource`` and
times ``step``, and a regressor proxy that times ``predict``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import AggregationConfig, aggregate_history
from repro.core.evaluation import evaluate_model, resolve_smae_threshold
from repro.core.model_zoo import make_model
from repro.rejuvenation.controller import ManagedSystemConfig
from repro.rejuvenation.fleet import (
    FleetConfig,
    FleetController,
    FleetSource,
    SimulatedFleetSource,
)
from repro.rejuvenation.policy import PredictiveRejuvenation
from repro.system.simulator import CampaignConfig, TestbedSimulator
from repro.utils.rng import as_rng

from common import Op, run_op
import checks

SCALES = {
    # nodes, horizon (s), policy-training campaign runs
    "full": (6, 4800.0, 4),
    "tiny": (3, 1200.0, 3),
}
CAPACITY_FLOOR = 0.8
#: Every this many predict calls the proxy keeps (X, output) for the
#: batched-vs-per-row check.
SAMPLE_EVERY = 25
#: Nominal length of one round at full scale, seconds.
ROUND_SECONDS = 12.0


class TimedSource(FleetSource):
    """A ``FleetSource`` delegating to another, timing ``step``."""

    def __init__(self, inner, rec) -> None:
        self.inner = inner
        self.rec = rec
        self.dt = inner.dt
        self.n_nodes = 0
        self.step_entries: list[float] = []
        self.step_s = 0.0
        self.node_ticks = 0

    def bind(self, rngs, horizon):
        self.inner.bind(rngs, horizon)
        self.n_nodes = self.inner.n_nodes

    def boot(self, node):
        self.inner.boot(node)

    def step(self, ids, walls, nows):
        t0 = time.perf_counter()
        self.step_entries.append(t0)
        with self.rec.span("rejuvenation.source_step"):
            result = self.inner.step(ids, walls, nows)
        self.step_s += time.perf_counter() - t0
        self.node_ticks += int(ids.size)
        return result


class TimedRegressor:
    """Regressor proxy timing ``predict`` and sampling its batches."""

    def __init__(self, model, rec) -> None:
        self.model = model
        self.rec = rec
        self.predict_s = 0.0
        self.calls = 0
        self.rows = 0
        self.samples: list[tuple[np.ndarray, np.ndarray]] = []

    def predict(self, X):
        t0 = time.perf_counter()
        with self.rec.span("ml.predict"):
            out = self.model.predict(X)
        self.predict_s += time.perf_counter() - t0
        if self.calls % SAMPLE_EVERY == 0:
            self.samples.append((np.array(X, copy=True), np.array(out, copy=True)))
        self.calls += 1
        self.rows += int(X.shape[0])
        return out


@dataclass
class Inputs:
    campaign: object
    managed: object
    fleet: object
    model: object
    margin: float
    smae_s: float
    node_seed: int


def setup(seed: int, scale: str) -> Inputs:
    n_nodes, horizon, train_runs = SCALES[scale]
    campaign = CampaignConfig()
    history = TestbedSimulator(CampaignConfig(n_runs=train_runs, seed=7)).run_campaign()
    dataset = aggregate_history(history, AggregationConfig(window_seconds=30.0))
    train, val = dataset.split(0.3, seed=as_rng(0))
    threshold = resolve_smae_threshold(None, 0.10, history.mean_run_length)
    report, model, _ = evaluate_model(
        "svm2", make_model("svm2"), train, val, smae_threshold=threshold
    )
    return Inputs(
        campaign=campaign,
        managed=ManagedSystemConfig(horizon_seconds=horizon),
        fleet=FleetConfig(n_nodes=n_nodes, capacity_floor=CAPACITY_FLOOR, scoring="exact"),
        model=model,
        margin=threshold,
        smae_s=report.s_mae,
        node_seed=int(np.random.default_rng(seed).integers(2**31)),
    )


def body(inp: Inputs, rec, scale: str, round_index: int) -> dict:
    """One fleet run; each round of a run gives the nodes fresh streams."""
    source = TimedSource(SimulatedFleetSource(inp.campaign), rec)
    proxy = TimedRegressor(inp.model, rec)
    policy = PredictiveRejuvenation(proxy, rttf_margin=inp.margin)
    controller = FleetController(source, inp.managed, policy, inp.fleet)
    with rec.span("rejuvenation.fleet_run"):
        t0 = time.perf_counter()
        log = controller.run(seed=[inp.node_seed, round_index])
        run_s = time.perf_counter() - t0
    return {"log": log, "source": source, "proxy": proxy, "run_s": run_s}


def verify(inp: Inputs, out: dict) -> list[Op]:
    log = out["log"]
    ops = [
        run_op(f"node{i}.episodes", checks.check_episode_tiling, nl, inp.managed)
        for i, nl in enumerate(log.node_logs)
    ]
    ops.append(
        run_op("capacity_floor", checks.check_capacity_floor, log.node_logs,
               inp.managed, CAPACITY_FLOOR)
    )
    ops.append(
        run_op("batched_predict", checks.check_batched_predict, inp.model,
               out["proxy"].samples)
    )
    return ops


def tick_latencies_ms(out: dict) -> np.ndarray:
    """Wall time between successive ``step`` entries: one control tick each."""
    return np.diff(np.asarray(out["source"].step_entries)) * 1e3


def layer_metrics(inp: Inputs, out: dict) -> dict[str, float]:
    log, src, proxy = out["log"], out["source"], out["proxy"]
    ticks = tick_latencies_ms(out)
    return {
        "rejuvenation.source_step_s": src.step_s,
        "rejuvenation.control_s": out["run_s"] - src.step_s - proxy.predict_s,
        "rejuvenation.node_ticks": src.node_ticks,
        "rejuvenation.restarts": log.n_rejuvenations,
        "rejuvenation.crashes": log.n_crashes,
        "rejuvenation.deferred": log.restarts_deferred,
        "rejuvenation.tick_p50_ms": float(np.percentile(ticks, 50)),
        "rejuvenation.tick_p99_ms": float(np.percentile(ticks, 99)),
        "rejuvenation.tick_samples": ticks.size,
        "ml.predict_s": proxy.predict_s,
        "ml.predict_calls": proxy.calls,
        "ml.predict_rows": proxy.rows,
        "ml.best_smae_s": inp.smae_s,
    }
