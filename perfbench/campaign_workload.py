"""``campaign``: a scenario sweep into an empty store, then warm reruns.

``CampaignManager`` runs all 9 scenario presets x 3 runs each through
simulate -> aggregate -> train -> evaluate (tree and linear learners,
``jobs=2``) into a fresh artifact store, then repeats the same spec
several times against the now-warm store, which must re-simulate
nothing. Simulation across both substrates does the cold work
(``fd-leak`` falls back to the loop), together with the process pool
and store writes; the warm passes read the store back.

The cells' campaign seeds are fixed, for the same reason as in
``paper``: run-until-crash runs vary so much in length that seeded
campaigns would spread the cold wall time by a quarter. The seed draws
the train/validation split of every cell (``CampaignSpec.train_seed``).

The benchmark passes its own ``store``: an ``ArtifactStore`` subclass
timing puts and gets and recording each loaded artifact, whose sha256
is checked against its sidecar after the pass.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.campaign import CampaignManager, CampaignSpec
from repro.campaign import stages as campaign_stages
from repro.obs import get_metrics, get_tracer
from repro.scenarios import SCENARIOS
from repro.store import ArtifactStore
from repro.system.simulator import CampaignConfig

from common import Op, cpu_seconds
import checks

JOBS = 2
#: Nominal length of one round at full scale, seconds.
ROUND_SECONDS = 20.0
STAGES = ("simulate", "aggregate", "train", "evaluate")
MODELS = ("linear", "m5p", "reptree")
SCALES = {
    # runs per cell, cell seeds, warm passes, scenarios (None = all)
    "full": (3, (11,), 5, None),
    "tiny": (2, (11,), 2, ("baseline-shopping", "fd-leak")),
}


class TimedStore(ArtifactStore):
    """Artifact store timing ``write``/``fetch`` and logging what it loads."""

    def __init__(self, root, rec) -> None:
        super().__init__(root)
        self.rec = rec
        self.put_s = 0.0
        self.get_s = 0.0
        self.bytes_written = 0
        self.loaded: list[str] = []

    def write(self, name, writer, **kw):
        t0 = time.perf_counter()
        with self.rec.span("store.put"):
            path = super().write(name, writer, **kw)
        self.put_s += time.perf_counter() - t0
        self.bytes_written += path.stat().st_size
        return path

    def fetch(self, name, loader):
        t0 = time.perf_counter()
        with self.rec.span("store.get"):
            value = super().fetch(name, loader)
        self.get_s += time.perf_counter() - t0
        self.loaded.append(name)
        return value


@dataclass
class Inputs:
    spec: object
    warm_passes: int
    store_root: Path


def setup(seed: int, scale: str) -> Inputs:
    runs, cell_seeds, warm, scenarios = SCALES[scale]
    spec = CampaignSpec(
        name="perfbench",
        base=CampaignConfig(n_runs=runs),
        axes=(("scenario", tuple(scenarios or SCENARIOS)),),
        seeds=cell_seeds,
        stages=STAGES,
        models=MODELS,
        train_seed=int(np.random.default_rng(seed).integers(2**31)),
    )
    root = Path(".perfbench") / f"store-{os.getpid()}"
    return Inputs(spec=spec, warm_passes=warm, store_root=root)


def _sim_runs() -> float:
    return get_metrics().counter("sim.runs_total").value


def body(inp: Inputs, rec, scale: str, round_index: int) -> dict:
    """A cold sweep into an empty store, then the warm reruns."""
    # Every call is cold: a fresh store, and an empty F2PM memo, which the
    # stages module otherwise keeps per train fingerprint for the whole
    # process, so a repeated round (or the untraced twin of a traced one)
    # would fit nothing.
    shutil.rmtree(inp.store_root, ignore_errors=True)
    campaign_stages._F2PM_MEMO.clear()
    out: dict = {}
    store = TimedStore(inp.store_root, rec)
    manager = CampaignManager(inp.spec, store)
    get_tracer().reset()
    metrics = get_metrics()
    sims0 = _sim_runs()
    fallback0 = metrics.counter("sim.fused_fallback_total").value
    with rec.span("campaign.cold"):
        t0 = time.perf_counter()
        cpu0 = cpu_seconds()
        cold = manager.run(jobs=JOBS)
        out["cold_s"] = time.perf_counter() - t0
        out["cold_cpu_s"] = cpu_seconds() - cpu0
    out["sim_runs"] = _sim_runs() - sims0
    out["fallback_runs"] = metrics.counter("sim.fused_fallback_total").value - fallback0
    out["stage_s"] = {
        stage: sum(
            s.duration for root in get_tracer().roots for s in root.walk()
            if s.name == f"campaign.stage.{stage}"
        )
        for stage in STAGES
    }
    with rec.span("campaign.plan"):
        t0 = time.perf_counter()
        plan = manager.plan()
        out["plan_s"] = time.perf_counter() - t0
    warm_walls, warm_results, warm_sims = [], [], []
    for _ in range(inp.warm_passes):
        sims0 = _sim_runs()
        with rec.span("campaign.warm"):
            t0 = time.perf_counter()
            warm_results.append(manager.run(jobs=JOBS))
            warm_walls.append(time.perf_counter() - t0)
        warm_sims.append(_sim_runs() - sims0)
    out.update(
        cold=cold, plan=plan, store=store, warm_walls=warm_walls,
        warm_results=warm_results, warm_sims=warm_sims,
    )
    return out


def verify(inp: Inputs, out: dict) -> list[Op]:
    store = out["store"]
    cells = len(inp.spec.cells())
    ops = []
    cold = out["cold"]
    for o in cold.outcomes:
        op = Op(f"cold.cell{o.cell.index}")
        report = o.results.get("evaluate")
        if o.error is not None:
            op.failed, op.reason = True, o.error
        elif list(o.produced_stages) != list(STAGES):
            op.problems.append(f"cold pass produced {o.produced_stages}, expected {STAGES}")
        elif report is None or report["best"]["s_mae"] != min(
            r["s_mae"] for r in report["reports"] if r["feature_set"] == "all"
        ):
            op.problems.append("report's best model is not the lowest S-MAE")
        ops.append(op)
    plan_op = Op("warm.plan")
    if len(out["plan"].cached_cells) != cells:
        plan_op.problems.append(
            f"plan after the cold pass: {len(out['plan'].cached_cells)}/{cells} cells cached"
        )
    ops.append(plan_op)
    for k, (res, sims) in enumerate(zip(out["warm_results"], out["warm_sims"])):
        op = Op(f"warm.pass{k}")
        if res.cells_run or res.cells_failed or sims:
            op.problems.append(
                f"warm pass ran {res.cells_run} cells, failed {res.cells_failed}, "
                f"simulated {sims:g} runs"
            )
        ops.append(op)
    sha_op = Op("store.sha256")
    for name in dict.fromkeys(store.loaded):
        if checks.sha256_of(store.path(name)) != store.read_meta(name)["sha256"]:
            sha_op.problems.append(f"{name}: payload does not match its recorded sha256")
    if not store.loaded:
        sha_op.problems.append("no artifact was loaded")
    ops.append(sha_op)
    return ops


def cleanup(inp: Inputs) -> None:
    shutil.rmtree(inp.store_root, ignore_errors=True)


def layer_metrics(inp: Inputs, out: dict) -> dict[str, float]:
    store = out["store"]
    histories = [o.results["simulate"] for o in out["cold"].outcomes]
    reports = [o.results["evaluate"] for o in out["cold"].outcomes]
    m = {
        "system.simulate_s": out["stage_s"]["simulate"],
        "system.runs": out["sim_runs"],
        "system.datapoints": sum(h.n_datapoints for h in histories),
        "system.sim_hours": sum(r.fail_time for h in histories for r in h) / 3600.0,
        "system.loop_fallback_runs": out["fallback_runs"],
        "campaign.plan_s": out["plan_s"],
        "campaign.warm_s": float(np.median(out["warm_walls"])),
        "store.put_s": store.put_s,
        "store.get_s": store.get_s,
        "store.bytes_written": store.bytes_written,
        "store.entries": len(store.entries()),
        "parallel.jobs": JOBS,
        "parallel.busy_frac": out["cold_cpu_s"] / (out["cold_s"] * JOBS),
        "ml.best_smae_s": float(np.mean([r["best"]["s_mae"] for r in reports])),
    }
    for stage, seconds in out["stage_s"].items():
        m[f"campaign.stage_s.{stage}"] = seconds
    return m
