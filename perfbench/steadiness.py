#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code.

Run from the repository root::

    python3 perfbench/steadiness.py

It makes two sets of runs; each set runs every workload of
``BENCHMARK.json`` on seeds 1..10, each run being ``perfbench/run.py
--trace 0`` for ``run_seconds``. For every workload and end-to-end
metric the tool prints each set's median and quartiles and the spread,
the distance between the quartiles as a share of the median, then
whether the spread stays within the metric's bound and whether the
second set's median is no worse than the first by more than the bound.
Set-up time is held to the second test only: it is a second or two of
process start, imports and input generation, whose spread on a shared
machine says more about the machine than about the program, and a
regression in it shows as a shift of its median. The tool also compares
the share of failed operations between sets, which must be identical.
Raw results go to ``.perfbench/steadiness-<time>.json``. Exit code 1 if
anything disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    raw: dict = {}
    for s in range(SETS):
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in SEEDS:
                t0 = time.perf_counter()
                res = run_once(workload, seed, bench["run_seconds"])
                raw.setdefault(workload, [[] for _ in range(SETS)])[s].append(res)
                vals = " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics
                )
                print(f"set {s + 1} {workload} seed {seed}: {vals} "
                      f"failed={res['failed']}/{res['attempted']} correct={res['correct']} "
                      f"({time.perf_counter() - t0:.0f}s)", flush=True)

    out = ROOT / ".perfbench" / f"steadiness-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")

    ok = True
    print(f"\n{'workload':9s} {'metric':12s} {'set':>3s} {'q1':>10s} {'median':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, sets in raw.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)} or incorrect output — DISAGREE")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets):
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                if name == "setup_s":
                    note = "spread not held to the bound"
                else:
                    within = sp <= bound
                    ok &= within
                    note = "ok" if within else "SPREAD OVER BOUND"
                    if sp > bound / 3:
                        note += " (over a third of the bound)"
                print(f"{workload:9s} {name:12s} {k + 1:3d} {q1:10.4f} {med:10.4f} "
                      f"{q3:10.4f} {sp:7.3f} {bound:6.2f}  {note}")
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (medians[1] - medians[0]) / medians[0]
            agree = drift <= bound
            ok &= agree
            print(f"{workload:9s} {name:12s} second median {drift:+.3f} of the first: "
                  f"{'agree' if agree else 'DISAGREE'}")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
