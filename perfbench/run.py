#!/usr/bin/env python3
"""End-to-end benchmark of the F2PM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Workloads: ``paper`` (the paper pipeline at paper scale), ``fleet``
(closed-loop rejuvenation on the simulated testbed) and ``campaign``
(a scenario sweep through the campaign manager, then warm reruns).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around every call into the program, writes them to
``.perfbench/trace-<workload>-seed<seed>.json`` and prints the per-layer
metrics, including the tracing overhead: each traced round is paired
with an untraced twin of the same round. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

import os
import sys
import time

# One BLAS/OpenMP thread: default multi-threaded BLAS made back-to-back
# SVR fits vary by a fifth. Set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Workload and metric names with their units, as ``BENCHMARK.json`` lists them.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
#: Set-up is timed this many times, each in a fresh process; the median counts.
SETUP_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a full checkout")


def import_program() -> float:
    """Put the checkout's ``src`` first on the path, import the CLI, time it."""
    require_checkout()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the program's entry point)

    import_s = time.perf_counter() - t0
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")
    return import_s


def load_workload(name: str):
    import importlib

    return importlib.import_module(f"{name}_workload")


def time_setup(workload: str, seed: int) -> list[float]:
    """Process start to inputs generated, each sample in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, capture_output=True, check=True, timeout=170)
        samples.append(time.perf_counter() - t0)
    return samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any process it waited for.

    The program's process pools wait for their workers when they shut
    down, so the workers' peaks count too.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scale: str = "full") -> dict:
    """One run: set up, do the rounds, check every output; the result line.

    ``scale="tiny"`` shrinks the inputs of the rounds; the benchmark's own
    tests use it. Set-up samples always use the full inputs.
    """
    import_s = import_program()
    from common import cpu_seconds
    from spans import SpanRecorder

    wl = load_workload(workload)
    inputs = wl.setup(seed, scale)
    rec = SpanRecorder(enabled=False)

    # Whole rounds, as many as the workload's nominal round length fits in
    # --seconds (at least one): a fixed count, so every run does the same
    # work and fails the same share of operations. A traced run pairs
    # each round with an untraced twin, alternating which goes first, and
    # prices tracing by the median of the paired wall-time ratios.
    n_rounds = max(1, int(seconds // wl.ROUND_SECONDS))
    walls, cpus, plain_walls, layer_rows, ops = [], [], [], [], []
    try:
        for k in range(n_rounds):
            modes = ((False, True) if k % 2 == 0 else (True, False)) if traced else (False,)
            for tracing in modes:
                rec.enabled = tracing
                cpu0 = cpu_seconds()
                t0 = time.perf_counter()
                with rec.span(f"round.{workload}"):
                    out = wl.body(inputs, rec, scale, k)
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
                ops.extend(wl.verify(inputs, out))
                if traced and not tracing:
                    plain_walls.append(wall)
                    continue
                walls.append(wall)
                cpus.append(cpu)
                layer_rows.append(wl.layer_metrics(inputs, out))
                del out
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(inputs)

    failed = [op for op in ops if op.did_fail]
    for op in failed:
        detail = op.reason or "; ".join(op.problems)
        print(f"FAILED {op.name}: {detail}")
    correct = not any(op.problems for op in ops)
    print(
        f"{workload} seed={seed}: {len(walls) + len(plain_walls)} round(s), "
        f"{len(ops)} operations, {len(failed)} failed, correct={correct}"
    )

    if traced:
        values = {name: 0.0 for name in PER_LAYER}
        for name in values:
            row_values = [row[name] for row in layer_rows if name in row]
            if row_values:
                values[name] = float(statistics.median(row_values))
        values["cli.import_s"] = import_s
        values["obs.trace_overhead_frac"] = (
            statistics.median(t / p for t, p in zip(walls, plain_walls)) - 1.0
        )
        trace_path = Path(".perfbench") / f"trace-{workload}-seed{seed}.json"
        rec.write(trace_path)
        print(f"spans written to {trace_path}; self time by layer:")
        for name, row in sorted(rec.layer_times().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:32s} self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s"
                  f"  n={row['count']}")
        units = PER_LAYER
    else:
        # Peak memory is read before the set-up samples, whose processes
        # would otherwise count among the children.
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb(),
        }
        setup_samples = time_setup(workload, seed)
        values["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
        print(f"round walls (s): {', '.join(f'{w:.4f}' for w in walls)}")
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        import_program()
        load_workload(args.workload).setup(args.seed, "full")
        return 0
    require_checkout()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
