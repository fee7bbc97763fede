"""Independent output checks for the benchmark workloads.

Every function here recomputes a property of the program's output from
first principles (plain numpy loops, closed-form optimality conditions,
interval arithmetic) instead of comparing against a stored copy of an
earlier output. Each returns a list of human-readable problems; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: At most this many problems are reported per check (the first ones).
MAX_PROBLEMS = 5


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 0.0) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


# -- simulation + aggregation (paper Sec. III-B) ------------------------------


def check_timestamps(history) -> list[str]:
    """Datapoint timestamps (``tgen``) strictly increase within each run."""
    problems = []
    for i, run in enumerate(history):
        tgen = run.features[:, 0]
        bad = np.flatnonzero(np.diff(tgen) <= 0.0)
        if bad.size:
            problems.append(
                f"run {i}: tgen not increasing at datapoint {int(bad[0]) + 1}"
            )
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_aggregation(history, dataset, window: float) -> list[str]:
    """Window means, Eq. 1 slopes, inter-generation time and RTTF labels.

    Recomputed window by window with boolean masks: the mean of every raw
    feature, ``(x_end - x_start) / n`` for every non-time feature, the
    mean spacing of the window's datapoints, and the label
    ``fail_time - mean(tgen)`` (the documented semantics of
    ``repro.core.aggregation``: the RTTF at the window's mean time).
    Only crashed runs contribute rows, in run order.
    """
    problems: list[str] = []
    expected_rows = 0
    for i, run in enumerate(history):
        if float(run.metadata.get("crashed", 1.0)) == 0.0:
            continue
        feats = run.features
        tgen = feats[:, 0]
        intervals = np.diff(np.concatenate([[0.0], tgen]))
        bins = tgen // window
        keys = np.unique(bins)
        mask_run = dataset.run_ids == i
        X = dataset.X[mask_run]
        y = dataset.y[mask_run]
        expected_rows += keys.size
        if X.shape[0] != keys.size:
            problems.append(f"run {i}: {X.shape[0]} rows, expected {keys.size} windows")
            continue
        scale = np.abs(feats).max(axis=0)
        for k, key in enumerate(keys):
            seg = feats[bins == key]
            n = seg.shape[0]
            means = seg.mean(axis=0)
            slopes = (seg[-1, 1:] - seg[0, 1:]) / n
            gen_time = intervals[bins == key].mean()
            want = np.concatenate([means, slopes, [gen_time]])
            tol = 1e-9 * np.concatenate([scale, scale[1:], [scale[0]]]) + 1e-12
            off = np.flatnonzero(np.abs(X[k] - want) > tol)
            if off.size:
                problems.append(
                    f"run {i} window {k}: column {int(off[0])} is {X[k, off[0]]!r}, "
                    f"recomputed {want[off[0]]!r}"
                )
            label = run.fail_time - means[0]
            if not _close(y[k], label, rel=1e-12, abs_=1e-9):
                problems.append(
                    f"run {i} window {k}: RTTF label {y[k]!r}, recomputed {label!r}"
                )
            if len(problems) >= MAX_PROBLEMS:
                return problems
    if dataset.n_samples != expected_rows:
        problems.append(f"{dataset.n_samples} rows in total, expected {expected_rows}")
    return problems


# -- feature selection (paper Eq. 2) ------------------------------------------


def lasso_kkt(X: np.ndarray, y: np.ndarray, coef: np.ndarray, lam: float, cd_tol: float):
    """KKT violations of Eq. 2 at ``coef`` and their admissible slack.

    Eq. 2 is ``(1/n)||y - X b||^2 + lam ||b||_1`` on centred data, so the
    optimality conditions are ``g_j = (2/n) x_j'r = lam sign(b_j)`` where
    ``b_j != 0`` and ``|g_j| <= lam`` where ``b_j == 0``. Coordinate
    descent stops once no coefficient moved more than ``cd_tol`` in a
    sweep; moves of the other coordinates after ``j``'s own update shift
    ``g_j`` by at most ``(2/n) sum_k |x_j'x_k| cd_tol``, which (plus a
    rounding allowance) is the slack returned per coordinate.
    """
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    r = yc - Xc @ coef
    g = (2.0 / n) * (Xc.T @ r)
    nz = coef != 0.0
    viol = np.where(nz, np.abs(g - lam * np.sign(coef)), np.maximum(np.abs(g) - lam, 0.0))
    gram = np.abs(Xc.T @ Xc)
    col_norm = np.sqrt(np.diag(gram))
    slack = (2.0 / n) * (gram.sum(axis=1) * cd_tol + 1e-9 * col_norm * np.linalg.norm(yc))
    return viol, slack


def check_lasso_kkt(X, y, coef, lam, cd_tol) -> list[str]:
    viol, slack = lasso_kkt(X, y, coef, lam, cd_tol)
    bad = np.flatnonzero(viol > slack)
    return [
        f"feature {int(j)}: KKT violation {viol[j]:.3e} > slack {slack[j]:.3e} at lambda {lam:g}"
        for j in bad[:MAX_PROBLEMS]
    ]


# -- learners -----------------------------------------------------------------


def check_linear_lstsq(model, X: np.ndarray, y: np.ndarray) -> list[str]:
    """OLS coefficients and intercept match ``numpy.linalg.lstsq`` on ``[X, 1]``."""
    A = np.column_stack([X, np.ones(X.shape[0])])
    sol, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    problems = []
    if rank < A.shape[1]:
        # Rank-deficient design: the coefficients are not unique, the
        # fitted values are.
        fit_ref = A @ sol
        fit = model.predict(X)
        err = np.abs(fit - fit_ref).max()
        if err > 1e-6 * (np.abs(y).max() + 1.0):
            problems.append(f"rank {rank}: fitted values differ by {err:.3e}")
        return problems
    coef_ref, icpt_ref = sol[:-1], sol[-1]
    scale = np.abs(coef_ref) + 1e-12 * np.abs(coef_ref).max()
    off = np.flatnonzero(np.abs(model.coef_ - coef_ref) > 1e-6 * scale)
    for j in off[:MAX_PROBLEMS]:
        problems.append(f"coef[{int(j)}] {model.coef_[j]!r} != lstsq {coef_ref[j]!r}")
    if not _close(model.intercept_, icpt_ref, rel=1e-6, abs_=1e-6 * (np.abs(y).max() + 1.0)):
        problems.append(f"intercept {model.intercept_!r} != lstsq {icpt_ref!r}")
    return problems


def check_report(report, y_true: np.ndarray, pred: np.ndarray, threshold: float) -> list[str]:
    """MAE, Max-AE and S-MAE of a validation report, recomputed from its predictions."""
    err = np.abs(np.asarray(pred, dtype=np.float64) - y_true)
    want = {
        "mae": float(err.mean()),
        "max_ae": float(err.max()),
        "s_mae": float(np.where(err < threshold, 0.0, err).mean()),
    }
    problems = []
    for name, value in want.items():
        got = getattr(report, name)
        if not _close(got, value, rel=1e-12, abs_=1e-12):
            problems.append(f"{report.name}/{report.feature_set}: {name} {got!r} != {value!r}")
    if not _close(report.s_mae_threshold, threshold, rel=1e-15):
        problems.append(f"{report.name}: S-MAE threshold {report.s_mae_threshold!r} != {threshold!r}")
    return problems


def svr_kkt_gap(model, X: np.ndarray, y: np.ndarray) -> float:
    """Maximal-violating-pair KKT gap of a fitted ``ScaledModel(SVR)``.

    Rebuilds the dual variables from ``support_``/``dual_coef_``, the
    standardized data from ``X``/``y`` themselves, the gradient of the
    LIBSVM-form dual ``G = Q a + p`` from the kernel, and returns
    ``max_{up} -zG - min_{low} -zG`` — the quantity the SMO solver
    compares with its ``tol`` when it declares convergence.
    """
    svr = model.inner_
    if svr.kernel != "linear":
        raise ValueError(f"gap check supports the linear kernel, got {svr.kernel!r}")
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    Xs = (X - X.mean(axis=0)) / std
    y_scale = float(y.std()) or 1.0
    ys = (y - y.mean()) / y_scale
    n = Xs.shape[0]
    beta = np.zeros(n)
    beta[svr.support_] = svr.dual_coef_
    kb = Xs @ (Xs.T @ beta)
    grad = np.concatenate([kb + svr.epsilon - ys, -kb + svr.epsilon + ys])
    a = np.concatenate([np.maximum(beta, 0.0), np.maximum(-beta, 0.0)])
    z = np.concatenate([np.ones(n), -np.ones(n)])
    g = -z * grad
    up = np.where(z > 0, a < svr.C, a > 0.0)
    low = np.where(z > 0, a > 0.0, a < svr.C)
    return float(g[up].max() - g[low].min())


def check_compile(compiled, X_val: np.ndarray, y_val: np.ndarray, threshold: float) -> list[str]:
    """An accepted compile stays within its S-MAE tolerance; a rejected one is exact."""
    rep = compiled.report
    exact = compiled.exact.predict(X_val)
    served = compiled.predict(X_val)
    if not rep.accepted:
        if not np.array_equal(served, exact):
            return ["rejected compile does not serve the exact model's predictions"]
        return []

    def smae(pred):
        err = np.abs(pred - y_val)
        return float(np.where(err < threshold, 0.0, err).mean())

    delta = smae(served) - smae(exact)
    problems = []
    if rep.tol is not None and delta > rep.tol + 1e-9 * threshold:
        problems.append(f"accepted compile: S-MAE increase {delta:.6g} > tol {rep.tol:.6g}")
    if rep.gate_delta is not None and not _close(rep.gate_delta, delta, rel=1e-9, abs_=1e-9):
        problems.append(f"gate delta {rep.gate_delta!r} != recomputed {delta!r}")
    return problems


# -- fleet --------------------------------------------------------------------


def _downtime(outcome: str, managed) -> float:
    return managed.rejuvenation_downtime if outcome == "rejuvenation" else managed.crash_downtime


def check_episode_tiling(node_log, managed) -> list[str]:
    """Episodes and the downtimes after them tile ``[0, horizon]`` exactly."""
    horizon = managed.horizon_seconds
    eps = node_log.episodes
    if not eps:
        return ["no episodes"]
    problems = []
    t = 0.0
    for k, ep in enumerate(eps):
        if not _close(ep.start, t, abs_=1e-6):
            kind = "gap" if ep.start > t else "overlap"
            problems.append(f"episode {k}: {kind}, starts at {ep.start!r}, expected {t!r}")
        if ep.end < ep.start:
            problems.append(f"episode {k}: ends before it starts")
        if ep.outcome == "horizon":
            t = ep.end
        else:
            t = min(ep.end + _downtime(ep.outcome, managed), horizon)
        if len(problems) >= MAX_PROBLEMS:
            return problems
    if not _close(t, horizon, abs_=1e-6):
        problems.append(f"episodes cover [0, {t!r}], horizon is {horizon!r}")
    total = node_log.total_uptime + node_log.total_downtime
    if not _close(total, horizon, abs_=1e-6):
        problems.append(f"uptime + downtime = {total!r}, horizon is {horizon!r}")
    return problems


def check_capacity_floor(node_logs, managed, capacity_floor: float) -> list[str]:
    """No planned restart starts while it would take capacity below the floor.

    Recomputed from the episode intervals alone: at the instant ``T`` a
    planned restart begins, the nodes down at that instant — earlier
    restarts and crashes still inside their downtime, plus every planned
    restart beginning at ``T`` — may number at most
    ``floor((1 - capacity_floor) * n)``. Crashes at ``T`` itself come after
    the grant in the control loop and do not count; a downtime that runs
    into the horizon leaves the node finished, not down.
    """
    n = len(node_logs)
    horizon = managed.horizon_seconds
    allowed = math.floor((1.0 - capacity_floor) * n + 1e-9)
    downs = []  # (start, end, planned)
    for log in node_logs:
        for ep in log.episodes:
            if ep.outcome == "horizon":
                continue
            end = ep.end + _downtime(ep.outcome, managed)
            if end < horizon:
                downs.append((ep.end, end, ep.outcome == "rejuvenation"))
    problems = []
    for start, _, planned in downs:
        if not planned:
            continue
        down = sum(
            1
            for s, e, p in downs
            if (s < start <= e) or (p and s == start)
        )
        if down > allowed:
            problems.append(
                f"planned restart at t={start:g}s: {down} of {n} nodes down, "
                f"floor allows {allowed}"
            )
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


#: Batched and per-row kernel products sum in different orders, so they
#: agree to rounding, not bit for bit: allow 1e-10 of the largest output.
BATCH_RTOL = 1e-10


def check_batched_predict(model, samples) -> list[str]:
    """Batched predictions equal row-by-row ``predict`` on sampled ticks."""
    problems = []
    for k, (X, batched) in enumerate(samples):
        rowwise = np.array([model.predict(X[i : i + 1])[0] for i in range(X.shape[0])])
        worst = float(np.abs(rowwise - batched).max())
        if not worst <= BATCH_RTOL * float(np.abs(batched).max()):
            problems.append(f"sampled call {k}: batched differs from per-row by {worst:.3e}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


# -- artifact store -----------------------------------------------------------


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
