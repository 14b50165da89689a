"""Correctness checks computed apart from the program.

Every function here uses numpy only and none calls into gosman: the
closed forms, the polygon test and the quadrature are written out again
so that a fault in the program cannot hide itself in its own check.
Each check returns a list of failure messages; an empty list passes.
"""

import math

import numpy as np

# tolerances are fixed from the arithmetic, not from observed outputs:
# EXACT for values the program computes in float64 from the same inputs,
# CSV for values printed with 10 significant digits
EXACT = 1e-9
CSV = 1e-8
# false-alarm probability of one filter-PD check (Bernstein bound)
PD_DELTA = 1e-9


def close(a, b, rel, scale=1.0):
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# GOSPA


def gospa_closed_form(X, Y, c, pos):
    """Squared GOSPA of sets with at most one element: (total, loc, missed, false)."""
    half = 0.5 * c * c
    if len(X) and len(Y):
        x = np.asarray(X[0], dtype=float)[list(pos)]
        y = np.asarray(Y[0], dtype=float)[list(pos)]
        d2 = float(np.sum((x - y) ** 2))
        if d2 < c * c:
            return d2, d2, 0.0, 0.0
        return c * c, 0.0, half, half
    return half * (len(X) + len(Y)), 0.0, half * len(X), half * len(Y)


def check_gospa_row(total, loc, missed, false, truth, est, c, rel, where):
    """A per-step row agrees with its set sizes.

    With at most one element per set, the presence flags fix the
    decomposition: a lone truth is missed (c^2/2), a lone estimate is
    false (c^2/2), and a pair is either assigned (loc < c^2, nothing
    missed or false) or left unassigned (c^2/2 each).
    """
    half = 0.5 * c * c
    out = []
    if not close(total, loc + missed + false, rel, half):
        out.append(f"{where}: total {total} != loc+missed+false {loc + missed + false}")
    if truth and est:
        assigned = (close(missed, 0.0, rel, half) and close(false, 0.0, rel, half)
                    and loc < c * c)
        unassigned = (close(missed, half, rel, half) and close(false, half, rel, half)
                      and close(loc, 0.0, rel, half))
        ok = assigned or unassigned
    else:
        ok = (close(missed, half * truth, rel, half) and close(false, half * est, rel, half)
              and close(loc, 0.0, rel, half))
    if not ok:
        out.append(f"{where}: (loc, missed, false) = ({loc}, {missed}, {false}) "
                   f"for truth_present={truth}, est_present={est}")
    return out


# ---------------------------------------------------------------------------
# geometry


def strictly_inside(point, vertices):
    """True when ``point`` lies strictly inside the convex polygon."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    rel = np.asarray(point, dtype=float) - v
    cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
    return bool(np.all(cross > 0) or np.all(cross < 0))


def feasible(point, bounds, polygons):
    xmin, xmax, ymin, ymax = bounds
    if not (xmin <= point[0] <= xmax and ymin <= point[1] <= ymax):
        return False
    return not any(strictly_inside(point, poly) for poly in polygons)


def check_trajectory(positions, initial, step, n_actions, bounds, polygons,
                     action_ids=None, rel=EXACT, where=""):
    """Positions in bounds and outside obstacles; each move a feasible action.

    A move is either one of the ``n_actions`` moves of length ``step`` at
    angle 2 pi i / n (action i, when ids are known), or no move at all,
    which is allowed only when every one of those moves is infeasible.
    """
    out = []
    prev = np.asarray(initial, dtype=float)
    angles = 2.0 * np.pi * np.arange(n_actions) / n_actions
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tol = rel * max(step, 1.0) * 100.0
    for t, p in enumerate(positions):
        p = np.asarray(p, dtype=float)
        if not feasible(p, bounds, polygons):
            out.append(f"{where} step {t}: sensor at {p.tolist()} is infeasible")
        move = p - prev
        length = float(np.hypot(*move))
        if length <= tol:
            if any(feasible(prev + step * d, bounds, polygons) for d in dirs):
                out.append(f"{where} step {t}: stayed although a move was feasible")
        elif abs(length - step) > tol:
            out.append(f"{where} step {t}: move length {length} != step {step}")
        else:
            i = int(np.argmin(np.hypot(*(move / step - dirs).T)))
            if np.hypot(*(move - step * dirs[i])) > tol:
                out.append(f"{where} step {t}: move {move.tolist()} is off the action circle")
            elif action_ids is not None and action_ids[t] != i:
                out.append(f"{where} step {t}: action id {action_ids[t]} but moved as {i}")
        prev = p
    return out


# ---------------------------------------------------------------------------
# aggregates and pairing


def rms(values):
    return math.sqrt(sum(values) / len(values))


def check_pairing(truth_by_label, windows, duration, where):
    """``truth_by_label``: label -> {(run, step): present}."""
    out = []
    labels = sorted(truth_by_label)
    ref = truth_by_label[labels[0]]
    for label in labels[1:]:
        if truth_by_label[label] != ref:
            out.append(f"{where}: truth_present of {label} differs from {labels[0]}")
    if windows is not None:
        for (run, t), present in ref.items():
            expected = any(start <= t < end for start, end in windows) and t < duration
            if present != expected:
                out.append(f"{where}: run {run} step {t} truth_present {present}, "
                           f"script says {expected}")
                break
    return out


# ---------------------------------------------------------------------------
# filter identities (traced run)


def check_density(d, where):
    out = []
    if not 0.0 <= d.r <= 1.0:
        out.append(f"{where}: r = {d.r} outside [0, 1]")
    if len(d.components):
        total = float(np.sum(d.weights))
        if abs(total - 1.0) > EXACT:
            out.append(f"{where}: weights sum to {total}")
        for g in d.components:
            w = np.linalg.eigvalsh(0.5 * (g.cov + g.cov.T))
            if w[0] < -EXACT * max(1.0, abs(w[-1])):
                out.append(f"{where}: covariance eigenvalue {w[0]}")
    return out


def check_predict(prior, model, result):
    expected = model.p_birth * (1.0 - prior.r) + model.p_survival * prior.r
    expected = 0.0 if expected <= 0.0 else min(expected, 1.0)
    out = check_density(result, "predict")
    if not close(result.r, expected, EXACT):
        out.append(f"predict: r' {result.r} != p_B(1-r)+p_S r = {expected}")
    return out


def check_update(pred, Z, pd_bar, result):
    out = check_density(result, "update")
    if len(Z) == 0 and pred.r > 0.0 and len(pred.components):
        expected = pred.r * (1.0 - pd_bar) / (1.0 - pred.r * pd_bar)
        if not close(result.r, expected, EXACT):
            out.append(f"update without measurement: r' {result.r} != {expected}")
    return out


# ---------------------------------------------------------------------------
# filter detection probability against quadrature


def _gauss_legendre_disc(centre, radius, nr=96, nt=384):
    x, w = np.polynomial.legendre.leggauss(nr)
    rho = 0.5 * radius * (x + 1.0)
    w_rho = 0.5 * radius * w * rho
    theta = 2.0 * np.pi * np.arange(nt) / nt
    pts = np.asarray(centre, dtype=float) + np.stack(
        [np.outer(rho, np.cos(theta)), np.outer(rho, np.sin(theta))], axis=-1)
    weights = np.outer(w_rho, np.full(nt, 2.0 * np.pi / nt))
    return pts.reshape(-1, 2), weights.ravel()


def _density(points, mean, cov):
    d = points - mean
    cinv = np.linalg.inv(cov)
    quad = np.einsum("ni,ij,nj->n", d, cinv, d)
    return np.exp(-0.5 * quad) / (2.0 * np.pi * math.sqrt(np.linalg.det(cov)))


def pd_tolerance(mean, cov, centre, radius, p_detect, n, delta=PD_DELTA):
    """Quadrature value of p_D * (Gaussian mass on the disc) and a Bernstein tolerance.

    The estimator averages n draws of Y = p_D A f(u), u uniform on the
    disc. Its variance comes from the quadrature of f and f^2 and its
    range from the largest density on the disc; Bernstein's inequality
    then bounds |mean - E Y| by the returned tolerance with probability
    at least 1 - delta.
    """
    pts, w = _gauss_legendre_disc(centre, radius)
    f = _density(pts, mean, cov)
    area = math.pi * radius * radius
    mass = float(w @ f)
    second = float(w @ (f * f))
    var = p_detect ** 2 * max(area * second - mass * mass, 0.0)
    centre = np.asarray(centre, dtype=float)
    if np.hypot(*(mean - centre)) <= radius:
        f_sup = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))
    else:
        theta = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        rim = centre + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        f_sup = 1.01 * float(_density(rim, mean, cov).max())
    m = p_detect * area * f_sup
    log_term = math.log(2.0 / delta)
    a = 2.0 * m * log_term / 3.0
    tol = (a + math.sqrt(a * a + 8.0 * n * log_term * var)) / (2.0 * n)
    return p_detect * mass, tol + 1e-9


def check_filter_pd(args, kwargs, result):
    g, sensor, n = args[0], args[1], args[2]
    pos = list(args[4] if len(args) > 4 else kwargs.get("pos_indices", (0, 2)))
    idx = pos if len(g.mean) > 2 else [0, 1]
    value, tol = pd_tolerance(g.mean[idx], g.cov[np.ix_(idx, idx)], sensor.position,
                              sensor.fov_radius, sensor.p_detect, n)
    # a check with a tolerance above p_D / 2 cannot catch much
    informative = tol < 0.5 * sensor.p_detect
    if abs(result - value) > tol:
        return [f"filter PD {result} vs quadrature {value} (tolerance {tol:.3g})"], informative
    return [], informative


def check_trace_records(records):
    """Run the trace-only checks; return (failures, counts by kind)."""
    failures = []
    counts = {"gospa_calls": 0, "filter_identities": 0, "filter_pd": 0,
              "filter_pd_informative": 0}
    for name, args, kwargs, result in records:
        if name == "gospa.gospa":
            X, Y, c = args[0], args[1], args[2]
            pos = kwargs.get("pos_indices", (0, 2))
            want = gospa_closed_form(X, Y, c, pos)
            got = (result.total_sq, result.loc_sq, result.missed_sq, result.false_sq)
            if not all(close(a, b, EXACT, 0.5 * c * c) for a, b in zip(got, want)):
                failures.append(f"gospa {got} != closed form {want}")
            counts["gospa_calls"] += 1
        elif name == "bernoulli.predict":
            failures += check_predict(args[0], args[1], result)
            counts["filter_identities"] += 1
        elif name == "bernoulli.update":
            failures += check_update(args[0], args[1], args[3], result)
            counts["filter_identities"] += 1
        elif name == "bernoulli.reduce":
            failures += check_density(result, "reduce")
            cap = args[1] if len(args) > 1 else kwargs["max_components"]
            if len(result.components) > cap:
                failures.append(f"reduce kept {len(result.components)} > {cap}")
            counts["filter_identities"] += 1
        elif name == "sensors.filter_pd":
            bad, informative = check_filter_pd(args, kwargs, result)
            failures += bad
            counts["filter_pd"] += 1
            counts["filter_pd_informative"] += int(informative)
    return failures, counts
