"""Output checks for the benchmark, in the standard library only.

Every check compares an output of fracq with a closed form, an exact identity
of the model or a property the method must have; none compares with a stored
copy of an earlier output.  Each function returns a list of problems, empty
when the output is correct.

Moments of the inverse stable subordinator Y_theta(t) are computed here with
``math.gamma`` and not with ``fracq.special``:

    E Y = t^theta / Gamma(1 + theta),   E Y^2 = 2 t^(2 theta) / Gamma(1 + 2 theta).

Mean checks allow 6 standard errors, so a correct program fails one of them
with probability about 2e-9.
"""

from __future__ import annotations

import csv
import math

Z_MAX = 6.0
LATTICE_TOL = 1e-6


def inverse_clock_mean(theta: float, t: float) -> float:
    return t**theta / math.gamma(1.0 + theta)


def inverse_clock_var(theta: float, t: float) -> float:
    return 2.0 * t ** (2.0 * theta) / math.gamma(1.0 + 2.0 * theta) - inverse_clock_mean(theta, t) ** 2


def read_ecdf(path: str) -> list[tuple[float, float]]:
    """(value, weight) pairs of an ecdf artifact.

    The artifact lists distinct values x with the cumulative F(x), so each
    weight is the jump of F at its value.
    """
    with open(path, newline="") as fh:
        rows = [(float(r["x"]), float(r["F"])) for r in csv.DictReader(fh)]
    out, prev = [], 0.0
    for x, f in rows:
        out.append((x, f - prev))
        prev = f
    return out


class Moments:
    """Weighted sample moments of one ecdf: mean, variance, second moment and
    the standard errors of the mean and of the second moment."""

    def __init__(self, sample: list[tuple[float, float]], n: int) -> None:
        self.mean = sum(w * x for x, w in sample)
        self.var = sum(w * (x - self.mean) ** 2 for x, w in sample)
        self.m2 = sum(w * x * x for x, w in sample)
        m4 = sum(w * x**4 for x, w in sample)
        c4 = sum(w * (x - self.mean) ** 4 for x, w in sample)
        self.se_mean = math.sqrt(self.var / n)
        self.se_m2 = math.sqrt(max(m4 - self.m2**2, 0.0) / n)
        self.se_var = math.sqrt(max(c4 - self.var**2, 0.0) / n)


def within(label: str, value: float, target: float, se: float) -> list[str]:
    if abs(value - target) <= Z_MAX * se:
        return []
    return [f"{label}: {value:.6g} is more than {Z_MAX:g} SE ({se:.3g}) from {target:.6g}"]


def means_agree(label: str, a: Moments, b: Moments) -> list[str]:
    se = math.sqrt(a.se_mean**2 + b.se_mean**2)
    return within(f"{label} (observable vs oracle)", a.mean, b.mean, se)


def nonnegative(label: str, sample) -> list[str]:
    low = min(x for x, _ in sample)
    return [f"{label}: negative value {low:.6g}"] if low < 0 else []


def on_lattice(label: str, sample, scale: float) -> list[str]:
    """Every value is k / scale for an integer k."""
    for x, _ in sample:
        k = x * scale
        if abs(k - round(k)) > LATTICE_TOL * max(1.0, abs(k)):
            return [f"{label}: {x!r} is not on the lattice k/{scale:.6g}"]
    return []


def integers(label: str, sample) -> list[str]:
    bad = [x for x, _ in sample if x < 0 or x != int(x)]
    return [f"{label}: non-count value {bad[0]!r}"] if bad else []


# ---------------------------------------------------------------------------
# queue_limits

def queue_scaling_arrivals(report: dict, out_dir: str) -> list[str]:
    """Arrivals dominate: Q_{<=i}(ut)/u^alpha -> lam^alpha P_i Y_alpha(t)."""
    p = report["parameters"]
    n = report["replicas"]
    gamma = max(p["alpha"], p["beta"])
    head = sum(p["p"][: p["i"]])
    target = p["lam"] ** p["alpha"] * head * inverse_clock_mean(p["alpha"], p["t"])
    obs = read_ecdf(f"{out_dir}/queue_scaling_observable_ecdf.csv")
    ora = read_ecdf(f"{out_dir}/queue_scaling_oracle_ecdf.csv")
    problems = nonnegative("observable", obs) + nonnegative("oracle", ora)
    problems += on_lattice("observable", obs, p["u"] ** gamma)
    for label, sample in (("observable", obs), ("oracle", ora)):
        m = Moments(sample, n)
        problems += within(f"{label} mean", m.mean, target, m.se_mean)
    return problems


def queue_scaling_balanced(report: dict, out_dir: str) -> list[str]:
    """Balanced: the reflected observable and the reflected-difference oracle
    agree in mean; the per-class queue Q_i is a nonnegative lattice value."""
    p = report["parameters"]
    n = report["replicas"]
    scale = p["u"] ** max(p["alpha"], p["beta"])
    obs = read_ecdf(f"{out_dir}/queue_scaling_observable_ecdf.csv")
    ora = read_ecdf(f"{out_dir}/queue_scaling_oracle_ecdf.csv")
    problems = nonnegative("observable", obs) + nonnegative("oracle", ora)
    problems += on_lattice("observable", obs, scale)
    if p["i"] >= 2:
        per_class = read_ecdf(f"{out_dir}/queue_scaling_per_class_ecdf.csv")
        problems += nonnegative("Q_i", per_class) + on_lattice("Q_i", per_class, scale)
    problems += means_agree("scaled queue mean", Moments(obs, n), Moments(ora, n))
    return problems


def centered_clt(report: dict, out_dir: str) -> list[str]:
    """Reflected compensated netflow against the reflected Brownian
    difference: both are reflections, so nonnegative, and agree in mean."""
    n = report["replicas"]
    obs = read_ecdf(f"{out_dir}/centered_clt_observable_ecdf.csv")
    ora = read_ecdf(f"{out_dir}/centered_clt_oracle_ecdf.csv")
    problems = nonnegative("observable", obs) + nonnegative("oracle", ora)
    problems += means_agree("centered queue mean", Moments(obs, n), Moments(ora, n))
    return problems


def oscillation(report: dict) -> list[str]:
    """Every clock-difference path starts at 0, so its running minimum is
    <= 0 <= its running maximum, and so are the medians over replicas."""
    d = report["details"]
    horizons = report["parameters"]["horizons"]
    lows, highs = d["median_running_min"], d["median_running_max"]
    if not len(lows) == len(highs) == len(horizons):
        return ["oscillation: one median pair per horizon expected"]
    return [
        f"oscillation: at horizon {h:g} the medians ({lo:g}, {hi:g}) do not bracket 0"
        for h, lo, hi in zip(horizons, lows, highs)
        if not lo <= 0.0 <= hi
    ]


# ---------------------------------------------------------------------------
# count_laws

def pmf_counts(report: dict, out_dir: str) -> list[str]:
    """Both count constructions: E N(t) = lam^theta E Y and
    Var N(t) = lam^theta E Y + lam^(2 theta) Var Y."""
    p = report["parameters"]
    n = report["replicas"]
    rate = p["lam"] ** p["theta"]
    mean_y = inverse_clock_mean(p["theta"], p["t"])
    var_n = rate * mean_y + rate**2 * inverse_clock_var(p["theta"], p["t"])
    problems: list[str] = []
    for name in ("renewal", "timechange"):
        sample = read_ecdf(f"{out_dir}/pmf_{name}_ecdf.csv")
        m = Moments(sample, n)
        problems += integers(name, sample)
        problems += within(f"{name} count mean", m.mean, rate * mean_y, m.se_mean)
        problems += within(f"{name} count variance", m.var, var_n, m.se_var)
    return problems


def covariance(report: dict) -> list[str]:
    """The report's targets equal p_i p_j lam^(2a) Var Y (plus p_i lam^a E Y on
    the diagonal), and every empirical moment is within 6 SE of its target."""
    p = report["parameters"]
    d = report["details"]
    rate = p["lam"] ** p["alpha"]
    mean_y = inverse_clock_mean(p["alpha"], p["t"])
    var_y = inverse_clock_var(p["alpha"], p["t"])
    probs = p["p"]
    problems: list[str] = []
    for i in range(len(probs)):
        for j in range(i, len(probs)):
            key = f"{i + 1}{j + 1}"
            target = probs[i] * probs[j] * rate**2 * var_y
            if i == j:
                target += probs[i] * rate * mean_y
            if not math.isclose(d[f"target_{key}"], target, rel_tol=1e-9):
                problems.append(f"covariance target_{key}={d[f'target_{key}']!r}, closed form {target!r}")
            if not abs(d[f"z_{key}"]) <= Z_MAX:
                problems.append(f"covariance z_{key}={d[f'z_{key}']:.3g} beyond {Z_MAX:g}")
    return problems


def lln(report: dict, out_dir: str) -> list[str]:
    """N_i(ut)/u^theta has mean lam^theta p_i E Y(t) exactly, and so has the
    oracle lam^theta p_i Y(t)."""
    p = report["parameters"]
    n = report["replicas"]
    mean_y = inverse_clock_mean(p["theta"], p["t"])
    problems: list[str] = []
    for i, p_i in enumerate(p["p"], start=1):
        target = p["lam"] ** p["theta"] * p_i * mean_y
        for kind in ("observable", "oracle"):
            m = Moments(read_ecdf(f"{out_dir}/lln_class{i}_{kind}_ecdf.csv"), n)
            problems += within(f"lln class {i} {kind} mean", m.mean, target, m.se_mean)
    return problems


def fclt(report: dict, out_dir: str) -> list[str]:
    """Compensated counts and their Brownian limit have mean 0 and second
    moment p_i lam^theta E Y(t)."""
    p = report["parameters"]
    n = report["replicas"]
    mean_y = inverse_clock_mean(p["theta"], p["t"])
    problems: list[str] = []
    for i, p_i in enumerate(p["p"], start=1):
        target_m2 = p_i * p["lam"] ** p["theta"] * mean_y
        for kind in ("observable", "oracle"):
            m = Moments(read_ecdf(f"{out_dir}/fclt_class{i}_{kind}_ecdf.csv"), n)
            problems += within(f"fclt class {i} {kind} mean", m.mean, 0.0, m.se_mean)
            problems += within(f"fclt class {i} {kind} second moment", m.m2, target_m2, m.se_m2)
    return problems


def pmf_table(table: list[float], theta: float, lam: float, t: float) -> list[str]:
    """The truncated pmf holds all but 1e-10 of the mass and its mean is
    lam^theta E Y(t) to 1e-8."""
    problems: list[str] = []
    total = math.fsum(table)
    if min(table) < 0.0:
        problems.append("pmf table has a negative entry")
    if not 1.0 - 1e-10 <= total <= 1.0 + 1e-12:
        problems.append(f"pmf table sums to {total!r}")
    mean = math.fsum(k * v for k, v in enumerate(table))
    target = lam**theta * inverse_clock_mean(theta, t)
    if not math.isclose(mean, target, rel_tol=1e-8):
        problems.append(f"pmf table mean {mean!r} differs from {target!r}")
    return problems


# ---------------------------------------------------------------------------
# event_paths

def trajectory(path: str, n_classes: int) -> list[str]:
    """Checks of a `fracq queue` trajectory.csv, row by row:

    * Q_1+...+Q_i equals the Skorokhod reflection of (class-<=i arrivals - all
      services) for every i (the priority-aggregate identity);
    * q_total is the sum of the classes and `infimum` the running
      min(0, inf netflow);
    * a class-c departure happens only when classes < c are empty, and a `W`
      row appears exactly when the system was empty.
    """
    k = n_classes
    net = [0] * k
    low = [0] * k
    prev = [0] * k
    problems: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[3 : 3 + k] != [f"q_{i}" for i in range(1, k + 1)]:
            return [f"{path}: unexpected header {header}"]
        for row_no, row in enumerate(reader, start=2):
            kind, cls = row[1], int(row[2]) if row[2] else 0
            q = [int(v) for v in row[3 : 3 + k]]
            total, infimum = int(row[3 + k]), int(row[4 + k])
            where = f"{path}:{row_no}"
            if kind == "A":
                for i in range(cls - 1, k):
                    net[i] += 1
            elif kind in ("D", "W"):
                if (kind == "W") != (sum(prev) == 0):
                    problems.append(f"{where}: {kind} row with {sum(prev)} waiting")
                if kind == "D" and (cls < 1 or any(prev[: cls - 1]) or prev[cls - 1] == 0):
                    problems.append(f"{where}: class {cls} served with queues {prev}")
                for i in range(k):
                    net[i] -= 1
                    low[i] = min(low[i], net[i])
            else:
                problems.append(f"{where}: unknown event type {kind!r}")
            agg = 0
            for i in range(k):
                agg += q[i]
                if agg != net[i] - low[i]:
                    problems.append(f"{where}: Q_1..Q_{i + 1} = {agg}, reflection {net[i] - low[i]}")
                    break
            if total != agg or infimum != low[k - 1]:
                problems.append(f"{where}: q_total {total} / infimum {infimum} inconsistent")
            if problems:
                return problems
            prev = q
    return problems


def _netflow_path(arrivals: list[float], departures: list[float]):
    """(time, netflow) after each event of the merged streams, arrivals first
    at equal times."""
    events = sorted([(t, 0) for t in arrivals] + [(t, 1) for t in departures])
    net = 0
    for t, kind in events:
        net += 1 if kind == 0 else -1
        yield t, net


def continuum_queue(
    arrivals: list[float],
    departures: list[float],
    ask_times: list[float],
    ask_values: list[float],
    total: int,
    wasted: int,
    support: tuple[float, float],
) -> list[str]:
    """The continuum queue's total is the reflection Phi(A - S), its wasted
    services are -min(0, inf(A - S)), and the best ask lies in the location
    support and is +inf exactly where the reflection is 0."""
    low, net = 0, 0
    reflected_at: dict[float, int] = {}
    for t, net in _netflow_path(arrivals, departures):
        low = min(low, net)
        reflected_at[t] = net - low  # the last event at a time wins
    problems: list[str] = []
    if total != net - low:
        problems.append(f"continuum total {total} != Phi(A-S)(T) = {net - low}")
    if wasted != -low:
        problems.append(f"continuum wasted {wasted} != -min(0, inf(A-S)) = {-low}")
    if len(ask_times) != len(reflected_at):
        problems.append(f"best-ask path has {len(ask_times)} times, the events {len(reflected_at)}")
        return problems
    a, b = support
    for t, v in zip(ask_times, ask_values):
        empty = reflected_at.get(t) == 0
        if empty != math.isinf(v) or not (math.isinf(v) or a <= v <= b):
            problems.append(f"best ask {v!r} at t={t!r} with reflection {reflected_at.get(t)}")
            break
    return problems


def timeline(path: str, horizon: float) -> list[str]:
    """A timeline.csv is strictly increasing in (0, horizon]."""
    with open(path, newline="") as fh:
        times = [float(r["time"]) for r in csv.DictReader(fh)]
    if not times:
        return [f"{path}: no events"]
    if not (times[0] > 0.0 and times[-1] <= horizon):
        return [f"{path}: times leave (0, {horizon:g}]"]
    for k in range(1, len(times)):
        if not times[k] > times[k - 1]:
            return [f"{path}: time {times[k]!r} at row {k + 2} does not increase"]
    return []
