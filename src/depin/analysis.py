"""Critical-point location, exponent fits, and the smoothing-envelope check.

locate_hc finds the field where the size-extrapolated free energy stops
clearing a noise threshold, fit_exponent measures the power of (h_c - h) on
a log-log scale, and smoothing_check assembles the full comparison:
disordered exponent and envelope versus the exactly solvable homogeneous
model on the same kernel.  Both the bisection and the smoothing scan
estimate every size at a field and extrapolate through one helper, and
every straight-line fit (the N = inf extrapolation, the log-log exponent,
each candidate critical point of the power-law fit) is one _wls_line solve.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .disorder import DisorderLaw, smoothing_constant, spawn_seed
from .engine import ModelSpec
from .estimator import estimate_free_energy
from .kernel import ReturnKernel
from .pure_solver import hc_pure, pure_asymptotics, solve_free_energy_pure


class UsageError(ValueError):
    """An input that no run can use, such as a size no path reaches (exit
    code 2 on the command line)."""


@dataclass(frozen=True)
class CriticalFit:
    """Critical point and/or critical-exponent fit results.

    points holds the (h, F, stderr) rows behind the fit; for a bare
    critical-point search it holds the bisection probes (h, extrapolated F,
    threshold) instead.
    """

    hc: float
    hc_err: float
    exponent: float | None = None
    exponent_err: float | None = None
    envelope_constant: float | None = None
    points: tuple = ()


def _scale(sigma: np.ndarray) -> np.ndarray:
    """The sigmas a fit divides by: zeros raised to the smallest positive
    sigma, or all ones when no sigma is positive."""
    if np.any(sigma > 0):
        return np.maximum(sigma, sigma[sigma > 0].min())
    return np.ones_like(sigma)


def _wls_line(x: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least squares for y = a + b x, one line per leading index of
    x (sums run along its last axis; y and sigma are shared by every line);
    returns (a, b, var_a, var_b) with the leading shape of x.

    Weights are 1/_scale(sigma)^2, so plain least squares when no sigma is
    positive; parameter variances come from (X^T W X)^-1 with the given
    sigmas taken as true, and are 0 when no sigma is positive.
    """
    w = 1.0 / _scale(sigma) ** 2
    sw = w.sum()
    sx = (w * x).sum(axis=-1)
    sxx = (w * x * x).sum(axis=-1)
    sy = (w * y).sum(axis=-1)
    sxy = (w * x * y).sum(axis=-1)
    det = sw * sxx - sx * sx
    if np.any(det <= 0):
        raise ValueError("degenerate fit design")
    a = (sxx * sy - sx * sxy) / det
    b = (sw * sxy - sx * sy) / det
    if not np.any(sigma > 0):
        return a, b, 0.0, 0.0
    return a, b, sxx / det, sw / det


def extrapolate_free_energy(n_values, means, stderrs) -> tuple[float, float]:
    """Infinite-size intercept of F_N = F_inf + a log(N)/N; returns
    (F_inf, sigma) with sigma the weighted-fit standard error of F_inf.

    A single size is its own limit: (mean, stderr).
    """
    n_values = np.asarray(n_values, dtype=float)
    y = np.asarray(means, dtype=float)
    if len(n_values) == 1:
        return float(y[0]), float(stderrs[0])
    x = np.log(n_values) / n_values
    a, _, var_a, _ = _wls_line(x, y, np.asarray(stderrs, dtype=float))
    return float(a), math.sqrt(var_a)


def _extrapolate_at(kind: str, beta: float, h_values, kernel: ReturnKernel,
                    law: DisorderLaw, n_list, replicas: int, seeds) -> list:
    """Estimate F_N at each field of h_values on every size (seeds[i] for
    n_list[i]) and extrapolate; returns one (F_inf, sigma, per-size
    estimates) per field.  The fields are rows of one build, and so are the
    sizes that share a seed, or all sizes when beta = 0."""
    models = [ModelSpec(kind, beta, h, kernel) for h in h_values]
    out = []
    for ests in estimate_free_energy(models, law, n_list, replicas, seeds):
        f_inf, sigma = extrapolate_free_energy(n_list, [e.mean for e in ests],
                                               [e.stderr for e in ests])
        out.append((f_inf, sigma, ests))
    return out


# window cells (rows x w) of one speculative bisection build, see locate_hc:
# below it a build's time is mostly per-step overhead
SPECULATION_CELLS = 1 << 10


def _speculation_depth(beta: float, kernel: ReturnKernel, n_max: int,
                       replicas: int) -> int:
    """Levels of the bisection tree evaluated per build: the largest d >= 1
    with (2^d - 1) fields x rows per field x window <= SPECULATION_CELLS."""
    rows = 1 if beta == 0.0 else replicas
    cells = rows * min(n_max // kernel.period, kernel.n_max)
    depth = 1
    while (2 ** (depth + 1) - 1) * cells <= SPECULATION_CELLS:
        depth += 1
    return depth


def locate_hc(kind: str, beta: float, kernel: ReturnKernel, law: DisorderLaw,
              n_list, replicas: int, seed: int, tol: float,
              h_window: tuple[float, float] | None = None) -> CriticalFit:
    """Bisection for the critical field at fixed beta.

    At each probe h the free energy is estimated on every size in n_list
    (disorder shared across probes, so estimates are comparable), the
    infinite-size value is extrapolated with an a log(N)/N correction, and
    the phase indicator is "extrapolated F above threshold" with threshold
    the larger of 3x the biggest-size standard error and a floor of
    4/max(N) that keeps the beta = 0 case (zero standard error) off the
    finite-size extrapolation residue.  A size that no chain of the
    kernel's excursions reaches is a UsageError, raised before any estimate,
    and so is an h_window without lo < hi.  Each bracket end moves out by
    the window's width until its phase is right, in at most 8 probes; a
    copolymer's lower end stops at h = 0.

    The search speculates when a build is narrow: the bracket ends are
    evaluated in one build, and then the next d levels of the bisection
    tree, 2^d - 1 midpoints, as (field, replica) rows of one build, with d
    set by SPECULATION_CELLS.  Only the probes the one-at-a-time bisection
    makes are kept, in its order, and every field is estimated bit for bit
    as alone, so the result and the probes never depend on d.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if replicas < 1:
        raise ValueError("need at least one replica")
    n_list = sorted(n_list)
    if not n_list or n_list[0] < 1:
        raise ValueError("need at least one size, all positive")
    for n in n_list:
        if not kernel.reaches(n):
            raise UsageError(f"no path of the kernel ends at N={n}")
    floor = 4.0 / n_list[-1]
    probes = []
    seeds = [spawn_seed(seed, i) for i in range(len(n_list))]
    depth = _speculation_depth(beta, kernel, n_list[-1], replicas)

    def evaluate(h_values) -> list:
        """A probe (h, F_inf, threshold) per field, from one build."""
        return [(h, f_inf, max(3.0 * ests[-1].stderr, floor))
                for h, (f_inf, _, ests) in zip(h_values, _extrapolate_at(
                    kind, beta, h_values, kernel, law, n_list, replicas, seeds))]

    def localized(probe) -> bool:
        return probe[1] > probe[2]

    def split(lo: float, hi: float):
        """The bisection's next midpoint of (lo, hi), or None where it stops."""
        mid = 0.5 * (lo + hi)
        if not hi - lo > 2.0 * tol or mid in (lo, hi):  # adjacent floats
            return None
        return mid

    if h_window is None:
        if kind == "pinning":
            base = hc_pure(kernel)
            lo, hi = base - 0.25, base + law.log_mgf(beta) + 0.25
        else:
            lo, hi = 0.0, 0.5 + beta * beta
    else:
        lo, hi = h_window
    if not lo < hi:
        raise UsageError("the search window needs h_lo < h_hi")
    width = hi - lo

    def widen(end: float, probe, step: float, want: bool) -> float:
        """Move a bracket end by step until its probe is localized (want) or
        delocalized (not want), in at most 8 probes, all recorded; a
        copolymer end stops at h = 0, below which no coupling exists."""
        for i in range(8):
            if i:
                end += step
                if kind == "copolymer" and end < 0.0:
                    if probe[0] == 0.0:
                        break
                    end = 0.0
                probe, = evaluate([end])
            probes.append(probe)
            if localized(probe) == want:
                return end
        side = "localized" if want else "delocalized"
        raise ValueError(f"no {side} endpoint found in the search range")

    # both first probes come from one build; the hi probe waits while lo widens
    lo_probe, hi_probe = evaluate([lo, hi])
    lo = widen(lo, lo_probe, -width, True)
    hi = widen(hi, hi_probe, width, False)

    while True:
        # the midpoints of the next `depth` levels below (lo, hi), one build
        level, mids = [(lo, hi)], []
        for _ in range(depth):
            below = []
            for a, b in level:
                mid = split(a, b)
                if mid is not None:
                    mids.append(mid)
                    below += [(a, mid), (mid, b)]
            level = below
        if not mids:
            break
        probe_at = dict(zip(mids, evaluate(mids)))
        # walk the path the one-at-a-time bisection takes through them
        for _ in range(depth):
            mid = split(lo, hi)
            if mid is None:
                break
            probes.append(probe_at[mid])
            if localized(probe_at[mid]):
                lo = mid
            else:
                hi = mid
    return CriticalFit(hc=0.5 * (lo + hi), hc_err=0.5 * (hi - lo),
                       points=tuple(probes))


def select_fit_points(points, hc: float, hc_err: float = 0.0):
    """Rows usable for a critical fit: significant F, gap clear of the
    critical-point uncertainty (10x its bracket), strictly below h_c."""
    out = []
    for h, f, err in points:
        gap = hc - h
        if gap <= 0 or f <= 3.0 * err or gap < 10.0 * hc_err:
            continue
        out.append((float(h), float(f), float(err)))
    return out


def fit_exponent(points, hc: float, hc_err: float = 0.0) -> CriticalFit:
    """Weighted log-log fit of F against (h_c - h) over the usable window.

    Also reports the quadratic-envelope prefactor F/(h_c - h)^2 evaluated at
    the window edge closest to the critical point.
    """
    used = select_fit_points(points, hc, hc_err)
    if len(used) < 4:
        raise ValueError("fewer than 4 usable points in the fit window")
    used.sort(key=lambda row: hc - row[0])
    gaps = np.array([hc - h for h, _, _ in used])
    f = np.array([row[1] for row in used])
    err = np.array([row[2] for row in used])
    x = np.log(gaps)
    y = np.log(f)
    sigma = err / f
    _, slope, _, var_b = _wls_line(x, y, sigma)
    edge_gap, edge_f = gaps[0], f[0]
    return CriticalFit(hc=hc, hc_err=hc_err, exponent=float(slope),
                       exponent_err=float(math.sqrt(var_b)),
                       envelope_constant=float(edge_f / edge_gap**2),
                       points=tuple(used))


def critical_power_fit(points, hc_lo: float, hc_hi: float,
                       grid_size: int = 400) -> tuple[float, float, float]:
    """Fit F = C (hc' - h)^kappa with the critical point as a parameter.

    For every candidate hc' > max(h) on a grid the log-log line is solved
    by weighted least squares (one _wls_line call, a row per candidate)
    and its chi^2 recorded; returns (hc_best, exponent, chi2) at the first
    grid minimizer, or (hc_hi, 0.0, inf) when no candidate qualifies.
    Used because a
    threshold-based critical-point search is biased low by construction
    (it needs the free energy to clear the noise), which would drag a
    fixed-hc log-log slope below its true value.
    """
    h = np.array([p[0] for p in points])
    f = np.array([p[1] for p in points])
    err = np.array([p[2] for p in points])
    sigma = err / f
    y = np.log(f)
    grid = np.linspace(hc_lo, hc_hi, grid_size)
    grid = grid[grid > h.max()]
    x = np.log(grid[:, None] - h)  # one row, and one line, per candidate
    a, b, _, _ = _wls_line(x, y, sigma)
    resid = y - a[:, None] - b[:, None] * x
    chi2 = ((resid / _scale(sigma)) ** 2).sum(axis=-1)
    chi2[np.isnan(chi2)] = math.inf
    if not np.any(chi2 < math.inf):
        return float(hc_hi), 0.0, math.inf
    best = int(np.argmin(chi2))
    return float(grid[best]), float(b[best]), float(chi2[best])


@dataclass(frozen=True)
class SmoothingReport:
    """Everything smoothing_check measures, JSON-ready via to_dict().

    hc is the bisection critical point (biased low by up to its noise
    threshold, by construction); hc_fit is the critical point preferred by
    the power-law fit of the scan itself, and exponent is fitted at hc_fit.
    """

    beta: float
    alpha: float
    hc: float
    hc_err: float
    hc_fit: float
    exponent: float
    exponent_err: float
    envelope_ok: bool
    envelope_prefactor: float
    ratio_decreasing: bool
    ratios: tuple
    points: tuple               # (h, extrapolated F, stderr), both sides of h_c
    pure_order: str | None      # the pure_* fields are None for a copolymer
    pure_slope: float | None
    pure_ratio_target: float | None
    constants_route: str
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_SCAN_GAPS = (0.35, 0.248, 0.175, 0.124, 0.088, 0.062, 0.044,
                     0.031, 0.022, 0.0156, 0.011)


def smoothing_check(beta: float, kernel: ReturnKernel, law: DisorderLaw, *,
                    n_list, replicas: int, seed: int, tol: float = 2e-3,
                    scan_gaps=DEFAULT_SCAN_GAPS, kind: str = "pinning",
                    config: dict | None = None) -> SmoothingReport:
    """Probe the quadratic smoothing envelope at desk scale.

    Locates h_c(beta) by bisection, then scans the free energy on both
    sides of it; every scan point is estimated on all sizes in n_list and
    extrapolated with the same a log(N)/N form the bisection uses, which
    removes most of the finite-size droop near the critical point.  The
    critical exponent comes from a power-law fit that re-fits the critical
    point on the scan (critical_power_fit), with a leave-one-replica-out
    jackknife for its uncertainty; the envelope and ratio diagnostics are
    anchored at the conservative bisection h_c.  For pinning the
    homogeneous model on the same kernel is solved for contrast; a
    copolymer has no such contrast, and its scan leaves out fields below 0.
    """
    if beta <= 0:
        raise ValueError("the envelope check needs beta > 0")
    if kernel.alpha is None:
        raise ValueError("kernel must declare a tail exponent")
    fit0 = locate_hc(kind, beta, kernel, law, n_list, replicas, seed, tol)
    hc, hc_err = fit0.hc, fit0.hc_err
    n_list = sorted(n_list)

    gaps = sorted(scan_gaps, reverse=True)
    h_values = [hc - g for g in gaps] + [hc + gaps[-1], hc + gaps[len(gaps) // 2]]
    # per scan point: estimates on every size (one seed shared by the
    # sizes), extrapolated to N = inf; each point keeps the seed of its
    # place in the full list, and copolymer couplings exist only at h >= 0
    points, ests = [], []
    for i, h in enumerate(h_values):
        if kind == "copolymer" and h < 0:
            continue
        (f_inf, sig, row), = _extrapolate_at(kind, beta, [h], kernel, law, n_list,
                                             replicas,
                                             [spawn_seed(seed, 1000 + i)] * len(n_list))
        points.append((h, f_inf, sig))
        ests.append(row)
    h_values = [p[0] for p in points]
    points = tuple(points)

    loc = [p for p in points if p[0] < hc]
    usable = select_fit_points(loc, hc, hc_err)
    if len(usable) < 5:
        fit = fit_exponent(loc, hc, hc_err)
        hc_fit, exponent = hc, fit.exponent
    else:
        h_top = max(p[0] for p in usable)
        hc_fit, exponent, _ = critical_power_fit(
            usable, h_top + 0.02 * (hc - h_top), h_top + 0.3)

    # jackknife over replicas: rebuild each point from leave-one-out means,
    # re-extrapolate and re-fit (including the critical-point search)
    jack = []
    stderr_by_h = {p[0]: p[2] for p in points}
    used_h = [p[0] for p in usable]
    h_top = max(used_h)
    for r in range(replicas):
        pts_r = []
        for h, row in zip(h_values, ests):
            if h not in used_h:
                continue
            means = [float(np.delete(e.replica_values, r).mean()) for e in row]
            f_inf, _ = extrapolate_free_energy(n_list, means, [e.stderr for e in row])
            if f_inf > 0:
                pts_r.append((h, f_inf, stderr_by_h[h]))
        if len(pts_r) >= 5:
            _, kappa_r, _ = critical_power_fit(pts_r, h_top + 0.02 * (hc - h_top),
                                               h_top + 0.3, grid_size=200)
            jack.append(kappa_r)
    if len(jack) >= 2:
        jk = np.array(jack)
        jack_err = math.sqrt((len(jk) - 1) / len(jk) * ((jk - jk.mean()) ** 2).sum())
    else:
        jack_err = 0.0

    consts = smoothing_constant(beta, kernel.alpha, law)
    envelope_ok = all(f <= consts.envelope(hc - h) + 3.0 * err
                      for h, f, err in loc)

    ratios = tuple((hc - h, f / (hc - h), err / (hc - h)) for h, f, err in usable)
    ratio_decreasing = all(
        ratios[i + 1][1] <= ratios[i][1] + 2.0 * (ratios[i][2] + ratios[i + 1][2])
        for i in range(len(ratios) - 1))

    # the homogeneous pinning model is the contrast of pinning only
    pure_order = pure_slope = pure_target = None
    if kind == "pinning":
        pure = pure_asymptotics(kernel)
        pure_order, pure_target = pure.order, pure.slope
        pure_slope = solve_free_energy_pure(kernel, hc_pure(kernel) - 1e-3).b / 1e-3

    return SmoothingReport(
        beta=beta, alpha=kernel.alpha, hc=hc, hc_err=hc_err, hc_fit=hc_fit,
        exponent=exponent, exponent_err=jack_err,
        envelope_ok=envelope_ok, envelope_prefactor=consts.envelope(1.0),
        ratio_decreasing=ratio_decreasing, ratios=ratios, points=points,
        pure_order=pure_order, pure_slope=pure_slope,
        pure_ratio_target=pure_target, constants_route=consts.route,
        config=dict(config or {}))
