"""Critical-point location, exponent fits, and the smoothing-envelope check.

locate_hc finds the field where the size-extrapolated free energy stops
clearing a noise threshold, fit_exponent measures the power of (h_c - h) on
a log-log scale, and smoothing_check assembles the full comparison:
disordered exponent and envelope versus the exactly solvable homogeneous
model on the same kernel.  The bisection and the scan read replica r's one
disorder chain at every size, field and probe, and take an error bar from
the spread of per-replica extrapolations.  The bisection reads a memo of
probes keyed by field, whose first build holds both bracket ends and the
first levels of the bisection tree below them; the headline exponent and
its jackknife refits take one fit route; every straight-line fit (the
N = inf extrapolation, the log-log exponent, each candidate critical point
of the power-law fit) is one _wls_line solve.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .disorder import DisorderLaw, smoothing_constant
from .engine import ModelSpec
from .estimator import _spread, estimate_free_energy
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
    x or of y (sums run along the last axis; sigma is shared by every
    line); returns (a, b, var_a, var_b) with that leading shape.

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


def extrapolate_free_energy(n_values, means, stderrs):
    """Infinite-size intercept of F_N = F_inf + a log(N)/N; returns
    (F_inf, sigma) with sigma the weighted-fit standard error of F_inf.
    means may be a block with the sizes along its last axis: F_inf per row.

    A single size is its own limit: (mean, stderr).
    """
    n_values = np.asarray(n_values, dtype=float)
    y = np.asarray(means, dtype=float)
    if len(n_values) == 1:
        a, sigma = y[..., 0], float(stderrs[0])
    else:
        a, _, var_a, _ = _wls_line(np.log(n_values) / n_values, y,
                                   np.asarray(stderrs, dtype=float))
        sigma = math.sqrt(var_a)
    return (float(a) if y.ndim == 1 else a), sigma


def _extrapolate_at(kind: str, beta: float, h_values, kernel: ReturnKernel,
                    law: DisorderLaw, n_list, replicas: int, seed: int) -> list:
    """Estimate F_N at each field of h_values on every size, all from one
    build, and extrapolate each replica; returns one (F_inf, sigma,
    per-replica F_inf) per field, F_inf extrapolated from the size means
    (the per-replica mean up to rounding: the fit is linear) and sigma the
    standard error of the per-replica values."""
    models = [ModelSpec(kind, beta, h, kernel) for h in h_values]
    out = []
    for ests in estimate_free_energy(models, law, n_list, replicas, seed):
        # row 0 holds the size means, row 1 + r replica r's values
        rows = np.vstack(([e.mean for e in ests],
                          np.column_stack([e.replica_values for e in ests])))
        f_inf, _ = extrapolate_free_energy(n_list, rows, [e.stderr for e in ests])
        out.append((float(f_inf[0]), _spread(f_inf[1:]), f_inf[1:]))
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
    (replica r reads its one chain at every probe and size), the
    infinite-size value is extrapolated with an a log(N)/N correction, and
    the phase indicator is "extrapolated F above threshold" with threshold
    the larger of 3 sigma, sigma the standard error of the per-replica
    extrapolations, and a floor of 4/max(N) that keeps the beta = 0 or
    one-replica case (zero sigma) off the finite-size extrapolation
    residue.  A size that no chain of the kernel's excursions reaches is a
    UsageError, raised before any estimate, and so are a repeated size, an
    h_window without lo < hi, and a copolymer h_window with lo < 0.  Each
    bracket end moves out by the window's width until its phase is right,
    in at most 8 probes; a copolymer's lower end stops at h = 0.

    Probes go into a memo keyed by field, and the search speculates when a
    build is narrow: the first build holds both bracket ends and the
    midpoints of the first d levels of the bisection between them, and a
    later probe at a field not yet known is built with the unknown
    midpoints of the next d levels below its bracket, up to 2^d - 1 fields
    as (field, replica) rows of one build, with d set by SPECULATION_CELLS.
    An end that has to move leaves the first build's midpoints unread.
    The bisection then reads the memo one probe at a time, so no field is
    built twice, and every field is estimated bit for bit as alone, so the
    result and the probes never depend on d.
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
    if len(set(n_list)) < len(n_list):
        raise UsageError("each size may appear once: a repeated size is not "
                         "an independent one")
    floor = 4.0 / n_list[-1]
    probes, known = [], {}
    depth = _speculation_depth(beta, kernel, n_list[-1], replicas)

    def evaluate(h_values) -> None:
        """Put a probe (h, F_inf, threshold) per field in known, from one build."""
        for h, (f_inf, sigma, _) in zip(h_values, _extrapolate_at(
                kind, beta, h_values, kernel, law, n_list, replicas, seed)):
            known[h] = (h, f_inf, max(3.0 * sigma, floor))

    def split(lo: float, hi: float):
        """The bisection's next midpoint of (lo, hi), or None where it stops."""
        mid = 0.5 * (lo + hi)
        if not hi - lo > 2.0 * tol or mid in (lo, hi):  # adjacent floats
            return None
        return mid

    def tree(lo: float, hi: float, levels: int) -> list:
        """The bisection's midpoints in the next `levels` levels below (lo, hi)."""
        mid = split(lo, hi)
        if mid is None or levels == 0:
            return []
        return [mid, *tree(lo, mid, levels - 1), *tree(mid, hi, levels - 1)]

    def localized(h: float, lo: float = 0.0, hi: float = 0.0) -> bool:
        """Record the probe at h.  An h not yet known is built along with the
        unknown midpoints of the next `depth` levels below (lo, hi)."""
        if h not in known:
            evaluate([x for x in dict.fromkeys([h, *tree(lo, hi, depth)]) if x not in known])
        probes.append(known[h])
        return known[h][1] > known[h][2]

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
    if kind == "copolymer" and lo < 0.0:
        raise UsageError("a copolymer search window needs h_lo >= 0: no "
                         "copolymer coupling exists below h = 0")
    width = hi - lo

    # both first probes and the bisection's first `depth` levels from one build
    evaluate([lo, hi, *tree(lo, hi, depth)])
    for i in range(8):  # no copolymer coupling exists below h = 0
        if localized(lo):
            break
        if i == 7 or (kind == "copolymer" and lo == 0.0):
            raise ValueError("no localized endpoint found in the search range")
        lo = max(lo - width, 0.0) if kind == "copolymer" else lo - width
    for i in range(8):
        if not localized(hi):
            break
        if i == 7:
            raise ValueError("no delocalized endpoint found in the search range")
        hi += width

    while (mid := split(lo, hi)) is not None:
        if localized(mid, lo, hi):
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

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_SCAN_GAPS = (0.35, 0.248, 0.175, 0.124, 0.088, 0.062, 0.044,
                     0.031, 0.022, 0.0156, 0.011)


def smoothing_check(beta: float, kernel: ReturnKernel, law: DisorderLaw, *,
                    n_list, replicas: int, seed: int, tol: float = 2e-3,
                    scan_gaps=DEFAULT_SCAN_GAPS, kind: str = "pinning") -> SmoothingReport:
    """Probe the quadratic smoothing envelope at desk scale.

    Locates h_c(beta) by bisection, then scans the free energy on both
    sides of it; every scan point is estimated on all sizes in n_list and
    extrapolated, replica by replica, with the same a log(N)/N form the
    bisection uses, which removes most of the finite-size droop near the
    critical point.  Replica r reads its one chain at every probe, point
    and size, and a point's error bar is the standard error over replicas
    of its per-replica extrapolated F, so at least 2 replicas are needed (a
    UsageError otherwise).  The fit route is chosen once, from the usable
    scan points: with 5 or more, a power-law fit that re-fits the critical
    point on the scan (critical_power_fit); with fewer, fit_exponent at the
    bisection h_c.  The exponent's uncertainty is a leave-one-replica-out
    jackknife on that same route, dropping a replica whose points are too
    few for it; the envelope and ratio diagnostics are anchored at the
    conservative bisection h_c.  For pinning the homogeneous model on the
    same kernel is solved for contrast; a copolymer has no such contrast,
    and its scan leaves out fields below 0.  scan_gaps are distances below
    h_c; a list that is empty, holds a gap <= 0 or repeats one is a
    UsageError, raised before the bisection.
    """
    if beta <= 0:
        raise ValueError("the envelope check needs beta > 0")
    if replicas < 2:
        raise UsageError("the envelope check needs at least 2 replicas: its error "
                         "bars are their spread")
    if kernel.alpha is None:
        raise ValueError("kernel must declare a tail exponent")
    if not (scan_gaps and all(g > 0 for g in scan_gaps)
            and len(set(scan_gaps)) == len(scan_gaps)):
        raise UsageError("the scan gaps must be positive and distinct")
    fit0 = locate_hc(kind, beta, kernel, law, n_list, replicas, seed, tol)
    hc, hc_err = fit0.hc, fit0.hc_err
    n_list = sorted(n_list)

    gaps = sorted(scan_gaps, reverse=True)
    h_values = [hc - g for g in gaps] + [hc + gaps[-1], hc + gaps[len(gaps) // 2]]
    # copolymer couplings exist only at h >= 0
    if kind == "copolymer":
        h_values = [h for h in h_values if h >= 0]
    # every scan point extrapolated to N = inf, all from one build
    scan = _extrapolate_at(kind, beta, h_values, kernel, law, n_list, replicas, seed)
    points = tuple((h, f_inf, sig) for h, (f_inf, sig, _) in zip(h_values, scan))

    loc = [p for p in points if p[0] < hc]
    usable = select_fit_points(loc, hc, hc_err)
    h_top = max((p[0] for p in usable), default=hc)

    def fit(pts, grid_size: int):
        """(critical point, exponent) of pts on the headline's route, or None
        when pts are too few for it."""
        if len(usable) >= 5:  # the critical point refitted on the scan
            if len(pts) < 5:
                return None
            return critical_power_fit(pts, h_top + 0.02 * (hc - h_top), h_top + 0.3,
                                      grid_size)[:2]
        if len(select_fit_points(pts, hc, hc_err)) < 4:  # too few to refit it
            return None
        return hc, fit_exponent(pts, hc, hc_err).exponent

    if (headline := fit(usable, 400)) is None:
        raise ValueError("fewer than 4 usable points in the fit window")
    hc_fit, exponent = headline

    # jackknife over replicas: each used point's leave-one-out mean of the
    # per-replica F_inf, re-fitted on the same route
    used_h = [p[0] for p in usable]
    used = [(h, per, sig) for h, (_, sig, per) in zip(h_values, scan) if h in used_h]
    jack = []
    for r in range(replicas):
        loo = [(h, float(np.delete(per, r).mean()), sig) for h, per, sig in used]
        refit = fit([p for p in loo if p[1] > 0], 200)
        if refit is not None:
            jack.append(refit[1])
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
        pure_ratio_target=pure_target, constants_route=consts.route)
