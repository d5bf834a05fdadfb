import math

import numpy as np
import pytest

import depin as dp
from depin import analysis


GEO = dp.geometric_kernel(0.5, n_max=64)


def test_extrapolation_recovers_planted():
    ns = [512, 1024, 2048, 4096]
    truth, amp = 0.137, -2.4
    ys = [truth + amp * math.log(n) / n for n in ns]
    f_inf, sigma = dp.extrapolate_free_energy(ns, ys, [0.0] * 4)
    assert f_inf == pytest.approx(truth, abs=1e-12)
    assert sigma == 0.0  # no error bars, no uncertainty
    # equal error bars s: sigma is s times the intercept entry of (X^T X)^-1
    s = 1e-3
    f_inf, sigma = dp.extrapolate_free_energy(ns, ys, [s] * 4)
    x = np.log(ns) / np.array(ns, dtype=float)
    design = np.column_stack([np.ones(4), x])
    cov = np.linalg.inv(design.T @ design)
    assert f_inf == pytest.approx(truth, abs=1e-12)
    assert sigma == pytest.approx(s * math.sqrt(cov[0, 0]), rel=1e-9)
    # one size is its own limit
    assert dp.extrapolate_free_energy([512], [0.2], [0.01]) == (0.2, 0.01)


@pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0, 3.0])
def test_fit_exponent_planted_noiseless(kappa):
    hc = 0.3
    gaps = np.geomspace(1e-3, 0.2, 12)
    pts = [(hc - g, 1.7 * g**kappa, 0.0) for g in gaps]
    fit = dp.fit_exponent(pts, hc)
    assert fit.exponent == pytest.approx(kappa, abs=1e-10)
    assert fit.exponent_err == 0.0
    edge = min(gaps)
    assert fit.envelope_constant == pytest.approx(1.7 * edge**kappa / edge**2, rel=1e-9)


def test_fit_exponent_synthetic_cubic():
    hc = 0.0
    pts = [(-g, g**3, 0.0) for g in (0.01, 0.02, 0.04, 0.08, 0.16)]
    fit = dp.fit_exponent(pts, hc)
    assert fit.exponent == pytest.approx(3.0, abs=1e-12)


def test_fit_exponent_noisy_within_2sigma():
    rng = np.random.Generator(np.random.Philox(key=5))
    hc, kappa = 0.1, 2.0
    gaps = np.geomspace(5e-3, 0.3, 14)
    pts = []
    for g in gaps:
        f = 0.9 * g**kappa
        sig = 0.01 * f
        pts.append((hc - g, f * (1.0 + 0.01 * rng.standard_normal()), sig))
    fit = dp.fit_exponent(pts, hc)
    assert abs(fit.exponent - kappa) <= 2.0 * max(fit.exponent_err, 1e-3)


def test_fit_exponent_window_rules():
    hc = 0.0
    pts = [(-g, g**2, 0.5 * g**2) for g in (0.01, 0.02, 0.04, 0.08)]
    # all points fail the 3 sigma significance cut
    with pytest.raises(ValueError):
        dp.fit_exponent(pts, hc)
    good = [(-g, g**2, 1e-9) for g in (0.01, 0.02, 0.04, 0.08)]
    # points closer than 10x the critical-point uncertainty are dropped
    with pytest.raises(ValueError):
        dp.fit_exponent(good, hc, hc_err=0.05)
    fit = dp.fit_exponent(good, hc, hc_err=1e-4)
    assert len(fit.points) == 4


def test_critical_power_fit_recovers_planted():
    hc, kappa = 0.25, 1.8
    gaps = np.geomspace(0.01, 0.3, 10)
    pts = [(hc - g, 2.0 * g**kappa, 1e-4) for g in gaps]
    hc_fit, expo, _chi2 = dp.critical_power_fit(pts, hc - 0.05, hc + 0.05)
    assert hc_fit == pytest.approx(hc, abs=3e-4)
    assert expo == pytest.approx(kappa, abs=0.01)


def test_locate_hc_beta0_kernels(gaussian_law):
    n_list = [2048, 4096, 8192]
    fit = dp.locate_hc("pinning", 0.0, GEO, gaussian_law, n_list, 1, 3, 1e-3)
    assert abs(fit.hc - dp.hc_pure(GEO)) <= 5e-3
    wet = dp.power_kernel(3.0, 1, 2048, defect_mass=0.5)
    fit2 = dp.locate_hc("pinning", 0.0, wet, gaussian_law, n_list, 1, 3, 1e-3)
    assert abs(fit2.hc - dp.hc_pure(wet)) <= 5e-3


def test_locate_hc_srw_beta0(gaussian_law):
    srw = dp.srw_kernel(1024)
    fit = dp.locate_hc("pinning", 0.0, srw, gaussian_law, [4096, 8192, 16384],
                       1, 3, 5e-3)
    # quadratic transition: the threshold crossing dominates the bracket
    assert abs(fit.hc) <= 2e-2


def test_locate_hc_copolymer_positive(gaussian_law):
    srw = dp.srw_kernel(256)
    fit = dp.locate_hc("copolymer", 1.0, srw, gaussian_law, [256, 512, 1024],
                       16, 5, 5e-3)
    assert 0.0 < fit.hc < 2.0
    assert math.isfinite(fit.hc_err)


def test_locate_hc_bracket_failure(gaussian_law):
    with pytest.raises(ValueError):
        # a window too deep in the delocalized phase exhausts the expansion
        dp.locate_hc("pinning", 0.0, GEO, gaussian_law, [512], 1, 3, 1e-3,
                     h_window=(5.0, 5.5))


def test_locate_hc_rejects_no_replicas_and_bad_windows(gaussian_law):
    for replicas in (0, -1):  # once an endless speculation-depth loop
        with pytest.raises(ValueError, match="need at least one replica"):
            dp.locate_hc("pinning", 1.0, GEO, gaussian_law, [64], replicas, 3, 1e-2)
    for window in ((0.3, -0.5), (0.3, 0.3), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="h_lo < h_hi"):
            dp.locate_hc("pinning", 0.0, GEO, gaussian_law, [64], 1, 3, 1e-2,
                         h_window=window)


def test_locate_hc_copolymer_lower_end_stops_at_zero(monkeypatch, gaussian_law):
    # h = 0 is delocalized here: from 0.3 the lower end steps to 0, not to
    # 0.3 - 0.7, and the search fails without building a field below 0
    monkeypatch.setenv("DEPIN_THREADS", "1")
    fields = []

    def recorded(models, *args):
        fields.extend(m.h for m in models)
        return dp.estimate_free_energy(models, *args)

    monkeypatch.setattr(analysis, "estimate_free_energy", recorded)
    with pytest.raises(ValueError, match="no localized endpoint found"):
        dp.locate_hc("copolymer", 1.0, dp.srw_kernel(128), gaussian_law, [64, 128], 8,
                     2, 1e-2, h_window=(0.3, 1.0))
    assert fields == [0.3, 1.0, 0.0]


def test_select_fit_points():
    pts = [(0.1, 0.5, 0.01), (0.2, 0.001, 0.01), (0.29, 0.5, 0.01), (0.4, 0.5, 0.01)]
    out = dp.select_fit_points(pts, 0.3, hc_err=0.0)
    assert [p[0] for p in out] == [0.1, 0.29]  # insignificant and h > hc dropped
    out2 = dp.select_fit_points(pts, 0.3, hc_err=0.01)
    assert [p[0] for p in out2] == [0.1]


def test_locate_hc_sizes_and_float_resolution(gaussian_law):
    for bad in ([], [0, 512], [-64]):
        with pytest.raises(ValueError):
            dp.locate_hc("pinning", 0.0, GEO, gaussian_law, bad, 1, 3, 1e-3)
    # a tolerance below float spacing ends at two adjacent floats
    fit = dp.locate_hc("pinning", 0.0, GEO, gaussian_law, [64, 128], 1, 3, 1e-300)
    assert 0.0 < fit.hc_err <= 0.5 * math.ulp(abs(fit.hc))


def _sequential_locate_hc(kind, beta, kernel, law, n_list, replicas, seed, tol,
                          h_window=None):
    """locate_hc as a bisection of one probe per build (the reference):
    returns (hc, hc_err, probes)."""
    n_list = sorted(n_list)
    floor = 4.0 / n_list[-1]
    probes = []
    seeds = [dp.spawn_seed(seed, i) for i in range(len(n_list))]

    def localized(h):
        ests = dp.estimate_free_energy(dp.ModelSpec(kind, beta, h, kernel), law, n_list,
                                       replicas, seeds)
        f_inf, _ = dp.extrapolate_free_energy(n_list, [e.mean for e in ests],
                                              [e.stderr for e in ests])
        thr = max(3.0 * ests[-1].stderr, floor)
        probes.append((h, f_inf, thr))
        return f_inf > thr

    if h_window is None:
        if kind == "pinning":
            base = dp.hc_pure(kernel)
            lo, hi = base - 0.25, base + law.log_mgf(beta) + 0.25
        else:
            lo, hi = 0.0, 0.5 + beta * beta
    else:
        lo, hi = h_window
    width = hi - lo
    for _ in range(8):
        if localized(lo):
            break
        lo -= width
    else:
        raise ValueError("no localized endpoint found in the search range")
    for _ in range(8):
        if not localized(hi):
            break
        hi += width
    else:
        raise ValueError("no delocalized endpoint found in the search range")
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if localized(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), 0.5 * (hi - lo), probes


_SPECULATION_CASES = [
    # kind, beta, kernel, sizes, replicas, tol, window, speculation depth
    ("pinning", 0.0, GEO, [256, 512], 1, 1e-3, None, 4),
    ("pinning", 1.0, dp.geometric_kernel(0.5, n_max=8), [64, 128], 4, 1e-3, None, 5),
    ("pinning", 1.0, dp.geometric_kernel(0.5, n_max=256), [256, 512], 4, 1e-2, None, 1),
    ("copolymer", 1.0, dp.srw_kernel(16), [32, 64], 3, 1e-2, None, 4),
    ("pinning", 0.0, GEO, [64, 128], 1, 1e-300, None, 4),
    ("pinning", 0.0, GEO, [256], 1, 1e-3, (1.0, 1.5), 4),
    ("pinning", 0.0, GEO, [256], 1, 1e-3, (-3.0, -2.5), 4),
]


@pytest.mark.parametrize("case", _SPECULATION_CASES)
def test_speculation_equals_sequential_bisection(monkeypatch, gaussian_law, case):
    # several bisection levels per build keep the one-probe-at-a-time
    # probes, in order, to the last bit, in fewer builds
    kind, beta, kern, sizes, replicas, tol, window, depth = case
    monkeypatch.setenv("DEPIN_THREADS", "1")
    assert analysis._speculation_depth(beta, kern, max(sizes), replicas) == depth
    hc, hc_err, probes = _sequential_locate_hc(kind, beta, kern, gaussian_law, sizes,
                                               replicas, 3, tol, window)
    builds = []

    def counted(models, *args):
        builds.append(len(models))
        return dp.estimate_free_energy(models, *args)

    monkeypatch.setattr(analysis, "estimate_free_energy", counted)
    fit = dp.locate_hc(kind, beta, kern, gaussian_law, sizes, replicas, 3, tol,
                       h_window=window)
    assert (repr(fit.hc), repr(fit.hc_err)) == (repr(hc), repr(hc_err))
    assert [repr(p) for p in fit.points] == [repr(p) for p in probes]
    if depth == 1:
        assert len(builds) == len(probes) - 1  # the bracket ends share a build
    else:
        assert len(builds) < len(probes) - 1


def test_speculation_keeps_the_bracket_failure(gaussian_law):
    # a window too deep in the delocalized phase fails as the sequential
    # search does, after the same probes
    for search in (_sequential_locate_hc, dp.locate_hc):
        with pytest.raises(ValueError, match="no localized endpoint found"):
            search("pinning", 0.0, GEO, gaussian_law, [512], 1, 3, 1e-3,
                   h_window=(5.0, 5.5))
