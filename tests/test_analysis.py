import math

import numpy as np
import pytest

import depin as dp
from depin import analysis


GEO = dp.geometric_kernel(0.5, n_max=64)
# the pinning models on GEO without disorder and at beta = 1
PIN0, PIN1 = (dp.ModelSpec("pinning", beta, GEO) for beta in (0.0, 1.0))
POW = dp.power_kernel(3.0, 1, 64, defect_mass=0.5)


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


@pytest.mark.parametrize("kind", ["pinning", "copolymer"])
@pytest.mark.parametrize("n_list", [[64, 128, 256], [128]])
def test_per_replica_extrapolation_is_linear(monkeypatch, gaussian_law, kind, n_list):
    # one record per field, in order: F_inf is the extrapolation of the
    # size means, the mean of the per-replica extrapolations to rounding, and
    # with one replica its bits; sigma is the standard error of the
    # per-replica values, and values are the build's replica values
    monkeypatch.setenv("DEPIN_THREADS", "1")
    kern = dp.srw_kernel(64) if kind == "copolymer" else GEO
    fields = [0.1, 0.6] if kind == "copolymer" else [-0.4, 0.2]
    for replicas in (1, 6):
        scan = analysis._probes(dp.ModelSpec(kind, 1.0, kern), fields, gaussian_law, n_list,
                                replicas, 7)
        assert [p.h for p in scan] == fields
        together = dp.estimate_free_energy(dp.ModelSpec(kind, 1.0, kern),
                                           gaussian_law, fields, n_list, replicas, 7)
        for i, (h, p) in enumerate(zip(fields, scan)):
            f_inf, sigma, per = p.f_inf, p.sigma, p.per_replica
            # a field's values are those of the one build, bit for bit
            assert p.values.tobytes() == together.replica_values[:, i].tobytes()
            est = dp.estimate_free_energy(dp.ModelSpec(kind, 1.0, kern), gaussian_law, [h],
                                          n_list, replicas, 7)
            stderrs = est.stderr[0]
            want, _ = dp.extrapolate_free_energy(n_list, est.mean[0], stderrs)
            assert float(f_inf).hex() == float(want).hex()
            assert float(per.mean()) == pytest.approx(want, rel=1e-12, abs=1e-15)
            for r in range(replicas):
                alone, _ = dp.extrapolate_free_energy(
                    n_list, est.replica_values[r, 0], stderrs)
                assert float(per[r]).hex() == float(alone).hex()
            if replicas == 1:
                assert float(per[0]).hex() == float(want).hex() and sigma == 0.0
            else:
                assert sigma == per.std(ddof=1) / math.sqrt(replicas) > 0.0


def test_smoothing_hc_inside_the_rigorous_bracket(monkeypatch, gaussian_law):
    # h_c(0) <= h_c(beta) <= h_c(0) + log M(beta) (Jensen below, the annealed
    # bound above); the bisection may sit below h_c(beta) by its tolerance,
    # and the refitted critical point stays under the annealed bound
    monkeypatch.setenv("DEPIN_THREADS", "1")
    kern = dp.power_kernel(3.0, 1, 256)
    report = dp.smoothing_check(dp.ModelSpec("pinning", 1.0, kern), gaussian_law,
                                n_list=[256, 512, 1024], replicas=16, seed=11, tol=1e-2,
                                scan_gaps=(0.4, 0.3, 0.22, 0.16, 0.12, 0.09))
    base, upper = dp.hc_pure(kern), dp.hc_pure(kern) + gaussian_law.log_mgf(1.0)
    assert base - 1e-2 <= report.hc <= upper
    assert report.hc_fit <= upper


def test_smoothing_fixed_hc_route_has_a_jackknife_error(monkeypatch, gaussian_law):
    # criterion 11's run: too few usable points to refit h_c, so the exponent
    # is fitted at the bisection h_c, and so is every leave-one-replica-out
    # refit (the error once read 0.0 on this route)
    monkeypatch.setenv("DEPIN_THREADS", "1")
    report = dp.smoothing_check(dp.ModelSpec("pinning", 1.0, dp.power_kernel(3.0, 1, 256)),
                                gaussian_law, n_list=[256, 512], replicas=8, seed=11,
                                tol=0.02,
                                scan_gaps=(0.4, 0.3, 0.22, 0.16, 0.12, 0.09))
    assert report.hc_fit == report.hc
    assert math.isfinite(report.exponent_err) and report.exponent_err > 0.0


def test_jackknife_reads_only_the_usable_records(monkeypatch, gaussian_law):
    # a localized scan field whose F does not clear 3 sigma is no usable
    # point: the headline fit and every leave-one-replica-out refit leave it
    # out, so the report is that of the scan without it, bit for bit (some
    # of its leave-one-out means are positive, which the refit route would
    # take)
    hc, spread = 0.5, np.array([1.04, 0.97, 1.01, 0.98])
    monkeypatch.setattr(analysis, "locate_hc", lambda *args: dp.CriticalFit(hc, 0.0))

    def planted(model, h_values, *args):
        out = []
        for h in h_values:
            per = (hc - h) ** 2 * spread if hc - h > 0.01 else np.array([1, -1, 3, -2]) * 1e-3
            out.append(analysis._Probe(h, None, float(per.mean()),
                                       float(per.std(ddof=1) / 2.0), per))
        return out

    monkeypatch.setattr(analysis, "_probes", planted)
    gaps = (0.4, 0.3, 0.22, 0.16, 0.12, 0.09)
    model = dp.ModelSpec("pinning", 1.0, dp.power_kernel(3.0, 1, 64))
    alone, joined = (dp.smoothing_check(model, gaussian_law, n_list=[64], replicas=4,
                                        seed=1, scan_gaps=g)
                     for g in (gaps, gaps + (0.005,)))
    assert len(alone.ratios) == len(joined.ratios) == 6  # the refit route
    assert any(h == hc - 0.005 for h, _f, _s in joined.points)
    assert joined.exponent_err > 0.0
    assert ((alone.hc_fit, alone.exponent, alone.exponent_err)
            == (joined.hc_fit, joined.exponent, joined.exponent_err))


def test_smoothing_needs_two_replicas(gaussian_law):
    with pytest.raises(analysis.UsageError, match="at least 2 replicas"):
        dp.smoothing_check(dp.ModelSpec("pinning", 1.0, dp.power_kernel(3.0, 1, 64)),
                           gaussian_law, n_list=[64], replicas=1, seed=3)


def _no_build(*args):
    raise AssertionError("an input no run can use reached a build")


def test_smoothing_rejects_beta0_and_tailless_kernels_before_the_bisection(
        monkeypatch, gaussian_law):
    # no disorder has no envelope to check, and the envelope's constant
    # needs the kernel's tail exponent
    monkeypatch.setattr(analysis, "locate_hc", _no_build)
    for model, message in ((dp.ModelSpec("pinning", 0.0, dp.power_kernel(3.0, 1, 64)),
                            "beta > 0"),
                           (dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5)),
                            "tail exponent")):
        with pytest.raises(ValueError, match=message):
            dp.smoothing_check(model, gaussian_law, n_list=[64], replicas=4, seed=3)


def test_locate_hc_rejects_repeated_sizes_and_copolymer_fields_below_0(
        monkeypatch, gaussian_law):
    # a repeated size would count as an independent one in the extrapolation
    monkeypatch.setattr(analysis, "estimate_free_energy", _no_build)
    for sizes in ([64, 32, 64], [64, 64]):
        with pytest.raises(analysis.UsageError, match="each size may appear once"):
            dp.locate_hc(PIN1, gaussian_law, sizes, 4, 3, 1e-2)
    with pytest.raises(analysis.UsageError, match="h_lo >= 0"):
        dp.locate_hc(dp.ModelSpec("copolymer", 0.5, dp.srw_kernel(64)), gaussian_law,
                     [64, 128], 4, 2, 5e-2, h_window=(-1.0, 1.0))


def test_smoothing_rejects_bad_scan_gaps_before_the_bisection(monkeypatch, gaussian_law):
    # a gap <= 0 puts a "localized" point at or above h_c, a repeated one
    # counts a field twice, and fewer than 4 gaps give fewer than the 4
    # usable points a fit needs; none reaches locate_hc
    monkeypatch.setattr(analysis, "locate_hc", _no_build)
    kern = dp.power_kernel(3.0, 1, 256)
    for gaps, message in (((0.4, 0.3, 0.22, 0.16, 0.12, -0.09), "positive and distinct"),
                          ((0.4, 0.3, 0.22, 0.16, 0.12, 0.0), "positive and distinct"),
                          ((0.4, 0.4, 0.22, 0.16, 0.12, 0.09), "positive and distinct"),
                          ((0.4, math.nan), "positive and distinct"),
                          # once reached the scan, past the whole bisection
                          ((0.4, 0.3, 0.22, math.inf), "positive and distinct"),
                          ((), "positive and distinct"),
                          ((0.3, 0.2, 0.1), "at least 4 scan gaps")):
        with pytest.raises(analysis.UsageError, match=message):
            dp.smoothing_check(dp.ModelSpec("pinning", 1.0, kern), gaussian_law,
                               n_list=[256, 512], replicas=8, seed=11, tol=0.02,
                               scan_gaps=gaps)


def test_locate_hc_beta0_kernels(gaussian_law):
    n_list = [2048, 4096, 8192]
    fit = dp.locate_hc(PIN0, gaussian_law, n_list, 1, 3, 1e-3)
    assert abs(fit.hc - dp.hc_pure(GEO)) <= 5e-3
    wet = dp.power_kernel(3.0, 1, 2048, defect_mass=0.5)
    fit2 = dp.locate_hc(dp.ModelSpec("pinning", 0.0, wet), gaussian_law, n_list, 1, 3, 1e-3)
    assert abs(fit2.hc - dp.hc_pure(wet)) <= 5e-3


def test_locate_hc_srw_beta0(gaussian_law):
    srw = dp.srw_kernel(1024)
    fit = dp.locate_hc(dp.ModelSpec("pinning", 0.0, srw), gaussian_law, [4096, 8192, 16384],
                       1, 3, 5e-3)
    # quadratic transition: the threshold crossing dominates the bracket
    assert abs(fit.hc) <= 2e-2


def test_locate_hc_copolymer_positive(gaussian_law):
    srw = dp.srw_kernel(256)
    fit = dp.locate_hc(dp.ModelSpec("copolymer", 1.0, srw), gaussian_law, [256, 512, 1024],
                       16, 5, 5e-3)
    assert 0.0 < fit.hc < 2.0
    assert math.isfinite(fit.hc_err)


def test_locate_hc_bracket_failure(gaussian_law):
    with pytest.raises(ValueError):
        # a window too deep in the delocalized phase exhausts the expansion
        dp.locate_hc(PIN0, gaussian_law, [512], 1, 3, 1e-3,
                     h_window=(5.0, 5.5))


def test_locate_hc_rejects_no_replicas_and_bad_windows(gaussian_law):
    for replicas in (0, -1):  # once an endless speculation-depth loop
        with pytest.raises(ValueError, match="need at least one replica"):
            dp.locate_hc(PIN1, gaussian_law, [64], replicas, 3, 1e-2)
    for window in ((0.3, -0.5), (0.3, 0.3), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="h_lo < h_hi"):
            dp.locate_hc(PIN0, gaussian_law, [64], 1, 3, 1e-2,
                         h_window=window)
    for tol in (0.0, -1e-2, math.nan):  # NaN once searched to hc = 0.25 +- 0.5
        with pytest.raises(ValueError, match="tol must be positive"):
            dp.locate_hc(PIN1, gaussian_law, [64], 1, 3, tol)
    # a bad beta is named as such, not as a bad search window
    for beta in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="beta"):
            dp.locate_hc(dp.ModelSpec("pinning", beta, GEO), gaussian_law, [64], 1, 3, 1e-2)


def test_locate_hc_copolymer_lower_end_stops_at_zero(monkeypatch, gaussian_law):
    # h = 0 is delocalized here: from 0.3 the lower end steps to 0, not to
    # 0.3 - 0.7, and the search fails without building a field below 0 (the
    # first build holds the ends and the first midpoint, at depth 1)
    monkeypatch.setenv("DEPIN_THREADS", "1")
    fields = []

    def recorded(model, law, h_values, *args):
        fields.extend(h_values)
        return dp.estimate_free_energy(model, law, h_values, *args)

    monkeypatch.setattr(analysis, "estimate_free_energy", recorded)
    with pytest.raises(ValueError, match="no localized endpoint found"):
        dp.locate_hc(dp.ModelSpec("copolymer", 0.5, dp.srw_kernel(128)), gaussian_law,
                     [64, 128], 8, 2, 1e-2, h_window=(0.3, 1.0))
    assert fields == [0.3, 1.0, 0.65, 0.0]


def _fake_phase(monkeypatch, edge: float) -> list:
    """Make locate_hc's probes localized exactly below edge, with no build;
    returns the list that records every field it estimates."""
    fields = []

    def phase(model, h_values, *args):
        fields.extend(h_values)
        return [analysis._Probe(h, None, 1.0 if h < edge else 0.0, 0.0, None)
                for h in h_values]

    monkeypatch.setattr(analysis, "_probes", phase)
    return fields


@pytest.mark.parametrize("window, edge", [((1.0, 1e308), 0.99e308),
                                          ((-1e308, -1e307), -0.99e308)])
def test_locate_hc_midpoints_near_the_largest_float(monkeypatch, gaussian_law,
                                                    window, edge):
    # lo + hi overflows here, lo/2 + hi/2 does not
    fields = _fake_phase(monkeypatch, edge)
    fit = dp.locate_hc(PIN1, gaussian_law, [64], 2, 3, 1e-2,
                       h_window=window)
    assert all(math.isfinite(h) for h in fields)
    assert fit.hc == pytest.approx(edge, rel=1e-15) and math.isfinite(fit.hc_err)


def test_locate_hc_rejects_infinite_widths_and_ends(monkeypatch, gaussian_law):
    fields = _fake_phase(monkeypatch, math.inf)  # localized everywhere
    with pytest.raises(analysis.UsageError, match="finite width"):
        dp.locate_hc(PIN1, gaussian_law, [64], 2, 3, 1e-2,
                     h_window=(-1e308, 1e308))
    assert fields == []
    # the upper end would move from 1e308 to inf
    with pytest.raises(ValueError, match="no delocalized endpoint found"):
        dp.locate_hc(PIN1, gaussian_law, [64], 2, 3, 1e-2,
                     h_window=(1.0, 1e308))
    assert all(math.isfinite(h) for h in fields)
    fields = _fake_phase(monkeypatch, -math.inf)  # delocalized everywhere
    # the lower end would move from -1e308 to -inf
    with pytest.raises(ValueError, match="no localized endpoint found"):
        dp.locate_hc(PIN1, gaussian_law, [64], 2, 3, 1e-2,
                     h_window=(-1e308, -1.0))
    assert all(math.isfinite(h) for h in fields)


def test_select_fit_points():
    pts = [(0.1, 0.5, 0.01), (0.2, 0.001, 0.01), (0.29, 0.5, 0.01), (0.4, 0.5, 0.01)]
    out = dp.select_fit_points(pts, 0.3, hc_err=0.0)
    assert [p[0] for p in out] == [0.1, 0.29]  # insignificant and h > hc dropped
    out2 = dp.select_fit_points(pts, 0.3, hc_err=0.01)
    assert [p[0] for p in out2] == [0.1]


def test_locate_hc_sizes_and_float_resolution(gaussian_law):
    for bad in ([], [0, 512], [-64]):
        with pytest.raises(ValueError):
            dp.locate_hc(PIN0, gaussian_law, bad, 1, 3, 1e-3)
    # a tolerance below float spacing ends at two adjacent floats
    fit = dp.locate_hc(PIN0, gaussian_law, [64, 128], 1, 3, 1e-300)
    assert 0.0 < fit.hc_err <= 0.5 * math.ulp(abs(fit.hc))


def _intercept(n_list, y, sigma):
    """F_inf of one weighted line F_N = F_inf + a log(N)/N through 1-D
    data, with its own sums (the reference for the extrapolation)."""
    if len(n_list) == 1:
        return float(y[0])
    n = np.array(n_list, dtype=float)
    x = np.log(n) / n
    if np.any(sigma > 0):
        w = 1.0 / np.maximum(sigma, sigma[sigma > 0].min()) ** 2
    else:
        w = np.ones_like(x)
    sw, sx, sxx = w.sum(), (w * x).sum(), (w * x * x).sum()
    sy, sxy = (w * y).sum(), (w * x * y).sum()
    return float((sxx * sy - sx * sxy) / (sw * sxx - sx * sx))


def _sequential_locate_hc(model, law, n_list, replicas, seed, tol, h_window=None):
    """locate_hc as a bisection of one probe per build (the reference):
    returns (hc, hc_err, probes)."""
    kind, beta, kernel = model.kind, model.beta, model.kernel
    n_list = sorted(n_list)
    floor = 4.0 / n_list[-1]
    probes = []

    def localized(h):
        # every size of a replica reads its one chain; the threshold is 3x
        # the standard error of the per-replica extrapolations
        est = dp.estimate_free_energy(model, law, [h], n_list, replicas, seed)
        sigma = est.stderr[0]
        f_inf = _intercept(n_list, est.mean[0], sigma)
        per = np.array([_intercept(n_list, est.replica_values[r, 0], sigma)
                        for r in range(replicas)])
        spread = float(per.std(ddof=1)) / math.sqrt(replicas) if replicas > 1 else 0.0
        thr = max(3.0 * spread, floor)
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


def _record_builds(monkeypatch) -> list:
    """The list that records the fields of each build locate_hc makes."""
    builds = []

    def counted(model, law, h_values, *args):
        builds.append(list(h_values))
        return dp.estimate_free_energy(model, law, h_values, *args)

    monkeypatch.setattr(analysis, "estimate_free_energy", counted)
    return builds


_SPECULATION_CASES = [
    # kind, beta, kernel, sizes, replicas, tol, window, speculation depth,
    # (builds, fields) when every later build was the bisection tree below
    # its bracket, measured on that rule
    ("pinning", 0.0, GEO, [256, 512], 1, 1e-3, None, 4, (2, 32)),
    ("pinning", 1.0, dp.geometric_kernel(0.5, n_max=8), [64, 128], 4, 1e-3, None, 5, (2, 48)),
    ("pinning", 1.0, dp.geometric_kernel(0.5, n_max=256), [256, 512], 4, 1e-2, None, 1,
     (6, 8)),
    ("copolymer", 1.0, dp.srw_kernel(16), [128, 256], 3, 1e-2, None, 4, (2, 24)),
    ("pinning", 0.0, GEO, [64, 128], 1, 1e-300, None, 4, (14, 212)),
    ("pinning", 0.0, GEO, [256], 1, 1e-3, (1.0, 1.5), 4, (6, 50)),
    ("pinning", 0.0, GEO, [256], 1, 1e-3, (-3.0, -2.5), 4, (9, 55)),
    # the first guided build's guess misses at its first decision
    ("pinning", 1.0, POW, [64, 128], 2, 1e-3, None, 3, (3, 23)),
    ("pinning", 0.5, GEO, [64, 128], 1, 1e-3, None, 4, (3, 33)),
    ("copolymer", 0.5, GEO, [128, 256], 1, 1e-3, None, 4, (3, 33)),
]
_MISSED = _SPECULATION_CASES[7]


@pytest.mark.parametrize("case", _SPECULATION_CASES)
def test_speculation_equals_sequential_bisection(monkeypatch, gaussian_law, case):
    # several bisection levels per build keep the one-probe-at-a-time
    # probes, in order, to the last bit, in no more fields than the
    # bisection tree below each bracket would take
    kind, beta, kern, sizes, replicas, tol, window, depth, (tree_builds, tree_fields) = case
    monkeypatch.setenv("DEPIN_THREADS", "1")
    model = dp.ModelSpec(kind, beta, kern)
    assert analysis._speculation_depth(model, max(sizes), replicas) == depth
    hc, hc_err, probes = _sequential_locate_hc(model, gaussian_law, sizes, replicas, 3,
                                               tol, window)
    builds = _record_builds(monkeypatch)
    fit = dp.locate_hc(model, gaussian_law, sizes, replicas, 3, tol, h_window=window)
    assert (repr(fit.hc), repr(fit.hc_err)) == (repr(hc), repr(hc_err))
    assert [repr(p) for p in fit.points] == [repr(p) for p in probes]
    fields = [h for build in builds for h in build]
    assert len(set(fields)) == len(fields)  # no field is built twice
    assert len(fields) <= tree_fields
    # a later build holds no other branch, so a missed guess costs a build
    assert len(builds) <= tree_builds + (case is _MISSED)
    assert all(len(build) < 2 ** depth for build in builds[1:])
    if depth == 1:
        # the bracket ends share a build with the first midpoint, which an
        # end that widens leaves unread
        widened = probes[2][0] != builds[0][2]
        assert len(builds) == len(probes) - (1 if widened else 2)
        return
    assert len(builds) < len(probes) - 1
    # a later build is the guessed path: the bisection reads it in order,
    # up to the first decision the guess missed
    first_reads = list(dict.fromkeys(h for h, _, _ in probes))
    read = [[h for h in first_reads if h in build] for build in builds[1:]]
    assert all(r == build[:len(r)] for r, build in zip(read, builds[1:]))
    if case is _MISSED:
        # the first guided build is read only to its first field, and the
        # next build guesses again from the narrower bracket
        assert len(read[0]) == 1 < len(builds[1]) and len(builds) > 2


def test_bench_shaped_bisection_takes_two_builds(monkeypatch, gaussian_law):
    # the pure workload's hc shape at smaller N: the ends and four levels,
    # then the remaining six levels along the guessed path, in two builds
    # where the tree below each bracket took three
    builds = _record_builds(monkeypatch)
    fit = dp.locate_hc(PIN0, gaussian_law, [256, 512, 1024], 1, 3, 2.5e-4)
    assert fit.hc_err <= 2.5e-4 and len(fit.points) == 12
    assert [len(build) for build in builds] == [17, 6]


def _tree(lo, hi, levels):
    """The bisection midpoints of the next `levels` levels below (lo, hi),
    in the order a depth-first walk meets them (mid, left, right)."""
    if levels == 0:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_tree(lo, mid, levels - 1), *_tree(mid, hi, levels - 1)]


@pytest.mark.parametrize("cells, depth", [(1, 1), (3 * 64, 2), (None, 4)])
def test_first_build_is_the_ends_and_the_first_levels(monkeypatch, gaussian_law,
                                                      cells, depth):
    # lo, hi, then the bisection tree below them, `depth` levels deep
    if cells is not None:
        monkeypatch.setattr(analysis, "SPECULATION_CELLS", cells)
    assert analysis._speculation_depth(PIN0, 256, 1) == depth
    builds = _record_builds(monkeypatch)
    dp.locate_hc(PIN0, gaussian_law, [256], 1, 3, 1e-3,
                 h_window=(-0.5, 0.5))
    assert builds[0] == [-0.5, 0.5, *_tree(-0.5, 0.5, depth)]
    if depth == 2:
        assert builds[0] == [-0.5, 0.5, 0.0, -0.25, 0.25]


def test_speculation_keeps_the_bracket_failure(gaussian_law):
    # a window too deep in the delocalized phase fails as the sequential
    # search does, after the same probes
    for search in (_sequential_locate_hc, dp.locate_hc):
        with pytest.raises(ValueError, match="no localized endpoint found"):
            search(PIN0, gaussian_law, [512], 1, 3, 1e-3, h_window=(5.0, 5.5))
