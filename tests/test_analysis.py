import math

import numpy as np
import pytest

import depin as dp


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
