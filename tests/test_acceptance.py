"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Every tolerance is fixed here, not calibrated at run
time; seeds are fixed so the statistical criteria are deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import zeta

import depin as dp
from depin.cli import run as cli_run
from conftest import random_instance


GAUSS = dp.disorder_law("gaussian")


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{verdict}] {desc} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed <= budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_pure_exactness():
    t0 = time.time()
    ok = True
    for p in (0.3, 0.5, 0.8):
        kern = dp.geometric_kernel(p)
        for h in np.linspace(-3.0, -0.01, 12):
            sol = dp.solve_free_energy_pure(kern, float(h))
            closed = math.log(1.0 - p + p * math.exp(h)) - h
            ok &= abs(sol.b - closed) <= 1e-10
    _report(1, "pure solver matches geometric closed form to 1e-10",
            ok, time.time() - t0, 1.0)


def test_criterion_02_critical_point_formula():
    t0 = time.time()
    n_list = [8192, 16384, 32768, 65536]
    geo = dp.geometric_kernel(0.5, n_max=64)
    fit_full = dp.locate_hc(dp.ModelSpec("pinning", 0.0, geo), GAUSS, n_list, 1, 11, 2.5e-4)
    wet = dp.power_kernel(3.0, 1, 4096, defect_mass=0.5)
    fit_wet = dp.locate_hc(dp.ModelSpec("pinning", 0.0, wet), GAUSS, n_list, 1, 11, 2.5e-4)
    ok = abs(fit_full.hc - 0.0) <= 1e-3
    ok &= abs(fit_wet.hc - (-math.log(2.0))) <= 1e-3
    _report(2, "h_c(0) = log(1 - K(inf)) located to 1e-3 for full and defective laws",
            ok, time.time() - t0, 60.0)


def test_criterion_03_first_order_slope():
    t0 = time.time()
    kern = dp.power_kernel(3.0, 1, 300_000)
    cls = dp.pure_asymptotics(kern)
    ok = cls.order == "first"
    # difference quotients anchored at h_c, where b vanishes identically
    for g in np.geomspace(1e-4, 1e-2, 9):
        fd = dp.solve_free_energy_pure(kern, cls.hc - float(g)).b / g
        ok &= abs(fd / cls.slope - 1.0) <= 0.01
    _report(3, "alpha=3 slope matches exp(h_c)/Sigma within 1% on [1e-4, 1e-2]",
            ok, time.time() - t0, 10.0)


def test_criterion_04_pure_exponents():
    t0 = time.time()
    srw = dp.srw_kernel(1_000_000)
    hc0 = dp.hc_pure(srw)
    pts = [(hc0 - g, dp.solve_free_energy_pure(srw, hc0 - float(g)).b, 0.0)
           for g in np.geomspace(3e-3, 3e-2, 8)]
    fit_srw = dp.fit_exponent(pts, hc0)
    ok = abs(fit_srw.exponent - 2.0) <= 0.05

    # alpha = 1.25 with the ideal tail folded into the horizon atom, so the
    # heavy-tail regime survives truncation inside the fit window
    n_atoms = 4_000_000
    n = np.arange(1, n_atoms + 1, dtype=float)
    dens = (1.0 / zeta(1.25)) * n**-1.25
    dens[-1] += 1.0 - dens.sum()
    quart = dp.ReturnKernel(dens, 0.0, 1, 1.25, n_atoms, family="file")
    pts = [(-g, dp.solve_free_energy_pure(quart, -float(g)).b, 0.0)
           for g in np.geomspace(0.04, 0.08, 6)]
    fit_quart = dp.fit_exponent(pts, 0.0)
    ok &= abs(fit_quart.exponent - 4.0) <= 0.3
    _report(4, f"pure exponents: srw {fit_srw.exponent:.3f} (2.00+-0.05), "
            f"alpha=1.25 {fit_quart.exponent:.2f} (4.0+-0.3)",
            ok, time.time() - t0, 60.0)


def test_criterion_05_oracle_equivalence():
    t0 = time.time()
    geo = dp.geometric_kernel(0.5, n_max=48)
    srw = dp.srw_kernel(16)
    rel = 1e-12
    ok = True

    for i in range(50):
        om, beta, h = random_instance(3000 + i, 16)
        got = dp.log_partition_pinning(dp.ModelSpec("pinning", beta, geo),
                                       om, 16, h)[-1]
        want = math.log(dp.brute_force_pinning(geo, om, beta, h, 16).value)
        ok &= abs(got - want) <= rel * max(1.0, abs(want))

    for i in range(50):
        om, beta, _ = random_instance(4000 + i, 16)
        row = dp.log_partition_constrained(dp.ModelSpec("pinning", beta, geo),
                                           om, 16)
        want = dp.brute_force_constrained(geo, om, beta, 16)
        for j, val in want.items():
            lw = math.log(val)
            ok &= abs(float(row[j]) - lw) <= rel * max(1.0, abs(lw))

    for i in range(50):
        om, beta, h = random_instance(5000 + i, 14)
        got = dp.log_partition_copolymer(dp.ModelSpec("copolymer", beta, srw),
                                         om, 14, abs(h))[-1]
        want = math.log(dp.brute_force_copolymer(srw, om, beta, abs(h), 14).value)
        ok &= abs(got - want) <= rel * max(1.0, abs(want))

    _report(5, "engine matches brute force to 1e-12 relative on 150 random draws",
            ok, time.time() - t0, 120.0)


def test_criterion_06_sandwich_and_lower_bound():
    t0 = time.time()
    kern = dp.geometric_kernel(0.5, n_max=256)
    ok = True
    for count, n in ((500, 64), (500, 256)):
        kmin = float(kern.density[:n].min())
        for i in range(count):
            om, beta, h = random_instance(10_000 + n + i, n)
            model = dp.ModelSpec("pinning", beta, kern)
            logz = dp.log_partition_pinning(model, om, n, h)[-1]
            logzf = dp.log_partition_free_endpoint(model, om, n, h)
            ok &= logzf >= logz - 1e-12
            ok &= logzf <= logz + abs(beta * om.values[n - 1] - h) - math.log(kmin) + 1e-12
            ok &= logz >= beta * om.values[n - 1] - h + math.log(kern.density[n - 1]) - 1e-12
    _report(6, "free-endpoint sandwich and single-excursion bound on 1000 instances",
            ok, time.time() - t0, 60.0)


def test_criterion_07_legendre_bracketing():
    t0 = time.time()
    kern = dp.geometric_kernel(0.5, n_max=64)
    ok = True
    for n in (64, 128, 256, 512):
        for i in range(4):
            om, beta, h = random_instance(20_000 + n + i, n)
            model = dp.ModelSpec("pinning", beta, kern)
            row = dp.log_partition_constrained(model, om, n)
            counts = np.arange(len(row), dtype=float)
            sup = float(np.max(row - h * counts))
            logz = dp.log_partition_pinning(model, om, n, h)[-1]
            ok &= sup <= logz + 1e-11
            ok &= logz <= sup + math.log(n / kern.period + 1) + 1e-11
    _report(7, "count-resolved supremum brackets log Z within log(N/s + 1)",
            ok, time.time() - t0, 60.0)


def test_criterion_08_phi_properties():
    t0 = time.time()
    kern = dp.geometric_kernel(0.5, n_max=64)
    model = dp.ModelSpec("pinning", 1.0, kern)
    n, replicas, seed = 2048, 64, 17
    curve = dp.estimate_phi(model, GAUSS, np.linspace(0.1, 0.9, 9), None,
                            n, replicas, seed)
    fe0 = dp.estimate_free_energy(model, GAUSS, [0.0], [n], replicas, seed)
    ok = bool(np.all(curve.feasible))
    ok &= bool(np.all(curve.values <= fe0.mean[0, 0] + 3.0 * fe0.stderr[0, 0]))
    for i in range(1, len(curve.m_grid) - 1):
        gap = curve.values[i] - 0.5 * (curve.values[i - 1] + curve.values[i + 1])
        sig = math.sqrt(curve.stderr[i] ** 2 + 0.25 * curve.stderr[i - 1] ** 2
                        + 0.25 * curve.stderr[i + 1] ** 2)
        ok &= gap >= -3.0 * sig
    _report(8, "phi below F(beta,0) + 3se and midpoint-concave within error bars",
            ok, time.time() - t0, 600.0)


def test_criterion_09_smoothing_desk_scale():
    t0 = time.time()
    kern = dp.power_kernel(3.0, 1, 2048)
    report = dp.smoothing_check(dp.ModelSpec("pinning", 1.0, kern), GAUSS,
                                n_list=[2048, 4096, 8192], replicas=128, seed=123, tol=2e-3)
    # (a) homogeneous contrast on the same kernel is first order, criterion-3 slope
    ok_a = report.pure_order == "first"
    ok_a &= abs(report.pure_slope / report.pure_ratio_target - 1.0) <= 0.01
    # (b) disordered exponent at least 1.5, one-sided at 2 sigma
    ok_b = report.exponent >= 1.5 - 2.0 * report.exponent_err
    # (c) every estimate below the envelope alpha c(beta) gap^2 + 3 stderr
    ok_c = report.envelope_ok
    # (d) F/(h_c - h) shrinks toward the critical point within error
    ok_d = report.ratio_decreasing
    ok = ok_a and ok_b and ok_c and ok_d
    _report(9, f"smoothing: exponent {report.exponent:.3f}+-{report.exponent_err:.3f} "
            f"(a={ok_a} b={ok_b} c={ok_c} d={ok_d})",
            ok, time.time() - t0, 1800.0)


def test_criterion_10_entropy_formulas():
    t0 = time.time()

    def shift_quad(x):
        def integrand(y):
            p_shift = math.exp(-0.5 * (y + x) ** 2) / math.sqrt(2 * math.pi)
            return p_shift * 0.5 * (y * y - (y + x) ** 2)
        return integrate.quad(integrand, -40, 40, limit=200)[0]

    ok = True
    for x in (0.1, 0.5, 1.0):
        for ell in (1, 100):
            got = dp.shift_entropy(GAUSS, x, ell)
            ok &= abs(got - ell * shift_quad(x)) <= 1e-8 * ell
            ok &= abs(got - ell * 0.5 * x * x) <= 1e-12 * ell
    rad = dp.disorder_law("rademacher")
    target = math.tanh(1.0) - math.log(math.cosh(1.0))
    ok &= abs(dp.tilt_entropy(rad, 1.0, 1) - target) <= 1e-12
    _report(10, "shift entropy = l x^2/2 vs quadrature; rademacher tilt closed form",
            ok, time.time() - t0, 5.0)


def test_criterion_11_determinism_across_workers(tmp_path, monkeypatch):
    t0 = time.time()
    args = ["smooth", "--kernel", "power:alpha=3,s=1,n_max=256",
            "--law", "gaussian", "--beta", "1", "--N-list", "256,512",
            "--replicas", "8", "--seed", "11", "--tol", "0.02",
            "--scan-gaps", "0.4,0.3,0.22,0.16,0.12,0.09"]
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    monkeypatch.setenv("DEPIN_THREADS", "1")
    code1 = cli_run(args + ["--out", str(out1)])
    monkeypatch.setenv("DEPIN_THREADS", "2")
    code2 = cli_run(args + ["--out", str(out2)])
    ok = code1 == 0 and code2 == 0
    ok &= (out1 / "smooth_points.csv").read_bytes() == (out2 / "smooth_points.csv").read_bytes()
    ok &= (out1 / "smooth.json").read_bytes() == (out2 / "smooth.json").read_bytes()
    _report(11, "smooth outputs byte-identical across DEPIN_THREADS settings",
            ok, time.time() - t0, 1800.0)
