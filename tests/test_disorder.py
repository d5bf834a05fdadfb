import math

import numpy as np
import pytest
from scipy import integrate, stats

import depin as dp


ALL_LAWS = ["gaussian", "uniform", "rademacher"]


def test_law_constants():
    g = dp.disorder_law("gaussian")
    assert g.entropy_constant == 0.5 and g.bound is None
    u = dp.disorder_law("uniform")
    assert u.bound == pytest.approx(math.sqrt(3.0)) and u.entropy_constant is None
    r = dp.disorder_law("rademacher")
    assert r.bound == 1.0 and r.entropy_constant is None
    with pytest.raises(ValueError):
        dp.disorder_law("cauchy")


@pytest.mark.parametrize("name", ALL_LAWS)
def test_sampling_deterministic(name):
    law = dp.disorder_law(name)
    a = dp.sample_disorder(law, 4096, 987654321)
    b = dp.sample_disorder(law, 4096, 987654321)
    assert np.array_equal(a.values, b.values)
    c = dp.sample_disorder(law, 4096, 987654322)
    assert not np.array_equal(a.values, c.values)


def test_sampling_prefix_stable():
    # counter-based: a longer draw extends the shorter one bit-for-bit
    law = dp.disorder_law("gaussian")
    short = dp.sample_disorder(law, 100, 5).values
    long = dp.sample_disorder(law, 1000, 5).values
    assert np.array_equal(short, long[:100])


def test_uniform_support_and_rademacher_values():
    u = dp.sample_disorder(dp.disorder_law("uniform"), 20000, 3).values
    assert np.all(np.abs(u) <= math.sqrt(3.0))
    r = dp.sample_disorder(dp.disorder_law("rademacher"), 20000, 3).values
    assert set(np.unique(r)) == {-1.0, 1.0}


def test_rademacher_mean_clt():
    n = 10**5
    vals = dp.sample_disorder(dp.disorder_law("rademacher"), n, 11).values
    assert abs(vals.mean()) <= 4.0 / math.sqrt(n)


@pytest.mark.parametrize("name", ALL_LAWS)
def test_moments_at_1e6(name):
    n = 10**6
    vals = dp.sample_disorder(dp.disorder_law(name), n, 2024).values
    assert abs(vals.mean()) <= 4.0 / math.sqrt(n)
    assert abs(vals.var() - 1.0) <= 8.0 / math.sqrt(n)


def test_normal_quantile_against_scipy():
    p = np.concatenate([np.linspace(1e-12, 1 - 1e-12, 2001),
                        [1e-300, 1e-30, 0.5, 1 - 1e-15]])
    ours = dp.normal_quantile(p)
    ref = stats.norm.ppf(p)
    assert np.max(np.abs(ours - ref)) < 1e-12
    # round trip through the cdf
    assert np.max(np.abs(stats.norm.cdf(ours[:2001]) - p[:2001])) < 1e-13


def test_spawn_seed_properties():
    seeds = {dp.spawn_seed(42, i) for i in range(10000)}
    assert len(seeds) == 10000
    assert all(0 <= s < 2**64 for s in seeds)
    assert dp.spawn_seed(42, 7) == dp.spawn_seed(42, 7)
    assert dp.spawn_seed(42, 7) != dp.spawn_seed(43, 7)


def test_spawn_seed_rejects_masters_outside_64_bits(monkeypatch):
    # -1 once aliased 2^64 - 1: both gave this estimate
    monkeypatch.setenv("DEPIN_THREADS", "1")
    model = dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5))
    law = dp.disorder_law("gaussian")
    est = dp.estimate_free_energy(model, law, [-0.5], [64], 2, 2**64 - 1)
    assert est.mean[0, 0] == 0.41956594921973717
    for master in (-1, 2**64, -(2**64)):
        with pytest.raises(ValueError, match="master seed"):
            dp.spawn_seed(master, 0)
        with pytest.raises(ValueError, match="master seed"):
            dp.estimate_free_energy(model, law, [-0.5], [64], 2, master)
    assert 0 <= dp.spawn_seed(0, 0) < 2**64


def _shift_entropy_quad(x: float) -> float:
    # numerical integration oracle for the gaussian translation entropy;
    # the log ratio is expanded in closed form so the tails cannot underflow
    def integrand(y):
        p_shift = math.exp(-0.5 * (y + x) ** 2) / math.sqrt(2 * math.pi)
        log_ratio = 0.5 * (y * y - (y + x) ** 2)
        return p_shift * log_ratio
    val, _err = integrate.quad(integrand, -40, 40, limit=200)
    return val


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 1.0])
def test_shift_entropy_gaussian_vs_quadrature(x):
    law = dp.disorder_law("gaussian")
    oracle = _shift_entropy_quad(x)
    assert dp.shift_entropy(law, x, 1) == pytest.approx(oracle, abs=1e-8)
    assert dp.shift_entropy(law, x, 100) == pytest.approx(100 * oracle, abs=1e-6)


def test_shift_entropy_edges():
    law = dp.disorder_law("gaussian")
    assert dp.shift_entropy(law, 0.0, 50) == 0.0
    assert dp.shift_entropy(law, 0.3, 100) == pytest.approx(4.5, abs=1e-12)
    # the R x^2 bound is attained with equality for the gaussian
    assert dp.shift_entropy(law, 0.7, 1) == pytest.approx(
        law.entropy_constant * 0.7**2, abs=1e-15)
    for name in ("uniform", "rademacher"):
        with pytest.raises(ValueError):
            dp.shift_entropy(dp.disorder_law(name), 0.1, 1)


def test_tilt_entropy_closed_forms():
    rad = dp.disorder_law("rademacher")
    expected = math.tanh(1.0) - math.log(math.cosh(1.0))
    assert dp.tilt_entropy(rad, 1.0, 1) == pytest.approx(expected, abs=1e-15)
    gau = dp.disorder_law("gaussian")
    assert dp.tilt_entropy(gau, 0.5, 4) == pytest.approx(0.5, abs=1e-15)
    for name in ALL_LAWS:
        assert dp.tilt_entropy(dp.disorder_law(name), 0.0, 9) == 0.0


def _tilt_entropy_uniform_quad(u: float) -> float:
    a = math.sqrt(3.0)
    z, _ = integrate.quad(lambda x: math.exp(u * x) / (2 * a), -a, a)

    def integrand(x):
        dens_ratio = math.exp(u * x) / z
        return (dens_ratio / (2 * a)) * math.log(dens_ratio)
    val, _ = integrate.quad(integrand, -a, a)
    return val


@pytest.mark.parametrize("u", [0.05, 0.4, 1.3])
def test_tilt_entropy_uniform_vs_quadrature(u):
    law = dp.disorder_law("uniform")
    assert dp.tilt_entropy(law, u, 1) == pytest.approx(
        _tilt_entropy_uniform_quad(u), abs=1e-10)
    assert dp.tilt_entropy(law, u, 7) == pytest.approx(
        7 * _tilt_entropy_uniform_quad(u), abs=1e-9)


@pytest.mark.parametrize("name", ALL_LAWS)
def test_tilt_entropy_nonnegative_convex(name):
    law = dp.disorder_law(name)
    us = [-0.8, -0.4, 0.0, 0.4, 0.8]
    vals = [dp.tilt_entropy(law, u, 1) for u in us]
    assert all(v >= 0.0 for v in vals)
    assert all(v > 0.0 for u, v in zip(us, vals) if u != 0.0)
    for i in (1, 2, 3):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12


@pytest.mark.parametrize("name", ALL_LAWS)
def test_tilted_moments_consistent(name):
    # the tilted mean xi is the derivative of log z: check by central
    # finite differences of the closed forms
    law = dp.disorder_law(name)
    du = 1e-5
    for u in (0.0, 0.3, 1.1):
        xi_fd = (law.log_mgf(u + du) - law.log_mgf(u - du)) / (2 * du)
        assert law.tilted_mean(u) == pytest.approx(xi_fd, abs=1e-8)


def test_smoothing_constant_gaussian():
    law = dp.disorder_law("gaussian")
    sc = dp.smoothing_constant(1.0, 3.0, law)
    # C = 1 / (4 c)
    assert 1.0 / (4.0 * sc.c) == pytest.approx(1.0 / 256.0, abs=1e-15)
    assert sc.c == pytest.approx(64.0, abs=1e-12)
    assert sc.route == "shift"
    assert sc.envelope(0.1) == pytest.approx(3.0 * 64.0 * 0.01, rel=1e-12)
    sc2 = dp.smoothing_constant(2.0, 3.0, law)
    assert 1.0 / (4.0 * sc2.c) == pytest.approx(4.0 / (4.0 * sc.c), rel=1e-12)


@pytest.mark.parametrize("name", ALL_LAWS)
def test_smoothing_constant_beta_scaling(name):
    law = dp.disorder_law(name)
    # C = 1 / (4 c)
    cs = {b: 1.0 / (4.0 * dp.smoothing_constant(b, 2.0, law).c) for b in (0.5, 1.0, 2.0)}
    if name == "gaussian":
        assert cs[1.0] / cs[0.5] == pytest.approx(4.0, rel=1e-12)
        assert cs[2.0] / cs[1.0] == pytest.approx(4.0, rel=1e-12)
    else:
        # bounded laws pick up the tilting factor exp(-8 M beta) on top of beta^2
        M = law.bound
        assert cs[1.0] / cs[0.5] == pytest.approx(4.0 * math.exp(-4.0 * M), rel=1e-10)


def test_smoothing_constant_vacuous_and_tilt():
    law = dp.disorder_law("gaussian")
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            dp.smoothing_constant(beta, 1.5, law)
    # a NaN alpha once gave alpha=nan
    for alpha in (0.5, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            dp.smoothing_constant(1.0, alpha, law)
    # c = 1 / (4 C) overflows as C nears 0 (beta = 93 on the tilt route
    # once raised ZeroDivisionError, and beta = 89 gave c = inf)
    for name, beta in (("rademacher", 89.0), ("rademacher", 93.0), ("uniform", 60.0),
                       ("gaussian", 1e-170)):
        with pytest.raises(ValueError, match="out of range"):
            dp.smoothing_constant(beta, 1.5, dp.disorder_law(name))
    assert dp.smoothing_constant(88.0, 1.5, dp.disorder_law("rademacher")).c < math.inf

    rad = dp.disorder_law("rademacher")
    sc = dp.smoothing_constant(1.0, 1.5, rad)
    assert sc.route == "tilt"
    c0 = math.exp(-4.0) / 8.0
    # C = 1 / (4 c)
    assert 1.0 / (4.0 * sc.c) == pytest.approx(c0**2 / (512.0 * (1.0 / 8.0)), rel=1e-12)


# c on both routes, as the chain C -> c = 1 / (4 C) rounds it: a closed form
# of c (such as 128 R / beta^2) rounds differently, and smooth.json's
# envelope_prefactor would change its bytes
PINNED_C = {
    "gaussian": {0.5: "256.0", 1.0: "64.0", 2.0: "16.0"},
    "uniform": {0.5: "12541850.946463216", 1.0: "3200236514.55282",
                2.0: "833456522548599.4"},
    "rademacher": {0.5: "223634.0225357588", 1.0: "3052500.9787307302",
                   2.0: "2274844293.2500153"},
}


@pytest.mark.parametrize("name", ALL_LAWS)
def test_smoothing_constant_pinned_bits(name):
    law = dp.disorder_law(name)
    got = {b: repr(dp.smoothing_constant(b, 3.0, law).c) for b in PINNED_C[name]}
    assert got == PINNED_C[name]
