import itertools
import math
import tracemalloc

import numpy as np
import pytest

import depin as dp
from conftest import assert_log_close, random_instance
from depin import engine
from test_batched import _reference_copolymer_row


GEO = dp.geometric_kernel(0.5, n_max=48)
SRW = dp.srw_kernel(16)
LAW = dp.disorder_law("gaussian")


def test_model_spec_validation():
    with pytest.raises(ValueError):
        dp.ModelSpec("ising", 1.0, 0.0, GEO)
    with pytest.raises(ValueError):
        dp.ModelSpec("pinning", -0.5, 0.0, GEO)
    with pytest.raises(ValueError):
        dp.ModelSpec("copolymer", 1.0, -0.1, GEO)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dp.ModelSpec("pinning", bad, 0.0, GEO)
        with pytest.raises(ValueError):
            dp.ModelSpec("pinning", 1.0, bad, GEO)
    with pytest.raises(ValueError):
        dp.ModelSpec("pinning", 1.0, -math.inf, GEO)
    dp.ModelSpec("pinning", 0.0, -3.0, GEO)  # negative h fine for pinning


def test_input_validation(gaussian_law):
    om = dp.sample_disorder(gaussian_law, 10, 0)
    model = dp.ModelSpec("pinning", 1.0, 0.0, SRW)
    with pytest.raises(ValueError):
        dp.log_partition_pinning(model, om, 7)  # off the period grid
    with pytest.raises(ValueError):
        dp.log_partition_pinning(model, om, 20)  # sample too short
    mc = dp.ModelSpec("copolymer", 1.0, 0.0, SRW)
    with pytest.raises(ValueError):
        dp.log_partition_copolymer(mc, om, 7)
    with pytest.raises(ValueError):
        dp.log_partition_copolymer(model, om, 8)  # kind mismatch
    with pytest.raises(ValueError):
        dp.log_partition_pinning(mc, om, 8)


def test_single_excursion_position():
    om = dp.sample_disorder(LAW, 2, 9)
    model = dp.ModelSpec("pinning", 1.3, 0.7, SRW)
    logz = dp.log_partition_pinning(model, om, 2)
    expected = 1.3 * om.values[1] - 0.7 + math.log(0.5)
    assert logz[-1] == pytest.approx(expected, abs=1e-14)
    assert logz[0] == 0.0


def test_geometric_beta0_n2():
    om = dp.sample_disorder(LAW, 2, 1)
    model = dp.ModelSpec("pinning", 0.0, 0.0, GEO)
    logz = dp.log_partition_pinning(model, om, 2)
    assert math.exp(logz[-1]) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("i", range(12))
def test_pinning_matches_oracle(i):
    om, beta, h = random_instance(100 + i, 16)
    model = dp.ModelSpec("pinning", beta, h, GEO)
    got = dp.log_partition_pinning(model, om, 16)[-1]
    want = dp.brute_force_pinning(GEO, om, beta, h, 16)
    assert_log_close(got, want.value)


@pytest.mark.parametrize("i", range(8))
def test_pinning_matches_oracle_period2(i):
    om, beta, h = random_instance(300 + i, 16)
    model = dp.ModelSpec("pinning", beta, h, SRW)
    got = dp.log_partition_pinning(model, om, 16)[-1]
    want = dp.brute_force_pinning(SRW, om, beta, h, 16)
    assert_log_close(got, want.value)


@pytest.mark.parametrize("i", range(12))
def test_copolymer_matches_oracle(i):
    om, beta, h = random_instance(200 + i, 14)
    model = dp.ModelSpec("copolymer", beta, abs(h), SRW)
    got = dp.log_partition_copolymer(model, om, 14)[-1]
    want = dp.brute_force_copolymer(SRW, om, beta, abs(h), 14)
    assert_log_close(got, want.value)


def test_copolymer_beta_h_zero_equals_pinning():
    om = dp.sample_disorder(LAW, 12, 4)
    mc = dp.ModelSpec("copolymer", 0.0, 0.0, SRW)
    mp = dp.ModelSpec("pinning", 0.0, 0.0, SRW)
    zc = dp.log_partition_copolymer(mc, om, 12)[-1]
    zp = dp.log_partition_pinning(mp, om, 12)[-1]
    assert zc == pytest.approx(zp, abs=1e-13)


def test_copolymer_s1_one_step_convention():
    # an s=1 kernel: length-1 excursions have no interior and keep full mass
    kern = GEO
    om = dp.sample_disorder(LAW, 1, 5)
    model = dp.ModelSpec("copolymer", 1.7, 0.9, kern)
    logz = dp.log_partition_copolymer(model, om, 1)
    assert logz[-1] == pytest.approx(math.log(kern.density[0]), abs=1e-14)


def _reflection_partner(omega, beta: float, n: int) -> float:
    """Bridge sum with below-site charges AND a contact-site surcharge: at
    h = 0, flipping the sign of every charge multiplies the copolymer
    partition function by exp(beta sum_j w_j) and replaces it with this
    contact-penalized variant."""
    w = omega.values[:n]
    weights = []
    for steps in itertools.product((1, -1), repeat=n):
        s_path = np.cumsum(steps)
        if s_path[-1] != 0:
            continue
        below = s_path < 0
        contact = s_path == 0
        expo = -beta * float(w[below].sum()) - beta * float(w[contact].sum())
        weights.append(math.exp(expo) * 0.5**n)
    return math.fsum(weights)


def test_copolymer_charge_reflection():
    # flipping all charges multiplies Z by exp(beta sum w) once the contact
    # sites are recharged; the partner sum is enumerated independently
    n, beta = 12, 0.9
    om = dp.sample_disorder(LAW, n, 21)
    flipped = dp.DisorderSample(-om.values, om.seed, om.law)
    model = dp.ModelSpec("copolymer", beta, 0.0, SRW)
    lhs = dp.log_partition_copolymer(model, flipped, n)[-1]
    partner = _reflection_partner(om, beta, n)
    rhs = beta * float(om.values[:n].sum()) + math.log(partner)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_copolymer_split_saturation_is_exact():
    sat, log2 = engine.SATURATION, math.log(2.0)

    def saturates(x):
        return np.logaddexp(0.0, x) - log2 == np.maximum(x, 0.0) - log2

    # (a) from SATURATION on, log1p(e^x) - log 2 rounds to max(x, 0) - log 2
    mag = np.linspace(sat, 800.0, 200_001)
    edge = np.nextafter(sat, math.inf)
    x = np.concatenate([mag, -mag, [edge, -edge, 1e300, -1e300]])
    assert np.all(saturates(x))
    # (b) the margin is real: some x in [-38, -37] break the identity, so a
    # SATURATION below about 37.5 would change bytes
    x = np.random.default_rng(3).uniform(-38.0, -37.0, 1000)
    broken = x[~saturates(x)]
    assert broken.size > 0 and np.abs(broken).max() < sat
    # (c) a block whose splits fall below -40, inside the band and above
    # +40 gives the bytes of the plain-logaddexp reference row by row
    kern = dp.srw_kernel(64)
    n, s = 256, kern.period
    model = dp.ModelSpec("copolymer", 5.0, 0.3, kern)
    values = np.stack([dp.sample_disorder(LAW, n, 70 + r).values for r in range(4)])
    prefix = np.concatenate([np.zeros((4, 1)),
                             np.cumsum(model.beta * values + model.h, axis=1)], axis=1)
    splits = np.concatenate([prefix[:, u * s] - prefix[:, t * s - 1]
                             for t in range(1, n // s + 1)
                             for u in range(max(0, t - kern.n_max), t)])
    assert splits.min() <= -sat and splits.max() >= sat
    assert np.any(np.abs(splits) < sat)
    block = dp.log_partition_copolymer(model, values, n)
    for row, vals in zip(block, values):
        assert row.tobytes() == _reference_copolymer_row(model, vals, n).tobytes()


@pytest.mark.parametrize("i", range(8))
def test_constrained_pinning_matches_oracle(i):
    om, beta, _h = random_instance(400 + i, 16)
    model = dp.ModelSpec("pinning", beta, 0.4, GEO)
    got_j = dp.log_partition_constrained(model, om, 16)
    want = dp.brute_force_constrained(GEO, om, beta, 16)
    for j in range(len(got_j)):
        if j in want:
            assert_log_close(float(got_j[j]), want[j])
        else:
            assert got_j[j] == -math.inf


@pytest.mark.parametrize("i", range(6))
@pytest.mark.parametrize("kern,kind_n", [(GEO, 15), (SRW, 14)])
def test_constrained_copolymer_matches_oracle(i, kern, kind_n):
    om, beta, _h = random_instance(500 + i, kind_n)
    n = kind_n - kind_n % kern.period
    model = dp.ModelSpec("copolymer", beta, 0.2, kern)
    got_j = dp.log_partition_constrained(model, om, n)
    want = dp.brute_force_constrained(kern, om, beta, n, kind="copolymer")
    for j in range(len(got_j)):
        if j in want:
            assert_log_close(float(got_j[j]), want[j])
        else:
            assert got_j[j] == -math.inf


def test_constrained_first_row_and_infeasible():
    om = dp.sample_disorder(LAW, 8, 3)
    model = dp.ModelSpec("pinning", 1.1, 0.0, SRW)
    row = dp.log_partition_constrained(model, om, 8)
    # one contact at position 8 means a single excursion of length 8
    assert row[1] == pytest.approx(
        1.1 * om.values[7] + math.log(SRW.density[3]), abs=1e-13)
    # a build returns its final row only; shorter positions are the final
    # rows of shorter builds: no path of length 4 has 3 contacts (the row
    # stops at j = 4/s), and every pinned path has at least one
    short = dp.log_partition_constrained(model, om, 4)
    assert row.shape == (5,) and short.shape == (3,)
    assert short[0] == -math.inf


@pytest.mark.parametrize("kind,h", [("pinning", -0.8), ("pinning", 0.6),
                                    ("copolymer", 0.5)])
def test_constrained_reconstruction_identity(kind, h):
    kern = GEO if kind == "pinning" else SRW
    n = 64 if kind == "pinning" else 32
    om = dp.sample_disorder(LAW, n, 77)
    model = dp.ModelSpec(kind, 1.2, h, kern)
    row = dp.log_partition_constrained(model, om, n)
    counts = np.arange(len(row), dtype=float)
    lhs = dp.logsumexp_1d(row - h * counts)
    if kind == "pinning":
        direct = dp.log_partition_pinning(model, om, n)[-1]
    else:
        direct = dp.log_partition_copolymer(model, om, n)[-1]
    assert lhs == pytest.approx(direct, abs=1e-12)


def test_constrained_memory_is_w_rows():
    # a build keeps w = 8 rows of 2049 counts, where the whole
    # (N/s + 1)^2 table would take 33.6 MB
    om = dp.sample_disorder(LAW, 2048, 0)
    model = dp.ModelSpec("pinning", 1.0, 0.0, dp.geometric_kernel(0.5, n_max=8))
    tracemalloc.start()
    try:
        row = dp.log_partition_constrained(model, om, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.shape == (2049,)
    assert peak < 2_000_000


@pytest.mark.parametrize("kind,kern,n", [
    ("pinning", dp.geometric_kernel(0.5, n_max=64), 2048),
    ("copolymer", dp.srw_kernel(64), 512)])
def test_constrained_peak_is_ring_window_and_vectors(kind, kern, n):
    # the buffers of log_partition_constrained's docstring: the w x J ring
    # (each row once), the pinning window of w x N/s cells, O(J) vectors
    # (here at most 8), and numpy's iteration buffers of a ufunc call (one
    # of np.getbufsize() entries per operand, at most 3)
    t_max = n // kern.period
    w = min(t_max, kern.n_max)
    counts = t_max + 1 if kind == "pinning" else n + 1
    window = w * t_max if kind == "pinning" else 0
    bound = 8 * (w * counts + window + 8 * counts + 3 * np.getbufsize())
    om = dp.sample_disorder(LAW, n, 0)
    model = dp.ModelSpec(kind, 1.0, 0.0, kern)
    tracemalloc.start()
    try:
        row = dp.log_partition_constrained(model, om, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.shape == (counts,)
    assert peak <= bound


def test_constrained_window_extraction():
    om = dp.sample_disorder(LAW, 16, 6)
    model = dp.ModelSpec("pinning", 0.9, 0.0, GEO)
    row = dp.log_partition_constrained(model, om, 16)
    # the [0,1] window collects everything
    full = dp.constrained_window(row, 16, 0.5, 0.5)
    assert full == pytest.approx(dp.logsumexp_1d(row), abs=1e-13)
    # a window straddling a single count picks out exactly that count
    one = dp.constrained_window(row, 16, 5.0 / 16.0, 0.02)
    assert one == pytest.approx(float(row[5]), abs=1e-13)
    assert dp.constrained_window(row, 16, 0.997, 0.001) == -math.inf


def test_single_excursion_lower_bound():
    # one completed excursion spanning the whole system is one configuration
    for i in range(25):
        om, beta, h = random_instance(600 + i, 64)
        model = dp.ModelSpec("pinning", beta, h, GEO)
        logz = dp.log_partition_pinning(model, om, 48)[-1]
        bound = beta * om.values[47] - h + float(GEO.log_density[47])
        assert logz >= bound - 1e-12


def test_monotone_convex_in_h():
    om = dp.sample_disorder(LAW, 64, 8)
    hs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    vals = [dp.log_partition_pinning(dp.ModelSpec("pinning", 1.1, h, GEO), om, 64)[-1]
            for h in hs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for i in (1, 2, 3):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12


def test_free_endpoint_sandwich():
    for i in range(30):
        om, beta, h = random_instance(700 + i, 64)
        model = dp.ModelSpec("pinning", beta, h, GEO)
        logz = dp.log_partition_pinning(model, om, 64)[-1]
        logzf = dp.log_partition_free_endpoint(model, om, 64)
        assert logzf >= logz - 1e-12
        kmin = GEO.density[:64].min()
        upper = -math.log(kmin) + abs(beta * om.values[63] - h) + logz
        assert logzf <= upper + 1e-12


def test_free_endpoint_single_step():
    om = dp.sample_disorder(LAW, 2, 12)
    model = dp.ModelSpec("pinning", 0.8, -0.2, SRW)
    q = SRW.tail_mass(2) + SRW.defect_mass
    expected = q + SRW.density[0] * math.exp(0.8 * om.values[1] + 0.2)
    got = dp.log_partition_free_endpoint(model, om, 2)
    assert got == pytest.approx(math.log(expected), abs=1e-13)


def test_legendre_bracketing():
    for i in range(10):
        om, beta, h = random_instance(800 + i, 512)
        model = dp.ModelSpec("pinning", beta, h, GEO)
        row = dp.log_partition_constrained(model, om, 512)
        counts = np.arange(len(row), dtype=float)
        sup = float(np.max(row - h * counts))
        logz = dp.log_partition_pinning(model, om, 512)[-1]
        assert sup <= logz + 1e-12
        assert logz <= sup + math.log(512 / GEO.period + 1) + 1e-12


def test_concatenation_superadditivity():
    # joining two constrained systems is one way to realize the long system
    n1 = n2 = 16
    beta = 1.4
    om = dp.sample_disorder(LAW, n1 + n2, 31)
    om1 = dp.DisorderSample(om.values[:n1], 0, LAW)
    om2 = dp.DisorderSample(om.values[n1:], 0, LAW)
    model = dp.ModelSpec("pinning", beta, 0.0, GEO)
    full = dp.log_partition_constrained(model, om, n1 + n2)
    part1 = dp.log_partition_constrained(model, om1, n1)
    part2 = dp.log_partition_constrained(model, om2, n2)
    for j1 in range(1, n1 + 1):
        for j2 in range(1, n2 + 1):
            lhs = full[j1 + j2]
            rhs = part1[j1] + part2[j2]
            if math.isfinite(rhs):
                assert lhs >= rhs - 1e-11


def test_table_entries_finite_or_neginf():
    om = dp.sample_disorder(LAW, 32, 2)
    model = dp.ModelSpec("pinning", 1.0, 0.3, SRW)
    row = dp.log_partition_constrained(model, om, 32)
    assert not np.any(np.isnan(row))
    assert not np.any(np.isposinf(row))
    # j beyond n/s is unreachable
    assert np.all(np.isneginf(row[17:]))


def test_couplings_beyond_float_range_rejected():
    # log Z would overflow (h, beta) or underflow to a spurious -inf (h > 0)
    om = dp.sample_disorder(LAW, 64, 4)
    geo = dp.geometric_kernel(0.5, n_max=16)
    for beta, h in ((1.0, -1e307), (1.0, 1e308), (1e307, 0.0)):
        with pytest.raises(ValueError, match="floating-point range"):
            dp.log_partition_pinning(dp.ModelSpec("pinning", beta, h, geo), om, 64)
        with pytest.raises(ValueError, match="floating-point range"):
            dp.log_partition_constrained(dp.ModelSpec("pinning", beta, h, geo), om, 64)
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_copolymer(dp.ModelSpec("copolymer", 1e307, 1.0, SRW), om, 64)
    # large but representable: finite and exact to rounding
    logz = dp.log_partition_pinning(dp.ModelSpec("pinning", 0.0, -1e300, geo), om, 64)
    assert logz[-1] == pytest.approx(64e300, rel=1e-12)
    # just inside the pinning bound, 64 * (2.8e306 + 1000) < 1.797e308: log Z
    # is near the largest float and finite; 2.9e306 is just outside it
    logz = dp.log_partition_pinning(dp.ModelSpec("pinning", 0.0, -2.8e306, geo), om, 64)
    assert math.isfinite(logz[-1])
    assert logz[-1] == pytest.approx(64 * 2.8e306, rel=1e-12)
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_pinning(dp.ModelSpec("pinning", 0.0, -2.9e306, geo), om, 64)
    # the copolymer forms subtract prefix sums, so their bound is half as wide
    est = dp.log_partition_copolymer(dp.ModelSpec("copolymer", 0.0, 1.4e306, SRW), om, 64)
    assert math.isfinite(est[-1])
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_copolymer(dp.ModelSpec("copolymer", 0.0, 1.5e306, SRW), om, 64)
