import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import depin as dp
from conftest import assert_log_close, random_instance, sparse_kernel
from depin import engine
from test_batched import _reference_copolymer_row


GEO = dp.geometric_kernel(0.5, n_max=48)
SRW = dp.srw_kernel(16)
LAW = dp.disorder_law("gaussian")


def test_model_spec_validation():
    # the field cases are in test_batched.test_field_column_rejects_bad_fields
    with pytest.raises(ValueError):
        dp.ModelSpec("ising", 1.0, GEO)
    with pytest.raises(ValueError):
        dp.ModelSpec("pinning", -0.5, GEO)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            dp.ModelSpec("pinning", bad, GEO)


def test_input_validation(gaussian_law):
    om = dp.sample_disorder(gaussian_law, 10, 0)
    model = dp.ModelSpec("pinning", 1.0, SRW)
    with pytest.raises(ValueError):
        dp.log_partition_pinning(model, om, 7, 0.0)  # off the period grid
    with pytest.raises(ValueError):
        dp.log_partition_pinning(model, om, 20, 0.0)  # sample too short
    mc = dp.ModelSpec("copolymer", 1.0, SRW)
    with pytest.raises(ValueError):
        dp.log_partition_copolymer(mc, om, 7, 0.0)
    with pytest.raises(ValueError):
        dp.log_partition_copolymer(model, om, 8, 0.0)  # kind mismatch
    with pytest.raises(ValueError):
        dp.log_partition_pinning(mc, om, 8, 0.0)


def test_single_excursion_position():
    om = dp.sample_disorder(LAW, 2, 9)
    model = dp.ModelSpec("pinning", 1.3, SRW)
    logz = dp.log_partition_pinning(model, om, 2, 0.7)
    expected = 1.3 * om.values[1] - 0.7 + math.log(0.5)
    assert logz[-1] == pytest.approx(expected, abs=1e-14)
    assert logz[0] == 0.0


def test_geometric_beta0_n2():
    om = dp.sample_disorder(LAW, 2, 1)
    model = dp.ModelSpec("pinning", 0.0, GEO)
    logz = dp.log_partition_pinning(model, om, 2, 0.0)
    assert math.exp(logz[-1]) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("i", range(12))
def test_pinning_matches_oracle(i):
    om, beta, h = random_instance(100 + i, 16)
    model = dp.ModelSpec("pinning", beta, GEO)
    got = dp.log_partition_pinning(model, om, 16, h)[-1]
    want = dp.brute_force_pinning(GEO, om, beta, h, 16)
    assert_log_close(got, want.value)


@pytest.mark.parametrize("i", range(8))
def test_pinning_matches_oracle_period2(i):
    om, beta, h = random_instance(300 + i, 16)
    model = dp.ModelSpec("pinning", beta, SRW)
    got = dp.log_partition_pinning(model, om, 16, h)[-1]
    want = dp.brute_force_pinning(SRW, om, beta, h, 16)
    assert_log_close(got, want.value)


@pytest.mark.parametrize("i", range(12))
def test_copolymer_matches_oracle(i):
    om, beta, h = random_instance(200 + i, 14)
    model = dp.ModelSpec("copolymer", beta, SRW)
    got = dp.log_partition_copolymer(model, om, 14, abs(h))[-1]
    want = dp.brute_force_copolymer(SRW, om, beta, abs(h), 14)
    assert_log_close(got, want.value)


def test_copolymer_beta_h_zero_equals_pinning():
    om = dp.sample_disorder(LAW, 12, 4)
    mc = dp.ModelSpec("copolymer", 0.0, SRW)
    mp = dp.ModelSpec("pinning", 0.0, SRW)
    zc = dp.log_partition_copolymer(mc, om, 12, 0.0)[-1]
    zp = dp.log_partition_pinning(mp, om, 12, 0.0)[-1]
    assert zc == pytest.approx(zp, abs=1e-13)


def test_copolymer_s1_one_step_convention():
    # an s=1 kernel: length-1 excursions have no interior and keep full mass
    kern = GEO
    om = dp.sample_disorder(LAW, 1, 5)
    model = dp.ModelSpec("copolymer", 1.7, kern)
    logz = dp.log_partition_copolymer(model, om, 1, 0.9)
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
    model = dp.ModelSpec("copolymer", beta, SRW)
    lhs = dp.log_partition_copolymer(model, flipped, n, 0.0)[-1]
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
    model, h = dp.ModelSpec("copolymer", 5.0, kern), 0.3
    values = np.stack([dp.sample_disorder(LAW, n, 70 + r).values for r in range(4)])
    prefix = np.concatenate([np.zeros((4, 1)),
                             np.cumsum(model.beta * values + h, axis=1)], axis=1)
    splits = np.concatenate([prefix[:, u * s] - prefix[:, t * s - 1]
                             for t in range(1, n // s + 1)
                             for u in range(max(0, t - kern.n_max), t)])
    assert splits.min() <= -sat and splits.max() >= sat
    assert np.any(np.abs(splits) < sat)
    block = dp.log_partition_copolymer(model, values, n, h)
    for row, vals in zip(block, values):
        assert row.tobytes() == _reference_copolymer_row(model, vals, n, h).tobytes()


@pytest.mark.parametrize("i", range(8))
def test_constrained_pinning_matches_oracle(i):
    om, beta, _h = random_instance(400 + i, 16)
    model = dp.ModelSpec("pinning", beta, GEO)
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
    model = dp.ModelSpec("copolymer", beta, kern)
    got_j = dp.log_partition_constrained(model, om, n)
    want = dp.brute_force_constrained(kern, om, beta, n, kind="copolymer")
    for j in range(len(got_j)):
        if j in want:
            assert_log_close(float(got_j[j]), want[j])
        else:
            assert got_j[j] == -math.inf


def test_constrained_first_row_and_infeasible():
    om = dp.sample_disorder(LAW, 8, 3)
    model = dp.ModelSpec("pinning", 1.1, SRW)
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
    model = dp.ModelSpec(kind, 1.2, kern)
    row = dp.log_partition_constrained(model, om, n)
    counts = np.arange(len(row), dtype=float)
    lhs = dp.logsumexp_1d(row - h * counts)
    if kind == "pinning":
        direct = dp.log_partition_pinning(model, om, n, h)[-1]
    else:
        direct = dp.log_partition_copolymer(model, om, n, h)[-1]
    assert lhs == pytest.approx(direct, abs=1e-12)


def test_constrained_memory_is_w_rows():
    # a build keeps w = 8 rows of 2049 counts, where the whole
    # (N/s + 1)^2 table would take 33.6 MB
    om = dp.sample_disorder(LAW, 2048, 0)
    model = dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5, n_max=8))
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
    # per operand, at most 3, of at most np.getbufsize() entries: the
    # pinning build at N/s = 2048 steps under WIDE_BUFFER = 64 entries)
    t_max = n // kern.period
    w = min(t_max, kern.n_max)
    counts = t_max + 1 if kind == "pinning" else n + 1
    window = w * t_max if kind == "pinning" else 0
    bound = 8 * (w * counts + window + 8 * counts + 3 * np.getbufsize())
    om = dp.sample_disorder(LAW, n, 0)
    model = dp.ModelSpec(kind, 1.0, kern)
    tracemalloc.start()
    try:
        row = dp.log_partition_constrained(model, om, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.shape == (counts,)
    assert peak <= bound


def test_bytes_do_not_depend_on_the_ufunc_buffer(monkeypatch):
    # each build gives the same bytes under a caller's buffer of 16 entries
    # and of numpy's default, with the wide-row rule on and with it off
    # (WIDE_ROW = 2^30), and leaves the caller's buffer size as it was
    block = np.random.default_rng(4).standard_normal((5, 1024))
    om = dp.sample_disorder(LAW, 512, 2)
    builds = {
        "wide pinning block": lambda: dp.log_partition_pinning(
            dp.ModelSpec("pinning", 1.0, dp.power_kernel(3.0, 1, 512)), block, 1024, -0.3),
        "narrow pinning block": lambda: dp.log_partition_pinning(
            dp.ModelSpec("pinning", 1.0, GEO), block, 1024, -0.3),
        "copolymer block": lambda: dp.log_partition_copolymer(
            dp.ModelSpec("copolymer", 1.0, dp.srw_kernel(512)), block, 1024, 0.4),
        "count-resolved pinning": lambda: dp.log_partition_constrained(
            dp.ModelSpec("pinning", 1.0, GEO), om, 512),
        "count-resolved copolymer": lambda: dp.log_partition_constrained(
            dp.ModelSpec("copolymer", 1.0, SRW), om, 256),
    }
    default = np.getbufsize()
    for name, build in builds.items():
        seen = set()
        for wide_row in (engine.WIDE_ROW, 1 << 30):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "WIDE_ROW", wide_row)
                for size in (16, default):
                    with np.errstate():
                        np.setbufsize(size)
                        seen.add(build().tobytes())
                        assert np.getbufsize() == size, name
        assert len(seen) == 1, name
        assert np.getbufsize() == default


def test_constrained_window_extraction():
    om = dp.sample_disorder(LAW, 16, 6)
    model = dp.ModelSpec("pinning", 0.9, GEO)
    row = dp.log_partition_constrained(model, om, 16)
    # the [0,1] window collects everything
    full = dp.constrained_window(row, 16, 0.5, 0.5)
    assert full == pytest.approx(dp.logsumexp_1d(row), abs=1e-13)
    # a window straddling a single count picks out exactly that count
    one = dp.constrained_window(row, 16, 5.0 / 16.0, 0.02)
    assert one == pytest.approx(float(row[5]), abs=1e-13)
    assert dp.constrained_window(row, 16, 0.997, 0.001) == -math.inf


def test_logsumexp_1d_non_finite_inputs():
    inf, nan = math.inf, math.nan
    assert dp.logsumexp_1d(np.array([])) == -inf
    assert dp.logsumexp_1d(np.array([-inf, -inf])) == -inf
    assert dp.logsumexp_1d(np.array([inf, 1.0])) == inf
    # a NaN max once failed isfinite and then m < 0, and came out as +inf
    for values in ([nan, 1.0], [1.0, nan], [-inf, nan], [inf, nan]):
        assert math.isnan(dp.logsumexp_1d(np.array(values))), values
    assert dp.logsumexp_1d(np.array([0.0, 0.0])) == math.log(2.0)


def test_single_excursion_lower_bound():
    # one completed excursion spanning the whole system is one configuration
    for i in range(25):
        om, beta, h = random_instance(600 + i, 64)
        model = dp.ModelSpec("pinning", beta, GEO)
        logz = dp.log_partition_pinning(model, om, 48, h)[-1]
        bound = beta * om.values[47] - h + float(GEO.log_density[47])
        assert logz >= bound - 1e-12


def test_monotone_convex_in_h():
    om = dp.sample_disorder(LAW, 64, 8)
    hs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    vals = [dp.log_partition_pinning(dp.ModelSpec("pinning", 1.1, GEO), om, 64, h)[-1]
            for h in hs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for i in (1, 2, 3):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12


def test_free_endpoint_sandwich():
    for i in range(30):
        om, beta, h = random_instance(700 + i, 64)
        model = dp.ModelSpec("pinning", beta, GEO)
        logz = dp.log_partition_pinning(model, om, 64, h)[-1]
        logzf = dp.log_partition_free_endpoint(model, om, 64, h)
        assert logzf >= logz - 1e-12
        kmin = GEO.density[:64].min()
        upper = -math.log(kmin) + abs(beta * om.values[63] - h) + logz
        assert logzf <= upper + 1e-12


def test_free_endpoint_single_step():
    om = dp.sample_disorder(LAW, 2, 12)
    model = dp.ModelSpec("pinning", 0.8, SRW)
    q = SRW.tail_mass(2) + SRW.defect_mass
    expected = q + SRW.density[0] * math.exp(0.8 * om.values[1] + 0.2)
    got = dp.log_partition_free_endpoint(model, om, 2, -0.2)
    assert got == pytest.approx(math.log(expected), abs=1e-13)


def test_legendre_bracketing():
    for i in range(10):
        om, beta, h = random_instance(800 + i, 512)
        model = dp.ModelSpec("pinning", beta, GEO)
        row = dp.log_partition_constrained(model, om, 512)
        counts = np.arange(len(row), dtype=float)
        sup = float(np.max(row - h * counts))
        logz = dp.log_partition_pinning(model, om, 512, h)[-1]
        assert sup <= logz + 1e-12
        assert logz <= sup + math.log(512 / GEO.period + 1) + 1e-12


def test_concatenation_superadditivity():
    # joining two constrained systems is one way to realize the long system
    n1 = n2 = 16
    beta = 1.4
    om = dp.sample_disorder(LAW, n1 + n2, 31)
    om1 = dp.DisorderSample(om.values[:n1], 0, LAW)
    om2 = dp.DisorderSample(om.values[n1:], 0, LAW)
    model = dp.ModelSpec("pinning", beta, GEO)
    full = dp.log_partition_constrained(model, om, n1 + n2)
    part1 = dp.log_partition_constrained(model, om1, n1)
    part2 = dp.log_partition_constrained(model, om2, n2)
    for j1 in range(1, n1 + 1):
        for j2 in range(1, n2 + 1):
            lhs = full[j1 + j2]
            rhs = part1[j1] + part2[j2]
            if math.isfinite(rhs):
                assert lhs >= rhs - 1e-11



def _pinned_log_z(model, values, n, h):
    return dp.log_partition_pinning(model, values, n, h)[0, -1]


@settings(max_examples=100, deadline=None)
@given(n_max=st.integers(1, 12), period=st.sampled_from([1, 2]),
       zero_frac=st.floats(0.0, 0.9), first_zero=st.booleans(), key=st.integers(0, 2**32),
       beta=st.floats(0.0, 2.0), h=st.floats(-2.0, 2.0),
       n1=st.integers(1, 24), n2=st.integers(1, 24))
def test_pinned_superadditivity(n_max, period, zero_frac, first_zero, key, beta, h, n1, n2):
    # a path pinned at N + M that touches N is a path pinned at N followed by
    # one pinned at M on the shifted chain theta^N w, so
    # log Z_{N+M}(w) >= log Z_N(w) + log Z_M(theta^N w): the superadditivity
    # behind the lower bound l_N <= F (-inf where the kernel reaches no path)
    model = dp.ModelSpec("pinning", beta,
                         sparse_kernel(n_max, period, zero_frac, first_zero, key))
    n, m = n1 * period, n2 * period
    values = dp.sample_disorder(LAW, n + m, key).values
    whole = _pinned_log_z(model, values[None, :n + m], n + m, h)
    split = (_pinned_log_z(model, values[None, :n], n, h)
             + _pinned_log_z(model, values[None, n:n + m], m, h))
    assert whole >= split - 1e-12 * max(1.0, abs(whole))


def _log_w(model, values, n, h):
    # log W_N, W_N = sum of the pinned Z_m over m = 0, s, ..., N (Z_0 = 1)
    return np.logaddexp.reduce(dp.log_partition_pinning(model, values, n, h)[0])


def _non_increasing_kernel(n_max, period, defect, key):
    dens = np.sort(np.random.default_rng(key).random(n_max))[::-1]
    return dp.ReturnKernel(dens * ((1.0 - defect) / dens.sum()), defect, period, None, n_max)


@settings(max_examples=100, deadline=None)
@given(kern=st.one_of(
           st.builds(_non_increasing_kernel, st.integers(1, 12), st.sampled_from([1, 2]),
                     st.floats(0.0, 0.5), st.integers(0, 2**32)),
           st.builds(dp.power_kernel, st.floats(1.0, 4.0), st.sampled_from([1, 2]),
                     st.integers(1, 40), st.floats(0.0, 0.5))),
       key=st.integers(0, 2**32), beta=st.floats(0.0, 2.0), h=st.floats(-2.0, 2.0),
       n1=st.integers(1, 24), n2=st.integers(1, 24))
def test_summed_partition_subadditive_on_non_increasing_kernels(kern, key, beta, h, n1, n2):
    # for K non-increasing, a path to n > N, split at its last contact
    # i <= N and first contact j > N, weighs K(j - i) <= K(j - N), so
    # W_{N+M}(w) <= W_N(w) W_M(theta^N w): the upper bound F <= u_N
    model = dp.ModelSpec("pinning", beta, kern)
    n, m = n1 * kern.period, n2 * kern.period
    values = dp.sample_disorder(LAW, n + m, key).values
    whole = _log_w(model, values[None, :n + m], n + m, h)
    split = (_log_w(model, values[None, :n], n, h)
             + _log_w(model, values[None, n:n + m], m, h))
    assert whole <= split + 1e-12 * max(1.0, abs(whole))


def test_summed_partition_needs_a_non_increasing_kernel():
    # K(1) < K(2): W_2 = W_1 W_1(theta w) + 0.8 e^{beta w_2}, so the
    # inequality above fails at N = M = 1 on every chain
    model = dp.ModelSpec("pinning", 1.0,
                         dp.ReturnKernel(np.array([0.1, 0.9]), 0.0, 1, None, 2))
    values = dp.sample_disorder(LAW, 2, 1).values
    excess = (_log_w(model, values[None, :2], 2, 0.0)
              - _log_w(model, values[None, :1], 1, 0.0)
              - _log_w(model, values[None, 1:2], 1, 0.0))
    assert excess > 1e-6

def test_table_entries_finite_or_neginf():
    om = dp.sample_disorder(LAW, 32, 2)
    model = dp.ModelSpec("pinning", 1.0, SRW)
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
            dp.log_partition_pinning(dp.ModelSpec("pinning", beta, geo), om, 64, h)
    # the count-resolved build takes no h
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_constrained(dp.ModelSpec("pinning", 1e307, geo), om, 64)
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_copolymer(dp.ModelSpec("copolymer", 1e307, SRW), om, 64, 1.0)
    # large but representable: finite and exact to rounding
    logz = dp.log_partition_pinning(dp.ModelSpec("pinning", 0.0, geo), om, 64, -1e300)
    assert logz[-1] == pytest.approx(64e300, rel=1e-12)
    # just inside the pinning bound, 64 * (2.8e306 + 1000) < 1.797e308: log Z
    # is near the largest float and finite; 2.9e306 is just outside it
    logz = dp.log_partition_pinning(dp.ModelSpec("pinning", 0.0, geo), om, 64, -2.8e306)
    assert math.isfinite(logz[-1])
    assert logz[-1] == pytest.approx(64 * 2.8e306, rel=1e-12)
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_pinning(dp.ModelSpec("pinning", 0.0, geo), om, 64, -2.9e306)
    # the copolymer forms subtract prefix sums, so their bound is half as wide
    est = dp.log_partition_copolymer(dp.ModelSpec("copolymer", 0.0, SRW), om, 64, 1.4e306)
    assert math.isfinite(est[-1])
    with pytest.raises(ValueError, match="floating-point range"):
        dp.log_partition_copolymer(dp.ModelSpec("copolymer", 0.0, SRW), om, 64, 1.5e306)
