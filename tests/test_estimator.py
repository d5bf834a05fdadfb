import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import depin as dp
from depin.estimator import worker_count


GEO = dp.geometric_kernel(0.5, n_max=64)
LAW = dp.disorder_law("gaussian")


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["pinning", "copolymer"]),
       sizes=st.lists(st.integers(1, 24), min_size=1, max_size=3, unique=True),
       replicas=st.integers(1, 4),
       beta=st.sampled_from([0.5, 1.0, 2.0]),
       fields=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=5, unique=True),
       threads=st.sampled_from(["1", "2"]),
       seed=st.integers(0, 2**63))
# distinct fields that f - 1.0 maps to one float
@example(kind="pinning", sizes=[4], replicas=2, beta=1.0,
         fields=[0.0, 1.2184298464742672e-93, 1.0625474275265165e-159], threads="1", seed=0)
def test_each_replica_monotone_convex_in_h(monkeypatch, kind, sizes, replicas, beta, fields,
                                           threads, seed):
    # with the disorder shared across fields, each replica's (1/N) log Z is
    # non-increasing (its h-derivative is minus a density) and convex (the
    # second derivative is a variance) in h, up to rounding
    kern = dp.srw_kernel(12) if kind == "copolymer" else dp.geometric_kernel(0.5, n_max=16)
    hs = sorted(set(fields) if kind == "copolymer" else {f - 1.0 for f in fields})
    assume(len(hs) >= 3)
    models = [dp.ModelSpec(kind, beta, h, kern) for h in hs]
    n_list = [kern.period * k for k in sizes]
    monkeypatch.setenv("DEPIN_THREADS", threads)
    by_h = dp.estimate_free_energy(models, LAW, n_list, replicas, seed)
    for i in range(len(n_list)):
        f = np.array([ests[i].replica_values for ests in by_h])  # (fields, replicas)
        slack = 1e-12 * np.abs(f).max(axis=0)
        assert np.all(f[1:] <= f[:-1] + slack)
        for j in range(1, len(hs) - 1):
            t = (hs[j] - hs[j - 1]) / (hs[j + 1] - hs[j - 1])
            assert np.all(f[j] <= (1 - t) * f[j - 1] + t * f[j + 1] + slack)


def test_beta0_no_spread(gaussian_law):
    model = dp.ModelSpec("pinning", 0.0, -1.0, GEO)
    est = dp.estimate_free_energy(model, gaussian_law, 256, 16, 3)
    assert est.stderr == 0.0
    om = dp.sample_disorder(gaussian_law, 256, dp.spawn_seed(3, 0))
    direct = dp.log_partition_pinning(model, om, 256)[-1] / 256
    assert est.mean == direct


def test_beta0_converges_to_pure(gaussian_law):
    model = dp.ModelSpec("pinning", 0.0, -1.0, GEO)
    b = dp.solve_free_energy_pure(GEO, -1.0).b
    est = dp.estimate_free_energy(model, gaussian_law, 4096, 4, 7)
    assert est.mean == pytest.approx(b, abs=0.01)


def test_beta0_monotone_in_n(gaussian_law):
    # tilted geometric renewals hit every site with the same probability, so
    # (1/N) log Z = b + log(hit)/N increases strictly toward b
    model = dp.ModelSpec("pinning", 0.0, -1.0, GEO)
    b = dp.solve_free_energy_pure(GEO, -1.0).b
    means = [dp.estimate_free_energy(model, gaussian_law, n, 2, 5).mean
             for n in (256, 512, 1024, 2048, 4096, 8192)]
    assert all(m1 < m2 < b for m1, m2 in zip(means, means[1:]))


def test_replica_determinism_across_workers(monkeypatch):
    model = dp.ModelSpec("pinning", 1.0, -0.2, GEO)
    monkeypatch.setenv("DEPIN_THREADS", "1")
    a = dp.estimate_free_energy(model, LAW, 512, 6, 11)
    monkeypatch.setenv("DEPIN_THREADS", "2")
    b = dp.estimate_free_energy(model, LAW, 512, 6, 11)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert np.array_equal(a.replica_values, b.replica_values)


def test_single_excursion_bound_on_mean():
    model = dp.ModelSpec("pinning", 1.2, 0.4, GEO)
    n, reps, seed = 64, 12, 13
    est = dp.estimate_free_energy(model, LAW, n, reps, seed)
    bounds = []
    for r in range(reps):
        om = dp.sample_disorder(LAW, n, dp.spawn_seed(seed, r))
        bounds.append((1.2 * om.values[n - 1] - 0.4 + float(GEO.log_density[n - 1])) / n)
    assert est.mean >= np.mean(bounds) - 1e-12


def test_stderr_halves_with_replica_doubling():
    model = dp.ModelSpec("pinning", 1.0, -0.1, GEO)
    est64 = dp.estimate_free_energy(model, LAW, 256, 64, 29)
    est128 = dp.estimate_free_energy(model, LAW, 256, 128, 29)
    ratio = est128.stderr**2 / est64.stderr**2
    assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


def test_copolymer_relation_exact():
    srw = dp.srw_kernel(32)
    model = dp.ModelSpec("copolymer", 1.0, 0.6, srw)
    est = dp.estimate_free_energy(model, LAW, 128, 6, 17)
    assert est.f_mean == est.mean + 0.3


def test_copolymer_excess_nonnegative_at_scale():
    # the excess free energy obeys the all-above-interface floor
    # (log K(N) - log 2)/N pointwise, and clears -3 stderr on probes in the
    # localized region where it converges to a positive limit
    srw = dp.srw_kernel(256)
    floor = (math.log(srw.density[255]) - math.log(2.0)) / 512
    for h in (0.0, 0.1, 0.2, 0.4, 1.0):
        model = dp.ModelSpec("copolymer", 1.0, h, srw)
        est = dp.estimate_free_energy(model, LAW, 512, 8, 23)
        assert est.mean >= floor - 1e-12
        if h <= 0.2:
            assert est.mean >= -3.0 * est.stderr


def test_phi_default_epsilon():
    assert dp.default_epsilon(2048, 1) == pytest.approx(1 / math.sqrt(2048))
    assert dp.default_epsilon(64, 2) == pytest.approx(1 / 8.0)
    assert dp.default_epsilon(10**6, 1) == pytest.approx(2.0 / 10**6 * 0 + 1e-3)


def test_phi_curve_feasibility(tmp_path):
    # kernel with only long excursions: high densities are unreachable
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=nan\n4,0.5\n8,0.5\n", encoding="utf-8")
    kern = dp.kernel_from_file(path)
    model = dp.ModelSpec("pinning", 1.0, 0.0, kern)
    curve = dp.estimate_phi(model, LAW, [0.1, 0.25, 0.9], 0.03, 64, 4, 3)
    assert curve.feasible[0] and curve.feasible[1]
    assert not curve.feasible[2]
    assert curve.values[2] == -math.inf and curve.stderr[2] == 0.0


def test_phi_validation():
    model = dp.ModelSpec("pinning", 1.0, 0.0, GEO)
    with pytest.raises(ValueError):
        dp.estimate_phi(model, LAW, [], 0.05, 64, 2, 1)
    with pytest.raises(ValueError):
        dp.estimate_phi(model, LAW, [0.5, 1.2], 0.05, 64, 2, 1)
    with pytest.raises(ValueError):
        dp.estimate_phi(model, LAW, [0.5], 0.001, 64, 2, 1)  # N * eps < 1


def test_phi_below_unconstrained_pointwise():
    model = dp.ModelSpec("pinning", 1.0, 0.0, GEO)
    n, reps, seed = 256, 6, 41
    curve = dp.estimate_phi(model, LAW, np.linspace(0.1, 0.9, 5), None, n, reps, seed)
    fe = dp.estimate_free_energy(model, LAW, n, reps, seed)
    # same replica seeds: the windowed mass never exceeds the full sum
    assert np.all(curve.values[curve.feasible] <= fe.mean + 3 * fe.stderr)
    assert np.all(curve.replica_values[:, curve.feasible]
                  <= fe.replica_values[:, None] + 1e-12)


def test_phi_deterministic(monkeypatch):
    model = dp.ModelSpec("pinning", 0.8, 0.0, GEO)
    monkeypatch.setenv("DEPIN_THREADS", "2")
    a = dp.estimate_phi(model, LAW, [0.2, 0.5], 0.05, 128, 5, 19)
    monkeypatch.setenv("DEPIN_THREADS", "1")
    b = dp.estimate_phi(model, LAW, [0.2, 0.5], 0.05, 128, 5, 19)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)


def test_self_averaging():
    # the replica variance of (1/N) log Z shrinks as N grows
    def variance(model, n, replicas, seed):
        return dp.estimate_free_energy(model, LAW, n, replicas,
                                       seed).replica_values.var(ddof=1)

    model = dp.ModelSpec("pinning", 1.0, -0.3, GEO)
    ladder = [variance(model, n, 24, dp.spawn_seed(31, i))
              for i, n in enumerate([256, 512, 1024, 2048])]
    assert ladder[-1] < ladder[0]

    flat = dp.ModelSpec("pinning", 0.0, -0.3, GEO)
    assert all(variance(flat, n, 4, dp.spawn_seed(31, i)) == 0.0
               for i, n in enumerate([256, 512]))


def test_estimate_validation():
    model = dp.ModelSpec("pinning", 1.0, 0.0, GEO)
    with pytest.raises(ValueError):
        dp.estimate_free_energy(model, LAW, 256, 0, 1)


def test_worker_count_capped_at_cores(monkeypatch):
    # only the count is asked for, so no pool is started
    cores = os.cpu_count() or 1
    monkeypatch.setenv("DEPIN_THREADS", "1000000")
    assert worker_count() == cores
    monkeypatch.setenv("DEPIN_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.delenv("DEPIN_THREADS")
    assert worker_count() == cores


def test_unreachable_size_has_zero_spread(tmp_path):
    # atoms at 4 and 8 only: no path has length 6, so log Z = -inf on every
    # replica and the spread is 0, not NaN
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=nan\n4,0.5\n8,0.5\n", encoding="utf-8")
    model = dp.ModelSpec("pinning", 1.0, 0.0, dp.kernel_from_file(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = dp.estimate_free_energy(model, LAW, 6, 3, 5)
    assert est.mean == -math.inf and est.stderr == 0.0


def test_spread_of_huge_free_energies_is_finite():
    # (1/N) log Z near 1e299: the squared deviations would overflow to an
    # infinite standard error; the spread is that of the values scaled down
    model = dp.ModelSpec("pinning", 1e300, 0.0, dp.geometric_kernel(0.5, n_max=16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = dp.estimate_free_energy(model, LAW, 64, 4, 5)
    scaled = est.replica_values / 1e290
    want = scaled.std(ddof=1) / 2.0 * 1e290
    assert math.isfinite(est.stderr) and est.stderr == pytest.approx(want, rel=1e-12)
