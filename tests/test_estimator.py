import itertools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import depin as dp
from depin import estimator
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
    model = dp.ModelSpec(kind, beta, kern)
    n_list = [kern.period * k for k in sizes]
    monkeypatch.setenv("DEPIN_THREADS", threads)
    est = dp.estimate_free_energy(model, LAW, hs, n_list, replicas, seed)
    for i in range(len(n_list)):
        f = est.replica_values[:, :, i].T  # (fields, replicas)
        slack = 1e-12 * np.abs(f).max(axis=0)
        assert np.all(f[1:] <= f[:-1] + slack)
        for j in range(1, len(hs) - 1):
            t = (hs[j] - hs[j - 1]) / (hs[j + 1] - hs[j - 1])
            assert np.all(f[j] <= (1 - t) * f[j - 1] + t * f[j + 1] + slack)


@pytest.mark.parametrize("replicas", [3, 7, 10, 16])
def test_beta0_no_spread(gaussian_law, replicas):
    # every replica is the one build, whose value the rounded mean and std
    # of equal doubles need not give back
    model = dp.ModelSpec("pinning", 0.0, GEO)
    est = dp.estimate_free_energy(model, gaussian_law, [-1.0], [256], replicas, 3)
    assert est.stderr[0, 0] == 0.0
    om = dp.sample_disorder(gaussian_law, 256, dp.spawn_seed(3, 0))
    direct = dp.log_partition_pinning(model, om, 256, -1.0)[-1] / 256
    assert est.mean[0, 0] == direct


def test_beta0_phi_no_spread():
    model = dp.ModelSpec("copolymer", 0.0, dp.srw_kernel(4))
    curve = dp.estimate_phi(model, LAW, [0.5], None, 4, 3, 1)
    one = dp.estimate_phi(model, LAW, [0.5], None, 4, 1, 1)
    assert curve.stderr[0] == 0.0 and curve.values[0] == one.values[0]


def test_beta0_converges_to_pure(gaussian_law):
    model = dp.ModelSpec("pinning", 0.0, GEO)
    b = dp.solve_free_energy_pure(GEO, -1.0).b
    est = dp.estimate_free_energy(model, gaussian_law, [-1.0], [4096], 4, 7)
    assert est.mean[0, 0] == pytest.approx(b, abs=0.01)


def test_beta0_monotone_in_n(gaussian_law):
    # tilted geometric renewals hit every site with the same probability, so
    # (1/N) log Z = b + log(hit)/N increases strictly toward b
    model = dp.ModelSpec("pinning", 0.0, GEO)
    b = dp.solve_free_energy_pure(GEO, -1.0).b
    means = [dp.estimate_free_energy(model, gaussian_law, [-1.0], [n], 2, 5).mean[0, 0]
             for n in (256, 512, 1024, 2048, 4096, 8192)]
    assert all(m1 < m2 < b for m1, m2 in zip(means, means[1:]))


def test_replica_determinism_across_workers(monkeypatch):
    model = dp.ModelSpec("pinning", 1.0, GEO)
    monkeypatch.setenv("DEPIN_THREADS", "1")
    a = dp.estimate_free_energy(model, LAW, [-0.2], [512], 6, 11)
    monkeypatch.setenv("DEPIN_THREADS", "2")
    b = dp.estimate_free_energy(model, LAW, [-0.2], [512], 6, 11)
    assert a.mean[0, 0] == b.mean[0, 0] and a.stderr[0, 0] == b.stderr[0, 0]
    assert np.array_equal(a.replica_values, b.replica_values)


def test_single_excursion_bound_on_mean():
    model = dp.ModelSpec("pinning", 1.2, GEO)
    n, reps, seed = 64, 12, 13
    est = dp.estimate_free_energy(model, LAW, [0.4], [n], reps, seed)
    bounds = []
    for r in range(reps):
        om = dp.sample_disorder(LAW, n, dp.spawn_seed(seed, r))
        bounds.append((1.2 * om.values[n - 1] - 0.4 + float(GEO.log_density[n - 1])) / n)
    assert est.mean[0, 0] >= np.mean(bounds) - 1e-12


def test_stderr_halves_with_replica_doubling():
    model = dp.ModelSpec("pinning", 1.0, GEO)
    est64 = dp.estimate_free_energy(model, LAW, [-0.1], [256], 64, 29)
    est128 = dp.estimate_free_energy(model, LAW, [-0.1], [256], 128, 29)
    ratio = est128.stderr[0, 0]**2 / est64.stderr[0, 0]**2
    assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


def test_copolymer_relation_exact():
    # the plain growth rate, (1/N) log of the sum over +-1 bridges of
    # 2^-N exp((1/2) sum_j (beta w_j + h) sign(S_j)), enumerated here, is
    # each replica's excess value + h/2 + (beta/2) mean(w): mean + h/2 over
    # replicas, up to the disorder's sample mean
    srw = dp.srw_kernel(32)
    model = dp.ModelSpec("copolymer", 1.0, srw)
    n, reps, seed = 12, 6, 17
    est = dp.estimate_free_energy(model, LAW, [0.6], [n], reps, seed)
    paths = np.array(list(itertools.product((1, -1), repeat=n)))
    walks = np.cumsum(paths, axis=1)
    signs = np.where(walks[walks[:, -1] == 0] < 0, -1.0, 1.0)
    for r in range(reps):
        w = dp.sample_disorder(LAW, n, dp.spawn_seed(seed, r)).values[:n]
        plain = math.log(math.fsum(np.exp(0.5 * signs @ (w + 0.6)) * 0.5**n)) / n
        got = est.replica_values[r, 0, 0] + 0.3 + 0.5 * w.mean()
        assert got == pytest.approx(plain, rel=1e-12, abs=1e-15)


def test_copolymer_excess_nonnegative_at_scale():
    # the excess free energy obeys the all-above-interface floor
    # (log K(N) - log 2)/N pointwise, and clears -3 stderr on probes in the
    # localized region where it converges to a positive limit
    srw = dp.srw_kernel(256)
    floor = (math.log(srw.density[255]) - math.log(2.0)) / 512
    for h in (0.0, 0.1, 0.2, 0.4, 1.0):
        model = dp.ModelSpec("copolymer", 1.0, srw)
        est = dp.estimate_free_energy(model, LAW, [h], [512], 8, 23)
        assert est.mean[0, 0] >= floor - 1e-12
        if h <= 0.2:
            assert est.mean[0, 0] >= -3.0 * est.stderr[0, 0]


def test_phi_default_epsilon():
    assert dp.default_epsilon(2048, 1) == pytest.approx(1 / math.sqrt(2048))
    assert dp.default_epsilon(64, 2) == pytest.approx(1 / 8.0)
    assert dp.default_epsilon(10**6, 1) == pytest.approx(2.0 / 10**6 * 0 + 1e-3)


def test_phi_curve_feasibility(tmp_path):
    # kernel with only long excursions: high densities are unreachable
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=nan\n4,0.5\n8,0.5\n", encoding="utf-8")
    kern = dp.kernel_from_file(path)
    model = dp.ModelSpec("pinning", 1.0, kern)
    curve = dp.estimate_phi(model, LAW, [0.1, 0.25, 0.9], 0.03, 64, 4, 3)
    assert curve.feasible[0] and curve.feasible[1]
    assert not curve.feasible[2]
    assert curve.values[2] == -math.inf and curve.stderr[2] == 0.0


def _no_build(*args):
    raise AssertionError("a replica build started")


def test_phi_validation(monkeypatch):
    model = dp.ModelSpec("pinning", 1.0, GEO)
    with pytest.raises(ValueError):
        dp.estimate_phi(model, LAW, [], 0.05, 64, 2, 1)
    with pytest.raises(ValueError):
        dp.estimate_phi(model, LAW, [0.5, 1.2], 0.05, 64, 2, 1)
    # NaN is rejected before any replica is built
    monkeypatch.setattr(estimator, "_map_replicas", _no_build)
    with pytest.raises(ValueError, match="densities"):
        dp.estimate_phi(model, LAW, [math.nan], None, 32, 2, 1)
    with pytest.raises(ValueError, match="half-width"):
        dp.estimate_phi(model, LAW, [0.5], math.nan, 32, 2, 1)
    with pytest.raises(ValueError):
        dp.estimate_phi(model, LAW, [0.5], 0.001, 64, 2, 1)  # N * eps < 1
    with pytest.raises(ValueError, match="at least one replica"):
        dp.estimate_phi(model, LAW, [0.5], None, 32, 0, 1)
    # N = 0 once divided by zero in default_epsilon, and N = -4 took the
    # square root of a negative number
    for kern, n in ((GEO, 0), (GEO, -4), (dp.srw_kernel(8), 31)):
        with pytest.raises(ValueError, match=f"N={n} is not a positive multiple"):
            dp.estimate_phi(dp.ModelSpec("pinning", 1.0, kern), LAW, [0.5], None, n, 2, 1)


def test_phi_below_unconstrained_pointwise():
    model = dp.ModelSpec("pinning", 1.0, GEO)
    n, reps, seed = 256, 6, 41
    curve = dp.estimate_phi(model, LAW, np.linspace(0.1, 0.9, 5), None, n, reps, seed)
    fe = dp.estimate_free_energy(model, LAW, [0.0], [n], reps, seed)
    # same replica seeds: the windowed mass never exceeds the full sum
    assert np.all(curve.values[curve.feasible] <= fe.mean[0, 0] + 3 * fe.stderr[0, 0])
    assert np.all(curve.replica_values[:, curve.feasible]
                  <= fe.replica_values[:, 0] + 1e-12)


def test_phi_deterministic(monkeypatch):
    model = dp.ModelSpec("pinning", 0.8, GEO)
    monkeypatch.setenv("DEPIN_THREADS", "2")
    a = dp.estimate_phi(model, LAW, [0.2, 0.5], 0.05, 128, 5, 19)
    monkeypatch.setenv("DEPIN_THREADS", "1")
    b = dp.estimate_phi(model, LAW, [0.2, 0.5], 0.05, 128, 5, 19)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)


def test_self_averaging():
    # the replica variance of (1/N) log Z shrinks as N grows
    def variance(model, n, replicas, seed):
        return dp.estimate_free_energy(model, LAW, [-0.3], [n], replicas,
                                       seed).replica_values[:, 0, 0].var(ddof=1)

    model = dp.ModelSpec("pinning", 1.0, GEO)
    ladder = [variance(model, n, 24, dp.spawn_seed(31, i))
              for i, n in enumerate([256, 512, 1024, 2048])]
    assert ladder[-1] < ladder[0]

    flat = dp.ModelSpec("pinning", 0.0, GEO)
    assert all(variance(flat, n, 4, dp.spawn_seed(31, i)) == 0.0
               for i, n in enumerate([256, 512]))


def test_estimate_validation(monkeypatch):
    model = dp.ModelSpec("pinning", 1.0, GEO)
    with pytest.raises(ValueError):
        dp.estimate_free_energy(model, LAW, [0.0], [256], 0, 1)
    # an empty size list is refused before any replica is built
    monkeypatch.setattr(estimator, "_map_replicas", _no_build)
    with pytest.raises(ValueError, match="at least one size"):
        dp.estimate_free_energy(model, LAW, [0.0], [], 2, 1)
    # so is a size off the period of the simple random walk's returns
    with pytest.raises(ValueError, match="N=3 is not a positive multiple of the period 2"):
        dp.estimate_free_energy(dp.ModelSpec("pinning", 1.0, dp.srw_kernel(8)), LAW, [0.0],
                                [16, 3], 2, 1)


def test_bad_field_is_rejected_before_any_build(monkeypatch):
    # fields are checked before the replicas are mapped, so no pool starts
    monkeypatch.setattr(estimator, "_map_replicas", _no_build)
    with pytest.raises(ValueError, match="finite"):
        dp.estimate_free_energy(dp.ModelSpec("pinning", 1.0, GEO), LAW, [-0.2, math.nan],
                                [32], 2, 1)
    with pytest.raises(ValueError, match="h >= 0"):
        dp.estimate_free_energy(dp.ModelSpec("copolymer", 1.0, dp.srw_kernel(12)), LAW,
                                [0.3, -0.1], [32], 2, 1)


def test_worker_count_capped_at_cores(monkeypatch):
    # only the count is asked for, so no pool is started; the cap is the
    # set of CPUs this process may use, not every CPU of the machine
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setenv("DEPIN_THREADS", "1000000")
    assert worker_count() == 1
    monkeypatch.delenv("DEPIN_THREADS")
    assert worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert worker_count() == 3
    monkeypatch.setenv("DEPIN_THREADS", "2")
    assert worker_count() == 2
    # where the OS has no affinity set, every CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setenv("DEPIN_THREADS", "1000000")
    assert worker_count() == 8
    monkeypatch.setenv("DEPIN_THREADS", "1")
    assert worker_count() == 1


@pytest.mark.parametrize("kind", ["pinning", "copolymer"])
@pytest.mark.parametrize("beta, draws", [(0.0, 1), (1.0, 5)])
def test_inert_shortcut_only_at_beta_zero(monkeypatch, kind, beta, draws):
    # the one build of replica 0 serves every replica and field only when
    # no row of the block reads its disorder
    monkeypatch.setenv("DEPIN_THREADS", "1")
    drawn = []

    def counted(law, n, seed):
        drawn.append(seed)
        return dp.sample_disorder(law, n, seed)

    monkeypatch.setattr(estimator, "sample_disorder", counted)
    kern = dp.srw_kernel(12) if kind == "copolymer" else GEO
    model = dp.ModelSpec(kind, beta, kern)
    est = dp.estimate_free_energy(model, LAW, [0.2, 0.4], [32], 5, 3)
    assert len(drawn) == draws
    if beta == 0.0:
        assert np.all(est.stderr == 0.0)
        assert np.all(est.replica_values == est.replica_values[0])


def test_phi_and_fe_share_one_statistics_rule():
    # each cell's mean and standard error, phi's and fe's alike, are those of
    # one contiguous copy of the cell's replica values; from 8 replicas on a
    # mean along axis 0 of the matrix can differ from it in the last bits
    model = dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5, n_max=16))
    curve = dp.estimate_phi(model, LAW, np.linspace(0.1, 0.9, 9), None, 64, 16, 1)
    fe = dp.estimate_free_energy(model, LAW, [-0.2, 0.1], [32, 64], 16, 1)
    for values, mean, stderr in ((curve.replica_values, curve.values, curve.stderr),
                                 (fe.replica_values, fe.mean, fe.stderr)):
        assert mean.shape == stderr.shape == values.shape[1:]
        for cell in np.ndindex(*values.shape[1:]):
            column = values[(slice(None),) + cell].copy()
            want = column[0] if column.min() == column.max() else column.mean()
            assert mean[cell].tobytes() == want.tobytes()
            assert stderr[cell] == estimator._mean_stderr(column)[1]


def test_unreachable_size_has_zero_spread(tmp_path):
    # atoms at 4 and 8 only: no path has length 6, so log Z = -inf on every
    # replica and the spread is 0, not NaN
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=nan\n4,0.5\n8,0.5\n", encoding="utf-8")
    model = dp.ModelSpec("pinning", 1.0, dp.kernel_from_file(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = dp.estimate_free_energy(model, LAW, [0.0], [6], 3, 5)
    assert est.mean[0, 0] == -math.inf and est.stderr[0, 0] == 0.0


def test_spread_of_huge_free_energies_is_finite():
    # (1/N) log Z near 1e299: the squared deviations would overflow to an
    # infinite standard error; the spread is that of the values scaled down
    model = dp.ModelSpec("pinning", 1e300, dp.geometric_kernel(0.5, n_max=16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = dp.estimate_free_energy(model, LAW, [0.0], [64], 4, 5)
    scaled = est.replica_values[:, 0, 0] / 1e290
    want = scaled.std(ddof=1) / 2.0 * 1e290
    stderr = est.stderr[0, 0]
    assert math.isfinite(stderr) and stderr == pytest.approx(want, rel=1e-12)
