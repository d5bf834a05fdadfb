"""The batched renewal core and the multi-size estimates, bit for bit.

A block of disorder rows must give each row exactly the bytes of a lone
row, and one build at the largest size must give every smaller size
exactly the estimate of its own build: output files are written with
repr, so a last-bit change would change them.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import depin as dp
from conftest import sparse_kernel
from depin import estimator
from depin.cli import parse_kernel_spec, run


def _reference_row(model, values, n):
    """The one-row recursion as a plain per-step loop (the reference)."""
    kern = model.kernel
    t_max = n // kern.period
    w_max = min(t_max, kern.n_max)
    rk = kern.log_density[:w_max][::-1].copy()
    charges = model.beta * values[kern.period - 1:n:kern.period] - model.h
    logz = np.empty(t_max + 1)
    logz[0] = 0.0
    buf = np.empty(w_max)
    for t in range(1, t_max + 1):
        w = min(t, w_max)
        seg = buf[:w]
        np.add(logz[t - w:t], rk[w_max - w:], out=seg)
        m = seg.max()
        if m == -math.inf:
            logz[t] = -math.inf
            continue
        np.subtract(seg, m, out=seg)
        np.exp(seg, out=seg)
        logz[t] = charges[t - 1] + m + math.log(seg.sum())
    return logz


def _reference_copolymer_row(model, values, n):
    """The one-row copolymer recursion as a plain per-step loop (the reference)."""
    kern = model.kernel
    s = kern.period
    t_max = n // s
    w_max = min(t_max, kern.n_max)
    rk = kern.log_density[:w_max][::-1].copy()
    prefix = np.concatenate([[0.0], np.cumsum(model.beta * values[:n] + model.h)])
    c_grid = prefix[::s]
    c_last = prefix[s - 1::s][:t_max]
    logz = np.empty(t_max + 1)
    logz[0] = 0.0
    for t in range(1, t_max + 1):
        w = min(t, w_max)
        interior = c_last[t - 1] - c_grid[t - w:t]
        split = np.logaddexp(0.0, -interior) - math.log(2.0)
        seg = logz[t - w:t] + rk[w_max - w:] + split
        m = seg.max()
        if m == -math.inf:
            logz[t] = -math.inf
            continue
        logz[t] = float(m + np.log(np.exp(seg - m).sum()))
    return logz


_REFERENCE = {"pinning": _reference_row, "copolymer": _reference_copolymer_row}
_RECURSION = {"pinning": dp.log_partition_pinning,
              "copolymer": dp.log_partition_copolymer}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pinning", "copolymer"]),
       rows=st.integers(1, 40),
       n_max=st.one_of(st.integers(1, 7), st.integers(129, 200)),
       period=st.sampled_from([1, 2]),
       steps=st.integers(1, 220),
       extra=st.integers(0, 5),
       beta=st.floats(0.0, 5.0),
       h=st.floats(-10.0, 10.0),
       zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
       first_zero=st.booleans(),
       law=st.sampled_from(["gaussian", "uniform", "rademacher"]),
       seed=st.integers(0, 2**63))
# atoms [0, 0, 1, 0]: rows reach -inf
@example(kind="pinning", rows=3, n_max=4, period=1, steps=12, extra=0, beta=0.0,
         h=0.0, zero_frac=0.8, first_zero=True, law="gaussian", seed=1)
@example(kind="copolymer", rows=3, n_max=4, period=1, steps=12, extra=0, beta=1.0,
         h=0.5, zero_frac=0.8, first_zero=True, law="gaussian", seed=1)
@example(kind="pinning", rows=40, n_max=200, period=2, steps=220, extra=3, beta=5.0,
         h=-10.0, zero_frac=0.3, first_zero=False, law="rademacher", seed=2)
@example(kind="copolymer", rows=40, n_max=200, period=2, steps=220, extra=3, beta=5.0,
         h=10.0, zero_frac=0.3, first_zero=False, law="rademacher", seed=2)
# copolymer splits: all exactly 0 (logaddexp's x == y branch); all
# saturated beyond 4 interior sites; on both sides of the +-40 band
@example(kind="copolymer", rows=5, n_max=150, period=1, steps=200, extra=0, beta=0.0,
         h=0.0, zero_frac=0.0, first_zero=False, law="gaussian", seed=3)
@example(kind="copolymer", rows=5, n_max=150, period=1, steps=200, extra=0, beta=0.0,
         h=10.0, zero_frac=0.0, first_zero=False, law="gaussian", seed=3)
@example(kind="copolymer", rows=8, n_max=180, period=2, steps=200, extra=1, beta=5.0,
         h=0.2, zero_frac=0.3, first_zero=False, law="gaussian", seed=4)
def test_batched_rows_match_single_rows(kind, rows, n_max, period, steps, extra, beta, h,
                                        zero_frac, first_zero, law, seed):
    kern = sparse_kernel(n_max, period, zero_frac, first_zero, seed)
    # copolymer couplings are restricted to h >= 0
    model = dp.ModelSpec(kind, beta, abs(h) if kind == "copolymer" else h, kern)
    recursion = _RECURSION[kind]
    n = steps * period
    law = dp.disorder_law(law)
    omegas = [dp.sample_disorder(law, n + extra, dp.spawn_seed(seed, r))
              for r in range(rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = recursion(model, np.stack([om.values for om in omegas]), n)
        singles = [recursion(model, om, n) for om in omegas]
        refs = [_REFERENCE[kind](model, om.values, n) for om in omegas]
    assert block.shape == (rows, steps + 1)
    for r, ref in enumerate(refs):
        assert block[r].tobytes() == ref.tobytes()
        assert singles[r].tobytes() == ref.tobytes()
    if first_zero and n_max > 1:
        assert np.all(block[:, 1] == -math.inf)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pinning", "copolymer"]),
       replicas=st.integers(1, 6),
       fields=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
       n_max=st.one_of(st.integers(1, 7), st.integers(129, 200)),
       period=st.sampled_from([1, 2]),
       steps=st.integers(1, 220),
       beta=st.floats(0.0, 5.0),
       zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
       first_zero=st.booleans(),
       seed=st.integers(0, 2**63))
# atoms [0, 0, 1, 0]: rows reach -inf
@example(kind="pinning", replicas=2, fields=[0.0, -10.0, 10.0], n_max=4, period=1,
         steps=12, beta=0.0, zero_frac=0.8, first_zero=True, seed=1)
@example(kind="copolymer", replicas=2, fields=[0.5, 0.0, 10.0], n_max=4, period=1,
         steps=12, beta=1.0, zero_frac=0.8, first_zero=True, seed=1)
@example(kind="copolymer", replicas=3, fields=[10.0, 0.0], n_max=200, period=2,
         steps=220, beta=5.0, zero_frac=0.3, first_zero=False, seed=2)
def test_field_column_matches_one_field_calls(kind, replicas, fields, n_max, period,
                                              steps, beta, zero_frac, first_zero, seed):
    # rows are (field, replica) pairs, each field in its own row of the
    # column; every row is the bytes of its one-field call
    kern = sparse_kernel(n_max, period, zero_frac, first_zero, seed)
    if kind == "copolymer":
        fields = [abs(h) for h in fields]
    n = steps * period
    law = dp.disorder_law("gaussian")
    omegas = [dp.sample_disorder(law, n, dp.spawn_seed(seed, r)).values
              for r in range(replicas)]
    pairs = [(h, om) for om in omegas for h in fields]
    recursion = _RECURSION[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = recursion(dp.ModelSpec(kind, beta, fields[0], kern),
                          np.stack([om for _, om in pairs]), n,
                          np.array([h for h, _ in pairs]))
        singles = [recursion(dp.ModelSpec(kind, beta, h, kern), om[None, :], n)[0]
                   for h, om in pairs]
    assert block.shape == (len(pairs), steps + 1)
    for row, single in zip(block, singles):
        assert row.tobytes() == single.tobytes()


def test_field_column_rejects_bad_fields():
    law = dp.disorder_law("gaussian")
    values = np.stack([dp.sample_disorder(law, 8, r).values for r in range(2)])
    pin = dp.ModelSpec("pinning", 1.0, 0.0, dp.geometric_kernel(0.5, n_max=4))
    cop = dp.ModelSpec("copolymer", 1.0, 0.0, dp.srw_kernel(4))
    with pytest.raises(ValueError, match="one field per row"):
        dp.log_partition_pinning(pin, values, 8, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        dp.log_partition_pinning(pin, values, 8, np.array([0.0, math.nan]))
    with pytest.raises(ValueError, match="h >= 0"):
        dp.log_partition_copolymer(cop, values, 8, np.array([0.5, -0.5]))


def _same_estimate(a, b):
    assert (a.n, a.replicas, a.seed, a.model) == (b.n, b.replicas, b.seed, b.model)
    assert float(a.mean).hex() == float(b.mean).hex()
    assert float(a.stderr).hex() == float(b.stderr).hex()
    assert repr(a.f_mean) == repr(b.f_mean)
    assert a.replica_values.tobytes() == b.replica_values.tobytes()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["pinning", "copolymer"]),
       sizes=st.lists(st.integers(1, 48), min_size=1, max_size=4),
       replicas=st.integers(1, 5),
       beta=st.sampled_from([0.0, 0.5, 1.5]),
       h=st.floats(0.0, 1.5),
       seed=st.integers(0, 2**63))
@example(kind="copolymer", sizes=[8, 4, 8], replicas=3, beta=0.0, h=0.0, seed=3)
@example(kind="pinning", sizes=[40, 6], replicas=5, beta=1.5, h=0.0, seed=4)
def test_multi_size_matches_per_size(monkeypatch, kind, sizes, replicas, beta, h, seed):
    # every size reads the one build at the largest N
    monkeypatch.setenv("DEPIN_THREADS", "1")
    kern = dp.srw_kernel(12) if kind == "copolymer" else dp.geometric_kernel(0.5, n_max=16)
    n_list = [kern.period * k for k in sizes]
    model = dp.ModelSpec(kind, beta, h if kind == "copolymer" else -h, kern)
    law = dp.disorder_law("gaussian")
    multi = dp.estimate_free_energy(model, law, n_list, replicas, seed)
    for est, n in zip(multi, n_list):
        _same_estimate(est, dp.estimate_free_energy(model, law, n, replicas, seed))


@pytest.mark.parametrize("kind", ["pinning", "copolymer"])
def test_sub_blocks_match_one_block(monkeypatch, kind):
    # a block cut into runs of replicas under the cell budget, runs of 2 and
    # a last run of 1, gives the bytes of the uncut block
    monkeypatch.setenv("DEPIN_THREADS", "1")
    kern = dp.srw_kernel(12) if kind == "copolymer" else dp.geometric_kernel(0.5, n_max=16)
    model = dp.ModelSpec(kind, 1.0, 0.3 if kind == "copolymer" else -0.3, kern)
    law = dp.disorder_law("gaussian")
    whole = dp.estimate_free_energy(model, law, [32, 64], 5, 8)
    monkeypatch.setattr(estimator, "BLOCK_CELLS", 2 * 64 + 1)
    cut = dp.estimate_free_energy(model, law, [32, 64], 5, 8)
    for a, b in zip(whole, cut):
        _same_estimate(a, b)


@pytest.mark.parametrize("kind", ["pinning", "copolymer"])
@pytest.mark.parametrize("budget", [None, 3 * 64, 2 * 64 + 1])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_fields_match_one_field_calls(monkeypatch, kind, budget, beta):
    # a list of fields is rows of one build: whole replicas per run, or
    # (budget below the 3 fields of a replica) fields cut over runs; each
    # result is the bytes of its one-field call, over 2 workers too
    kern = dp.srw_kernel(12) if kind == "copolymer" else dp.geometric_kernel(0.5, n_max=16)
    fields = [0.6, 0.1, 0.35] if kind == "copolymer" else [-0.6, 0.1, -0.35]
    models = [dp.ModelSpec(kind, beta, h, kern) for h in fields]
    law = dp.disorder_law("gaussian")
    monkeypatch.setenv("DEPIN_THREADS", "1")
    singles = [dp.estimate_free_energy(m, law, [32, 64], 5, 8) for m in models]
    if budget is not None:
        monkeypatch.setattr(estimator, "BLOCK_CELLS", budget)
    for threads in ("1", "2"):
        monkeypatch.setenv("DEPIN_THREADS", threads)
        multi = dp.estimate_free_energy(models, law, [32, 64], 5, 8)
        assert len(multi) == len(models)
        for got, want in zip(multi, singles):
            for a, b in zip(got, want):
                _same_estimate(a, b)
    one = dp.estimate_free_energy(models[:1], law, 64, 5, 8)
    _same_estimate(one[0], singles[0][1])


def test_fields_must_share_kind_beta_and_kernel():
    geo = dp.geometric_kernel(0.5, n_max=16)
    law = dp.disorder_law("gaussian")
    base = dp.ModelSpec("pinning", 1.0, 0.0, geo)
    for other in (dp.ModelSpec("pinning", 0.5, 0.0, geo),
                  dp.ModelSpec("pinning", 1.0, 0.0, dp.geometric_kernel(0.5, n_max=16)),
                  dp.ModelSpec("copolymer", 1.0, 0.0, geo)):
        with pytest.raises(ValueError, match="differ only in h"):
            dp.estimate_free_energy([base, other], law, 32, 2, 1)
    with pytest.raises(ValueError, match="at least one model"):
        dp.estimate_free_energy([], law, 32, 2, 1)


def test_one_size_and_one_seed_forms():
    model = dp.ModelSpec("pinning", 1.0, -0.2, dp.geometric_kernel(0.5, n_max=16))
    law = dp.disorder_law("gaussian")
    one = dp.estimate_free_energy(model, law, 32, 3, 5)
    assert isinstance(one, dp.FreeEnergyEstimate)
    _same_estimate(one, dp.estimate_free_energy(model, law, [32], 3, 5)[0])
    _same_estimate(one, dp.estimate_free_energy(model, law, [64, 32], 3, 5)[1])


def _fe_bytes(tmp_path, monkeypatch, kind, threads):
    monkeypatch.setenv("DEPIN_THREADS", threads)
    out = tmp_path / f"{kind}{threads}"
    kernel = "srw:n_max=32" if kind == "copolymer" else "geometric:p=0.5,n_max=32"
    assert run(["fe", "--kind", kind, "--kernel", kernel, "--beta", "1",
                "--h=0.6,0.1,0.35", "--N", "128,64,96", "--replicas", "5",
                "--seed", "9", "--out", str(out)]) == 0
    return (out / "fe.csv").read_bytes()


def test_fe_rows_and_bytes_across_workers(tmp_path, monkeypatch, capsys):
    # 5 replicas over 2 workers: blocks of 2 and 3
    for kind in ("pinning", "copolymer"):
        one = _fe_bytes(tmp_path, monkeypatch, kind, "1")
        two = _fe_bytes(tmp_path, monkeypatch, kind, "2")
        assert one == two
        rows = [ln.split(",") for ln in one.decode().splitlines()
                if not ln.startswith("#")][1:]
        assert [(r[0], r[2]) for r in rows] == [
            (n, h) for n in ("128", "64", "96") for h in ("0.6", "0.1", "0.35")]
        # each row is the estimate of its own size
        model = dp.ModelSpec(kind, 1.0, 0.35, parse_kernel_spec(
            "srw:n_max=32" if kind == "copolymer" else "geometric:p=0.5,n_max=32"))
        est = dp.estimate_free_energy(model, dp.disorder_law("gaussian"), 96, 5, 9)
        assert rows[-1][3] == repr(est.mean)
    capsys.readouterr()
