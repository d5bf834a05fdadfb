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


def _reference_row(model, values, n, h):
    """The one-row recursion as a plain per-step loop (the reference)."""
    kern = model.kernel
    t_max = n // kern.period
    w_max = min(t_max, kern.n_max)
    rk = kern.log_density[:w_max][::-1].copy()
    charges = model.beta * values[kern.period - 1:n:kern.period] - h
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


def _reference_copolymer_row(model, values, n, h):
    """The one-row copolymer recursion as a plain per-step loop (the reference)."""
    kern = model.kernel
    s = kern.period
    t_max = n // s
    w_max = min(t_max, kern.n_max)
    rk = kern.log_density[:w_max][::-1].copy()
    prefix = np.concatenate([[0.0], np.cumsum(model.beta * values[:n] + h)])
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
# n_max on both sides of WIDE_ROW = 256, and steps past n_max: full windows
@given(kind=st.sampled_from(["pinning", "copolymer"]),
       rows=st.integers(1, 40),
       n_max=st.one_of(st.integers(1, 7), st.integers(129, 200), st.integers(257, 300)),
       period=st.sampled_from([1, 2]),
       steps=st.integers(1, 340),
       extra=st.integers(0, 5),
       beta=st.floats(0.0, 5.0),
       h=st.floats(-10.0, 10.0),
       zero_frac=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
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
# full windows of WIDE_ROW = 256 cells or more, whose log K add broadcasts
@example(kind="pinning", rows=6, n_max=280, period=1, steps=330, extra=0, beta=1.0,
         h=0.3, zero_frac=0.3, first_zero=False, law="gaussian", seed=5)
@example(kind="copolymer", rows=6, n_max=260, period=2, steps=340, extra=2, beta=1.0,
         h=0.3, zero_frac=0.3, first_zero=True, law="uniform", seed=5)
# one atom, at the horizon: no chain reaches most steps
@example(kind="pinning", rows=4, n_max=5, period=2, steps=40, extra=0, beta=1.0,
         h=0.2, zero_frac=1.0, first_zero=True, law="gaussian", seed=6)
@example(kind="copolymer", rows=4, n_max=257, period=1, steps=340, extra=0, beta=1.0,
         h=0.2, zero_frac=1.0, first_zero=True, law="gaussian", seed=6)
def test_batched_rows_match_single_rows(kind, rows, n_max, period, steps, extra, beta, h,
                                        zero_frac, first_zero, law, seed):
    kern = sparse_kernel(n_max, period, zero_frac, first_zero, seed)
    # copolymer couplings are restricted to h >= 0
    model, field = dp.ModelSpec(kind, beta, kern), abs(h) if kind == "copolymer" else h
    recursion = _RECURSION[kind]
    n = steps * period
    law = dp.disorder_law(law)
    omegas = [dp.sample_disorder(law, n + extra, dp.spawn_seed(seed, r))
              for r in range(rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = recursion(model, np.stack([om.values for om in omegas]), n, field)
        singles = [recursion(model, om, n, field) for om in omegas]
        refs = [_REFERENCE[kind](model, om.values, n, field) for om in omegas]
    assert block.shape == (rows, steps + 1)
    for r, ref in enumerate(refs):
        assert block[r].tobytes() == ref.tobytes()
        assert singles[r].tobytes() == ref.tobytes()
    if first_zero and n_max > 1:
        assert np.all(block[:, 1] == -math.inf)


def test_pinning_finish_is_libm_log():
    # near h_c(beta) log Z stays O(1), so the last bit of each step's log
    # survives the charge and max added to it; numpy's SIMD np.log differs
    # from libm's math.log in that bit on a few inputs in a thousand, and a
    # finish with np.log flips 13 of these 32 rows (numpy 2.4)
    model = dp.ModelSpec("pinning", 0.2, dp.geometric_kernel(0.5, n_max=64))
    law = dp.disorder_law("gaussian")
    values = np.stack([dp.sample_disorder(law, 512, dp.spawn_seed(9, r)).values
                       for r in range(32)])
    block = dp.log_partition_pinning(model, values, 512, 0.0)
    for r, row in enumerate(values):
        assert block[r].tobytes() == _reference_row(model, row, 512, 0.0).tobytes(), r


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pinning", "copolymer"]),
       replicas=st.integers(1, 6),
       fields=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
       n_max=st.one_of(st.integers(1, 7), st.integers(129, 200), st.integers(257, 300)),
       period=st.sampled_from([1, 2]),
       steps=st.integers(1, 340),
       beta=st.floats(0.0, 5.0),
       zero_frac=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
       first_zero=st.booleans(),
       seed=st.integers(0, 2**63))
# atoms [0, 0, 1, 0]: rows reach -inf
@example(kind="pinning", replicas=2, fields=[0.0, -10.0, 10.0], n_max=4, period=1,
         steps=12, beta=0.0, zero_frac=0.8, first_zero=True, seed=1)
@example(kind="copolymer", replicas=2, fields=[0.5, 0.0, 10.0], n_max=4, period=1,
         steps=12, beta=1.0, zero_frac=0.8, first_zero=True, seed=1)
@example(kind="copolymer", replicas=3, fields=[10.0, 0.0], n_max=200, period=2,
         steps=220, beta=5.0, zero_frac=0.3, first_zero=False, seed=2)
@example(kind="pinning", replicas=2, fields=[0.0, -1.0], n_max=270, period=1,
         steps=330, beta=1.0, zero_frac=0.3, first_zero=False, seed=3)
@example(kind="copolymer", replicas=2, fields=[0.0, 1.0], n_max=6, period=2,
         steps=50, beta=1.0, zero_frac=1.0, first_zero=True, seed=3)
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
    recursion, model = _RECURSION[kind], dp.ModelSpec(kind, beta, kern)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = recursion(model, np.stack([om for _, om in pairs]), n,
                          np.array([h for h, _ in pairs]))
        singles = [recursion(model, om[None, :], n, h)[0] for h, om in pairs]
    assert block.shape == (len(pairs), steps + 1)
    for row, single in zip(block, singles):
        assert row.tobytes() == single.tobytes()


def test_field_column_rejects_bad_fields():
    law = dp.disorder_law("gaussian")
    values = np.stack([dp.sample_disorder(law, 8, r).values for r in range(2)])
    pin = dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5, n_max=4))
    cop = dp.ModelSpec("copolymer", 1.0, dp.srw_kernel(4))
    with pytest.raises(ValueError, match="one field per row"):
        dp.log_partition_pinning(pin, values, 8, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        dp.log_partition_pinning(pin, values, 8, np.array([0.0, math.nan]))
    with pytest.raises(ValueError, match="h >= 0"):
        dp.log_partition_copolymer(cop, values, 8, np.array([0.5, -0.5]))
    # one field for every row
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            dp.log_partition_pinning(pin, values, 8, bad)
    with pytest.raises(ValueError, match="h >= 0"):
        dp.log_partition_copolymer(cop, values, 8, -0.1)
    dp.log_partition_pinning(pin, values, 8, -3.0)  # negative h fine for pinning


def _cell(est, j, i):
    """Field j, size i of est as a one-field, one-size estimate."""
    return dp.FreeEnergyEstimate(est.mean[j:j + 1, i:i + 1], est.stderr[j:j + 1, i:i + 1],
                                 est.replica_values[:, j:j + 1, i:i + 1])


def _same_estimate(a, b):
    assert a.replica_values.shape == b.replica_values.shape
    assert [float(x).hex() for x in a.mean.flat] == [float(x).hex() for x in b.mean.flat]
    assert [float(x).hex() for x in a.stderr.flat] == [float(x).hex() for x in b.stderr.flat]
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
    model, fields = dp.ModelSpec(kind, beta, kern), [h if kind == "copolymer" else -h]
    law = dp.disorder_law("gaussian")
    multi = dp.estimate_free_energy(model, law, fields, n_list, replicas, seed)
    for i, n in enumerate(n_list):
        _same_estimate(_cell(multi, 0, i),
                       dp.estimate_free_energy(model, law, fields, [n], replicas, seed))


@pytest.mark.parametrize("kind", ["pinning", "copolymer"])
def test_sub_blocks_match_one_block(monkeypatch, kind):
    # a block cut into runs of replicas under the cell budget, runs of 2 and
    # a last run of 1, gives the bytes of the uncut block
    monkeypatch.setenv("DEPIN_THREADS", "1")
    kern = dp.srw_kernel(12) if kind == "copolymer" else dp.geometric_kernel(0.5, n_max=16)
    model, fields = dp.ModelSpec(kind, 1.0, kern), [0.3 if kind == "copolymer" else -0.3]
    law = dp.disorder_law("gaussian")
    whole = dp.estimate_free_energy(model, law, fields, [32, 64], 5, 8)
    monkeypatch.setattr(estimator, "BLOCK_CELLS", 2 * 64 + 1)
    cut = dp.estimate_free_energy(model, law, fields, [32, 64], 5, 8)
    for i in range(2):
        _same_estimate(_cell(whole, 0, i), _cell(cut, 0, i))


@pytest.mark.parametrize("kind", ["pinning", "copolymer"])
@pytest.mark.parametrize("budget", [None, 3 * 64, 2 * 64 + 1])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_fields_match_one_field_calls(monkeypatch, kind, budget, beta):
    # a list of fields is rows of one build: whole replicas per run, or
    # (budget below the 3 fields of a replica) fields cut over runs; each
    # result is the bytes of its one-field call, over 2 workers too
    kern = dp.srw_kernel(12) if kind == "copolymer" else dp.geometric_kernel(0.5, n_max=16)
    fields = [0.6, 0.1, 0.35] if kind == "copolymer" else [-0.6, 0.1, -0.35]
    model = dp.ModelSpec(kind, beta, kern)
    law = dp.disorder_law("gaussian")
    monkeypatch.setenv("DEPIN_THREADS", "1")
    singles = [dp.estimate_free_energy(model, law, [h], [32, 64], 5, 8) for h in fields]
    if budget is not None:
        monkeypatch.setattr(estimator, "BLOCK_CELLS", budget)
    for threads in ("1", "2"):
        monkeypatch.setenv("DEPIN_THREADS", threads)
        multi = dp.estimate_free_energy(model, law, fields, [32, 64], 5, 8)
        assert multi.mean.shape == multi.stderr.shape == (len(fields), 2)
        for j, want in enumerate(singles):
            for i in range(2):
                _same_estimate(_cell(multi, j, i), _cell(want, 0, i))
    one = dp.estimate_free_energy(model, law, fields[:1], [64], 5, 8)
    _same_estimate(one, _cell(singles[0], 0, 1))


def test_an_estimate_needs_a_field():
    model = dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5, n_max=16))
    with pytest.raises(ValueError, match="at least one field"):
        dp.estimate_free_energy(model, dp.disorder_law("gaussian"), [], [32], 2, 1)


def test_one_size_and_one_seed_forms():
    # one field at one size is a 1 x 1 grid over the replicas, and the cell
    # of that size in a longer size list
    model = dp.ModelSpec("pinning", 1.0, dp.geometric_kernel(0.5, n_max=16))
    law = dp.disorder_law("gaussian")
    one = dp.estimate_free_energy(model, law, [-0.2], [32], 3, 5)
    assert isinstance(one, dp.FreeEnergyEstimate)
    assert one.mean.shape == one.stderr.shape == (1, 1)
    assert one.replica_values.shape == (3, 1, 1)
    _same_estimate(one, dp.estimate_free_energy(model, law, [-0.2], [32], 3, 5))
    _same_estimate(one, _cell(dp.estimate_free_energy(model, law, [-0.2], [64, 32], 3, 5),
                              0, 1))


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
        model = dp.ModelSpec(kind, 1.0, parse_kernel_spec(
            "srw:n_max=32" if kind == "copolymer" else "geometric:p=0.5,n_max=32"))
        est = dp.estimate_free_energy(model, dp.disorder_law("gaussian"), [0.35], [96], 5, 9)
        assert rows[-1][3] == repr(float(est.mean[0, 0]))
    capsys.readouterr()
