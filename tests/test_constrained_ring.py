"""The count-resolved recursion in a ring of w rows, bit for bit.

log_partition_constrained keeps only the last w = min(N/s, n_max) rows of
its table, each once.  Here the whole (N/s + 1)-row table is kept, as the
reference: the ring build must give exactly its final row, and a build at
a shorter N' exactly its row N'/s.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

import depin as dp
from conftest import sparse_kernel
from depin.engine import LOG2


def _columnwise_lse(mat):
    m = mat.max(axis=0)
    finite = np.isfinite(m)
    safe = np.where(finite, m, 0.0)
    z = np.exp(mat - safe).sum(axis=0)
    with np.errstate(divide="ignore"):
        return np.where(finite, safe + np.log(z), -math.inf)


def _reference_table(model, omega, n):
    """Every row of the count-resolved table."""
    kern = model.kernel
    s = kern.period
    t_max = n // s
    w_max = min(t_max, kern.n_max)
    log_k = kern.log_density
    if model.kind == "pinning":
        rk = log_k[:w_max][::-1].copy()
        rewards = model.beta * omega.values[s - 1:n:s]
        table = np.full((t_max + 1, t_max + 1), -math.inf)
        table[0, 0] = 0.0
        for t in range(1, t_max + 1):
            w = min(t, w_max)
            block = table[t - w:t, 0:t] + rk[w_max - w:, None]
            table[t, 1:t + 1] = rewards[t - 1] + _columnwise_lse(block)
    else:
        rewards_prefix = np.concatenate([[0.0], np.cumsum(model.beta * omega.values[:n])])
        table = np.full((t_max + 1, n + 1), -math.inf)
        table[0, 0] = 0.0
        for t in range(1, t_max + 1):
            w = min(t, w_max)
            acc = np.full(n + 1, -math.inf)
            end_prefix = rewards_prefix[t * s - 1]
            for j_exc in range(w):
                u = t - 1 - j_exc
                base = table[u]
                k_len = (j_exc + 1) * s
                if s == 1 and j_exc == 0:
                    np.logaddexp(acc, base + log_k[0], out=acc)
                    continue
                np.logaddexp(acc, base + (log_k[j_exc] - LOG2), out=acc)
                shift = k_len - 1
                below = base[:n + 1 - shift] + (
                    log_k[j_exc] - LOG2 - (end_prefix - rewards_prefix[u * s]))
                np.logaddexp(acc[shift:], below, out=acc[shift:])
            table[t] = acc
    return table


CASES = dict(
    kind=st.sampled_from(["pinning", "copolymer"]),
    n_max=st.one_of(st.integers(1, 6), st.integers(40, 70)),
    period=st.sampled_from([1, 2]),
    steps=st.integers(1, 48),
    beta=st.floats(0.0, 5.0),
    zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
    first_zero=st.booleans(),
    seed=st.integers(0, 2**63),
)


def _case(kind, n_max, period, zero_frac, first_zero, beta, seed, n):
    kern = sparse_kernel(n_max, period, zero_frac, first_zero, seed)
    model = dp.ModelSpec(kind, beta, kern)
    omega = dp.sample_disorder(dp.disorder_law("gaussian"), n, dp.spawn_seed(seed, 1))
    return model, omega


@settings(max_examples=60, deadline=None)
@given(**CASES)
@example(kind="pinning", n_max=3, period=1, steps=30, beta=5.0,
         zero_frac=0.8, first_zero=True, seed=1)     # window below t_max, zero atoms
@example(kind="copolymer", n_max=64, period=2, steps=20, beta=5.0,
         zero_frac=0.3, first_zero=True, seed=2)     # window above t_max
@example(kind="copolymer", n_max=4, period=1, steps=25, beta=1.0,
         zero_frac=0.0, first_zero=False, seed=3)    # s = 1: undivided K(1)
# at the wrap: the window fills the ring, first wraps, and has gone round twice
@example(kind="pinning", n_max=5, period=1, steps=5, beta=1.0,
         zero_frac=0.0, first_zero=False, seed=4)
@example(kind="pinning", n_max=5, period=2, steps=6, beta=1.0,
         zero_frac=0.3, first_zero=False, seed=5)
@example(kind="pinning", n_max=5, period=1, steps=10, beta=2.0,
         zero_frac=0.3, first_zero=True, seed=6)
@example(kind="copolymer", n_max=5, period=2, steps=5, beta=1.0,
         zero_frac=0.0, first_zero=False, seed=7)
@example(kind="copolymer", n_max=5, period=1, steps=6, beta=1.0,
         zero_frac=0.3, first_zero=False, seed=8)
@example(kind="copolymer", n_max=5, period=2, steps=10, beta=2.0,
         zero_frac=0.3, first_zero=True, seed=9)
def test_ring_build_matches_full_table(kind, n_max, period, steps, beta, zero_frac,
                                       first_zero, seed):
    n = steps * period
    model, omega = _case(kind, n_max, period, zero_frac, first_zero, beta, seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = _reference_table(model, omega, n)
        got = dp.log_partition_constrained(model, omega, n)
    assert got.shape == (table.shape[1],)
    assert got.tobytes() == table[-1].tobytes()
    assert not got.flags.writeable


@settings(max_examples=40, deadline=None)
@given(**CASES, short=st.integers(1, 48))
def test_shorter_build_is_a_row_of_the_table(kind, n_max, period, steps, beta, zero_frac,
                                             first_zero, seed, short):
    # row t of the table is the final row of a build at N' = t s, bit for bit
    short = min(short, steps)
    n, n_short = steps * period, short * period
    model, omega = _case(kind, n_max, period, zero_frac, first_zero, beta, seed, n)
    table = _reference_table(model, omega, n)
    row = dp.log_partition_constrained(model, omega, n_short)
    assert row.tobytes() == table[short, :len(row)].tobytes()
    assert np.all(table[short, len(row):] == -math.inf)
