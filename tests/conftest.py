"""Shared test helpers: independent enumeration oracles and draw utilities."""

import itertools
import math

import numpy as np
import pytest

import depin as dp


def srw_first_return_enum(n_steps: int) -> float:
    """P(first return of the +-1 walk at step n) by full path enumeration."""
    count = 0
    for steps in itertools.product((1, -1), repeat=n_steps):
        pos = 0
        alive = True
        for i, st in enumerate(steps):
            pos += st
            if pos == 0:
                alive = i == n_steps - 1
                break
        if alive and pos == 0:
            count += 1
    return count / 2.0**n_steps


def random_instance(seed: int, n: int, beta_max: float = 2.0):
    """A reproducible (omega, beta, h) draw for oracle comparisons."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    law = dp.disorder_law("gaussian")
    omega = dp.sample_disorder(law, n, dp.spawn_seed(seed, 0))
    beta = beta_max * rng.random()
    h = -2.0 + 4.0 * rng.random()
    return omega, float(beta), float(h)


def assert_log_close(log_value: float, reference_value: float, rel: float = 1e-12):
    """|value - ref| <= rel * ref, compared through the log domain."""
    assert reference_value > 0
    diff = abs(log_value - math.log(reference_value))
    assert diff <= rel * max(1.0, abs(math.log(reference_value))), (
        f"log values differ by {diff:.3e}")


def sparse_kernel(n_max, period, zero_frac, first_zero, key):
    """A normalized table with a share of zero atoms (maybe the first)."""
    rng = np.random.default_rng(key)
    dens = rng.random(n_max) + 0.01
    dens[rng.random(n_max) < zero_frac] = 0.0
    if first_zero and n_max > 1:
        dens[0] = 0.0
    if not dens.any():
        dens[-1] = 1.0
    return dp.ReturnKernel(dens / dens.sum(), 0.0, period, None, n_max)


@pytest.fixture()
def gaussian_law():
    return dp.disorder_law("gaussian")
