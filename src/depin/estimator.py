"""Replica-averaged free-energy and constrained-curve estimation.

Replicas are IID disorder realizations; replica r of a run with master seed
S draws its charges from the child seed spawn_seed(S, r), so results do not
depend on how replicas are scheduled.  Aggregation is a fold in fixed
replica order, which makes every estimate bit-reproducible for identical
inputs regardless of the worker count (capped by the DEPIN_THREADS
environment variable).

Error bars are plain standard errors over replicas; jackknife resampling is
reserved for derived quantities (see the analysis module).
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .disorder import DisorderLaw, sample_disorder, spawn_seed
from .engine import (LogPartitionTable, ModelSpec, constrained_window,
                     log_partition_constrained, log_partition_pinning,
                     log_partition_copolymer)


def worker_count() -> int:
    """Worker processes for replica builds: DEPIN_THREADS, at most the cores."""
    cores = os.cpu_count() or 1
    env = os.environ.get("DEPIN_THREADS")
    if env:
        return max(1, min(int(env), cores))
    return cores


def _map_replicas(fn, tasks):
    """Run fn over tasks, in parallel when allowed; results keep task order."""
    workers = min(worker_count(), len(tasks))
    if workers <= 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _build_table(model: ModelSpec, law: DisorderLaw, n: int, seed: int) -> LogPartitionTable:
    omega = sample_disorder(law, n, seed)
    if model.kind == "pinning":
        return log_partition_pinning(model, omega, n)
    return log_partition_copolymer(model, omega, n)


def _fe_task(args) -> float:
    model, law, n, seed = args
    return _build_table(model, law, n, seed).final_logz / n


def _phi_task(args) -> np.ndarray:
    model, law, n, seed, m_grid, epsilon = args
    omega = sample_disorder(law, n, seed)
    table = log_partition_constrained(model, omega, n)
    return np.array([constrained_window(table, m, epsilon) / n for m in m_grid])


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Replica mean and standard error of (1/N) log Z.

    For a copolymer model ``mean`` is the excess free energy (the quantity
    that vanishes in the delocalized phase) and ``f_mean`` the plain growth
    rate; the two differ by exactly h/2.
    """

    mean: float
    stderr: float
    n: int
    replicas: int
    seed: int
    model: ModelSpec
    f_mean: float | None = None
    replica_values: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class PhiCurve:
    """Constrained free-energy estimates over a grid of contact densities.

    values[i] averages (1/N) log of the partition mass with rewarded-site
    density within m_grid[i] +- epsilon; infeasible windows (no admissible
    count) are -inf with feasible[i] False.  Feasibility depends only on
    the kernel support, never on the disorder draw.
    """

    m_grid: np.ndarray
    epsilon: float
    values: np.ndarray
    stderr: np.ndarray
    feasible: np.ndarray
    n: int
    replicas: int
    seed: int
    replica_values: np.ndarray = field(repr=False, default=None)


def default_epsilon(n: int, s: int) -> float:
    """Window half-width max(1/sqrt(N), 2s/N): nonempty yet shrinking with N."""
    return max(1.0 / math.sqrt(n), 2.0 * s / n)


def _spread(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def estimate_free_energy(model: ModelSpec, law: DisorderLaw, n: int,
                         replicas: int, seed: int) -> FreeEnergyEstimate:
    """Average (1/N) log Z over independent disorder replicas.

    With beta = 0 the disorder is inert, so a single build serves all
    replicas and the standard error is exactly zero.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if model.beta == 0.0:
        v = _fe_task((model, law, n, spawn_seed(seed, 0)))
        values = np.full(replicas, v)
    else:
        tasks = [(model, law, n, spawn_seed(seed, r)) for r in range(replicas)]
        values = np.array(_map_replicas(_fe_task, tasks))
    mean = float(values.mean())
    f_mean = mean + model.h / 2.0 if model.kind == "copolymer" else None
    return FreeEnergyEstimate(mean, _spread(values), n, replicas, seed, model,
                              f_mean=f_mean, replica_values=values)


def estimate_phi(model: ModelSpec, law: DisorderLaw, m_grid, epsilon: float | None,
                 n: int, replicas: int, seed: int) -> PhiCurve:
    """Replica average of the density-constrained free energy on a grid.

    The model's h is ignored by construction (the constrained recursion
    carries only the disorder rewards); epsilon defaults to
    default_epsilon(n, s).
    """
    m_grid = np.asarray(m_grid, dtype=float)
    if len(m_grid) == 0:
        raise ValueError("empty density grid")
    if np.any((m_grid < 0.0) | (m_grid > 1.0)):
        raise ValueError("densities must lie in [0, 1]")
    if epsilon is None:
        epsilon = default_epsilon(n, model.kernel.period)
    if epsilon <= 0.0 or n * epsilon < 1.0:
        raise ValueError("window half-width must be positive with N * epsilon >= 1")
    grid = tuple(float(m) for m in m_grid)
    if model.beta == 0.0:
        row = _phi_task((model, law, n, spawn_seed(seed, 0), grid, epsilon))
        matrix = np.tile(row, (replicas, 1))
    else:
        tasks = [(model, law, n, spawn_seed(seed, r), grid, epsilon)
                 for r in range(replicas)]
        matrix = np.vstack(_map_replicas(_phi_task, tasks))
    feasible = np.isfinite(matrix[0])
    values = np.where(feasible, matrix.mean(axis=0), -math.inf)
    stderr = np.array([_spread(matrix[:, i]) if feasible[i] else 0.0
                       for i in range(len(m_grid))])
    return PhiCurve(m_grid, epsilon, values, stderr, feasible, n, replicas, seed,
                    replica_values=matrix)
