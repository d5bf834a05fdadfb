"""Replica-averaged free-energy and constrained-curve estimation.

Replicas are IID disorder realizations; replica r of a run with master seed
S draws its charges from the child seed spawn_seed(S, r), one chain read at
every field and size, so results do not depend on how replicas are
scheduled.  The replicas are cut into contiguous blocks, one per worker
(their number capped by DEPIN_THREADS, the CPUs this process may use and
the replica count).  A process pool starts, and concurrent.futures is
imported, only when an estimate has beta > 0 and more than one worker;
otherwise the one block runs in this process.  A block of replicas, pinning
or copolymer, runs through the one renewal core together, in runs of at
most BLOCK_CELLS charges so that a worker's memory does not grow with the
replica count.  An estimate takes one model and a list of fields; a row of
the core is a (field, replica) pair, so the fields share each replica's
disorder row and cost one build, not one per field.  A free-energy estimate
is one set of arrays: the replica values, shape (replicas, fields, sizes),
and their mean and standard error, shape (fields, sizes).  Every mean and
standard error, fe's and phi's alike, is taken over one contiguous copy of
its cell's replica values in replica order, which makes every estimate
bit-reproducible for identical inputs regardless of the worker count.

The disorder stream and the recursion are both prefix-consistent: log Z at
a size N is the same number whether the chain is built to N or beyond.  So
one build at the largest size serves every size, and with beta = 0 (inert
disorder) every replica too.

Error bars are plain standard errors over replicas; jackknife resampling is
reserved for derived quantities (see the analysis module).
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .disorder import DisorderLaw, sample_disorder, spawn_seed
from .engine import (ModelSpec, _field_column, constrained_window,
                     log_partition_constrained, log_partition_copolymer,
                     log_partition_pinning)


def worker_count() -> int:
    """Worker processes for replica builds: DEPIN_THREADS, at most the CPUs
    this process may use (its affinity set where the OS has one).

    An unset or empty DEPIN_THREADS means all of them; any other value must
    be an integer >= 1 (ValueError otherwise).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    env = os.environ.get("DEPIN_THREADS")
    if not env:
        return cores
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"DEPIN_THREADS must be an integer >= 1, not {env!r}")
    return min(value, cores)


def _map_replicas(fn, args: tuple, replicas: int, beta: float) -> np.ndarray:
    """The rows of replicas 0..replicas-1, stacked in replica order, from
    fn(args + (lo, hi)) on contiguous replica blocks lo..hi-1, one block
    per worker and in parallel when allowed.  With beta = 0 the disorder is
    inert, and the one build of replica 0 serves every replica."""
    if beta == 0.0:
        return np.repeat(fn(args + (0, 1)), replicas, axis=0)
    workers = max(1, min(worker_count(), replicas))
    edges = [replicas * i // workers for i in range(workers + 1)]
    tasks = [args + (lo, hi) for lo, hi in zip(edges, edges[1:])]
    if workers == 1:
        return fn(tasks[0])
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(fn, tasks)))


# disorder cells (rows x N) sampled and recursed together in one worker: a
# larger block is cut into runs of rows under this budget
BLOCK_CELLS = 1 << 20


def _fe_block(args) -> np.ndarray:
    """(1/N) log Z of replicas lo..hi-1 for every field and size, shape
    (replicas, fields, sizes).  Rows are (field, replica) pairs in replica
    order, pair k being field k % F of replica k // F for F fields; every
    size reads the one build at the largest N."""
    fields, model, law, n_list, seed, lo, hi = args
    nf = len(fields)
    sizes = np.array(n_list)
    top = int(sizes.max())
    # looked up at call time, so that a wrapper bound to the name sees the call
    recursion = (log_partition_pinning if model.kind == "pinning"
                 else log_partition_copolymer)
    out = np.empty((hi - lo, nf, len(n_list)))
    # whole replicas per run when they fit; otherwise a replica's fields are
    # cut over runs, and each run samples the replicas it touches
    step = max(1, BLOCK_CELLS // top)
    if step >= nf:
        step -= step % nf
    for a in range(lo * nf, hi * nf, step):
        k = np.arange(a, min(hi * nf, a + step))
        reps = range(k[0] // nf, k[-1] // nf + 1)
        sample = np.empty((len(reps), top))
        for r in reps:
            sample[r - reps[0]] = sample_disorder(law, top, spawn_seed(seed, r)).values
        # one replica's rows all read its one chain: a view, not a copy per field
        block = (np.broadcast_to(sample[0], (len(k), top)) if len(reps) == 1
                 else sample[k // nf - reps[0]])
        logz = recursion(model, block, top, fields[k % nf])
        out[k // nf - lo, k % nf] = logz[:, sizes // model.kernel.period] / sizes
    return out


def _phi_block(args) -> np.ndarray:
    """(1/N) log of the window masses of replicas lo..hi-1 at every density,
    shape (replicas, densities)."""
    model, law, n, m_grid, epsilon, seed, lo, hi = args
    rows = []
    for r in range(lo, hi):
        row = log_partition_constrained(
            model, sample_disorder(law, n, spawn_seed(seed, r)), n)
        rows.append([constrained_window(row, n, m, epsilon) / n for m in m_grid])
    return np.array(rows)


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Replica mean and standard error of (1/N) log Z on a grid of fields
    and sizes: mean and stderr have shape (fields, sizes), and
    replica_values, replica r's (1/N) log Z, shape (replicas, fields,
    sizes), in the order of the fields and sizes given.

    For a copolymer model mean is the excess free energy (the quantity that
    vanishes in the delocalized phase); the plain growth rate is mean + h/2,
    up to beta/2 times the sample mean of the disorder.
    """

    mean: np.ndarray
    stderr: np.ndarray
    replica_values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PhiCurve:
    """Constrained free-energy estimates over a grid of contact densities.

    values[i] averages (1/N) log of the partition mass with rewarded-site
    density within m_grid[i] +- epsilon; infeasible windows (no admissible
    count) are -inf with feasible[i] False.  Feasibility depends only on
    the kernel support, never on the disorder draw.  replica_values has
    shape (replicas, densities).
    """

    m_grid: np.ndarray
    epsilon: float
    values: np.ndarray
    stderr: np.ndarray
    feasible: np.ndarray
    replica_values: np.ndarray = field(repr=False)


def default_epsilon(n: int, s: int) -> float:
    """Window half-width max(1/sqrt(N), 2s/N): nonempty yet shrinking with N."""
    return max(1.0 / math.sqrt(n), 2.0 * s / n)


def _stats(matrix: np.ndarray):
    """Mean and standard error over replicas (axis 0) of every cell, each
    by _mean_stderr from one contiguous copy of that cell's replica values."""
    cells = np.ascontiguousarray(np.moveaxis(matrix, 0, -1))
    pairs = np.array([_mean_stderr(v) for v in cells.reshape(-1, len(matrix))])
    return pairs[:, 0].reshape(cells.shape[:-1]), pairs[:, 1].reshape(cells.shape[:-1])


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    # a constant row (beta = 0, or log Z = -inf for want of a path) is its
    # value with no spread, which the rounded mean and std of equal doubles
    # need not give back
    if values.min() == values.max():
        return float(values[0]), 0.0
    # squared deviations overflow from about 1e154 on; dividing by a power
    # of two is exact, and values below the cut-off are left as they are
    top = float(np.abs(values).max())
    scale = 2.0 ** math.frexp(top)[1] if top > 1e150 else 1.0
    return (float(values.mean()),
            float((values / scale).std(ddof=1) * scale / math.sqrt(len(values))))


def estimate_free_energy(model: ModelSpec, law: DisorderLaw, fields, n_list,
                         replicas: int, seed: int) -> FreeEnergyEstimate:
    """Average (1/N) log Z of model over independent disorder replicas, at
    each field of fields and each size of n_list.

    Replica r reads the one disorder chain spawn_seed(seed, r) at every
    field and size, so a replica's sizes are prefixes of one chain and its
    fields share its disorder.  Each (field, size) cell equals that of its
    own one-field, one-size estimate bit for bit: the fields are rows of one
    build, and every size takes its log Z from that build at the largest N.
    With beta = 0 the disorder is inert, so a single build serves all
    replicas and sizes.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    fields, n_list = list(fields), list(n_list)
    if not fields:
        raise ValueError("need at least one field")
    if not n_list:
        raise ValueError("need at least one size")
    for n in n_list:
        model.kernel.steps(n)
    fields = _field_column(model, fields, len(fields))  # checked before any build
    matrix = _map_replicas(_fe_block, (fields, model, law, n_list, seed), replicas,
                           model.beta)
    return FreeEnergyEstimate(*_stats(matrix), matrix)


def estimate_phi(model: ModelSpec, law: DisorderLaw, m_grid, epsilon: float | None,
                 n: int, replicas: int, seed: int) -> PhiCurve:
    """Replica average of the density-constrained free energy on a grid.

    No field enters (the constrained recursion carries only the disorder
    rewards); epsilon defaults to default_epsilon(n, s).
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    model.kernel.steps(n)  # before default_epsilon divides by n
    m_grid = np.asarray(m_grid, dtype=float)
    if len(m_grid) == 0:
        raise ValueError("empty density grid")
    if not np.all((m_grid >= 0.0) & (m_grid <= 1.0)):
        raise ValueError("densities must lie in [0, 1]")
    if epsilon is None:
        epsilon = default_epsilon(n, model.kernel.period)
    if not (epsilon > 0.0 and n * epsilon >= 1.0):
        raise ValueError("window half-width must be positive with N * epsilon >= 1")
    grid = tuple(float(m) for m in m_grid)
    matrix = _map_replicas(_phi_block, (model, law, n, grid, epsilon, seed), replicas,
                           model.beta)
    # an infeasible density is -inf in every replica: _stats gives it -inf and 0
    return PhiCurve(m_grid, epsilon, *_stats(matrix), np.isfinite(matrix[0]), matrix)
