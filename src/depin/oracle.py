"""Brute-force partition functions used as ground truth in tests.

Everything here is exponential-time enumeration in the linear domain with
exactly rounded accumulation (math.fsum), guarded to desk scale.  The
pinning evaluators walk every composition of N into kernel atoms; the
copolymer evaluator walks every +-1 bridge and scores the signed-site
Hamiltonian directly, which keeps it independent of the excursion algebra
used by the recursion engine.  verify_battery compares the two.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSample, disorder_law, sample_disorder, spawn_seed
from .engine import (ModelSpec, log_partition_constrained, log_partition_copolymer,
                     log_partition_pinning)
from .kernel import ReturnKernel, srw_kernel

PINNING_GUARD = 24
COPOLYMER_GUARD = 14
CONSTRAINED_GUARD = 20


@dataclass(frozen=True)
class OracleResult:
    value: float
    configuration_count: int


def _atoms(kernel: ReturnKernel, n: int):
    """(length, K(length)) pairs with positive mass, lengths <= n."""
    out = []
    for i, k in enumerate(kernel.density):
        step = kernel.period * (i + 1)
        if step > n:
            break
        if k > 0.0:
            out.append((step, float(k)))
    return out


def brute_force_pinning(kernel: ReturnKernel, omega: DisorderSample,
                        beta: float, h: float, n: int) -> OracleResult:
    """Sum over all excursion decompositions of the pinned model at length n."""
    if n > PINNING_GUARD:
        raise ValueError(f"N={n} exceeds the brute-force guard {PINNING_GUARD}")
    atoms = _atoms(kernel, n)
    w = omega.values
    weights = []

    def rec(pos: int, acc: float):
        for step, k in atoms:
            nxt = pos + step
            if nxt > n:
                break
            wgt = acc * k * math.exp(beta * w[nxt - 1] - h)
            if nxt == n:
                weights.append(wgt)
            else:
                rec(nxt, wgt)

    rec(0, 1.0)
    return OracleResult(math.fsum(weights), len(weights))


def brute_force_copolymer(kernel_srw: ReturnKernel, omega: DisorderSample,
                          beta: float, h: float, n: int) -> OracleResult:
    """Enumerate +-1 bridges of length n and score the signed Hamiltonian.

    Each bridge carries exp((1/2) sum (beta w_j + h) sign(S_j)) with
    sign(0) = +1 and path probability 2^-n; the result is converted to the
    below-interface normalization (divide by exp((1/2) sum (beta w_j + h)))
    so it compares directly with the excursion recursion.
    """
    if n > COPOLYMER_GUARD:
        raise ValueError(f"N={n} exceeds the brute-force guard {COPOLYMER_GUARD}")
    if kernel_srw.period != 2:
        raise ValueError("copolymer oracle expects a simple-random-walk kernel (period 2)")
    charge = beta * omega.values[:n] + h
    weights = []
    count = 0
    for steps in itertools.product((1, -1), repeat=n):
        s_path = np.cumsum(steps)
        if s_path[-1] != 0:
            continue
        count += 1
        sgn = np.where(s_path < 0, -1.0, 1.0)
        weights.append(math.exp(0.5 * float(np.dot(charge, sgn))) * 0.5**n)
    z_sign = math.fsum(weights)
    z_delta = z_sign * math.exp(-0.5 * float(charge.sum()))
    return OracleResult(z_delta, count)


def brute_force_constrained(kernel: ReturnKernel, omega: DisorderSample,
                            beta: float, n: int, kind: str = "pinning") -> dict[int, float]:
    """Composition sum grouped by rewarded-site count j (coupling h absent).

    For pinning j is the number of parts; for the copolymer each part with
    a nonempty interior branches into an above assignment (count 0) and a
    below assignment (count k-1, charged by the interior disorder), both at
    half the kernel mass.
    """
    if n > CONSTRAINED_GUARD:
        raise ValueError(f"N={n} exceeds the brute-force guard {CONSTRAINED_GUARD}")
    if kind not in ("pinning", "copolymer"):
        raise ValueError(f"unknown model kind {kind!r}")
    atoms = _atoms(kernel, n)
    w = omega.values
    prefix = [0.0]
    for i in range(n):
        prefix.append(prefix[-1] + float(w[i]))
    buckets: dict[int, list] = {}

    def put(j: int, wgt: float):
        buckets.setdefault(j, []).append(wgt)

    def rec_pin(pos: int, acc: float, parts: int):
        for step, k in atoms:
            nxt = pos + step
            if nxt > n:
                break
            wgt = acc * k * math.exp(beta * w[nxt - 1])
            if nxt == n:
                put(parts + 1, wgt)
            else:
                rec_pin(nxt, wgt, parts + 1)

    def rec_cop(pos: int, acc: float, j: int):
        for step, k in atoms:
            nxt = pos + step
            if nxt > n:
                break
            branches = [(acc * k, j)] if step == 1 else [
                (acc * k * 0.5, j),
                (acc * k * 0.5 * math.exp(-beta * (prefix[nxt - 1] - prefix[pos])),
                 j + step - 1),
            ]
            for wgt, jj in branches:
                if nxt == n:
                    put(jj, wgt)
                else:
                    rec_cop(nxt, wgt, jj)

    if kind == "pinning":
        rec_pin(0, 1.0, 0)
    else:
        rec_cop(0, 1.0, 0)
    return {j: math.fsum(vals) for j, vals in sorted(buckets.items())}


def verify_battery(kernel: ReturnKernel, n_cap: int, draws: int, seed: int):
    """Cross-check the recursions against brute force to 1e-12 relative.

    Runs `draws` gaussian instances per recursion, on sizes up to n_cap:
    pinning and count-resolved pinning on `kernel`, the copolymer on the
    SRW kernel (its oracle walks +-1 bridges).  Yields (name, ok, detail)
    with detail "passed/draws".
    """
    law = disorder_law("gaussian")
    kern_srw = srw_kernel(16)
    rel = 1e-12

    def pin_case(i):
        om = sample_disorder(law, 16, spawn_seed(seed, i))
        beta = 0.25 * (i % 8)
        h = -2.0 + 0.37 * (i % 11)
        n = min(n_cap, 16)
        got = log_partition_pinning(ModelSpec("pinning", beta, h, kernel), om, n)[-1]
        want = math.log(brute_force_pinning(kernel, om, beta, h, n).value)
        return abs(got - want) <= rel * max(1.0, abs(want))

    def cop_case(i):
        om = sample_disorder(law, 14, spawn_seed(seed, 1000 + i))
        beta = 0.25 * (i % 8)
        h = 0.3 * (i % 5)
        n = min(n_cap - n_cap % 2, 14)
        model = ModelSpec("copolymer", beta, h, kern_srw)
        got = log_partition_copolymer(model, om, n)[-1]
        want = math.log(brute_force_copolymer(kern_srw, om, beta, h, n).value)
        return abs(got - want) <= rel * max(1.0, abs(want))

    def con_case(i):
        om = sample_disorder(law, 16, spawn_seed(seed, 2000 + i))
        beta = 0.25 * (i % 8)
        n = min(n_cap, 16)
        row = log_partition_constrained(ModelSpec("pinning", beta, 0.0, kernel), om, n)
        want = brute_force_constrained(kernel, om, beta, n)
        return all(abs(math.exp(row[j]) - val) <= rel * val
                   for j, val in want.items())

    for name, case in (("pinning", pin_case), ("copolymer", cop_case),
                       ("constrained", con_case)):
        ok = sum(1 for i in range(draws) if case(i))
        yield name, ok == draws, f"{ok}/{draws}"
