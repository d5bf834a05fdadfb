"""Exact solution of the homogeneous (no-disorder) pinning model.

With no disorder the free energy b = F(0, h) solves

    sum_n K(n) exp(-b n) = exp(h)

when a positive root exists, and is zero otherwise.  The critical point is
h_c(0) = log(1 - K(inf)), and the behavior of b as h tends to h_c from
below is governed by the mean return time Sigma = sum n K(n): a finite
Sigma gives a first-order transition with slope exp(h_c)/Sigma, an infinite
Sigma gives b ~ (h_c - h)^(1/(alpha-1)) up to slowly varying corrections.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ReturnKernel

LOG2 = math.log(2.0)
NEWTON_RTOL = 1e-15
MAX_NEWTON_STEPS = 500
# expm1(-x) is exactly -1.0 for x >= _EXPM1_FLOOR: e^-40 ~ 4.2e-18 is below
# half the spacing of doubles just under 1 (5.55e-17)
_EXPM1_FLOOR = 40.0


@dataclass(frozen=True)
class PureSolution:
    """Root of the homogeneous free-energy equation at a given field h."""

    b: float
    h: float
    residual: float
    localized: bool


@dataclass(frozen=True)
class PureAsymptotics:
    """Classification of the homogeneous transition at h_c(0).

    order is "first" (finite mean return time), "second" or "higher";
    exponent is the predicted power of (h_c - h); slope is the first-order
    coefficient exp(h_c)/Sigma when it applies.  log_corrections marks the
    alpha = 2, Sigma = inf borderline where slowly varying corrections are
    expected but not computed.
    """

    order: str
    exponent: float
    slope: float | None
    mean_return: float
    hc: float
    log_corrections: bool = False


def hc_pure(kernel: ReturnKernel) -> float:
    """Critical field of the homogeneous model: log(1 - K(inf))."""
    return math.log1p(-kernel.defect_mass)


def solve_free_energy_pure(kernel: ReturnKernel, h: float) -> PureSolution:
    """Free energy b = F(0, h) of the homogeneous model on the tabulated law.

    The phase is decided by h < h_c(0) = log(1 - K(inf)): at or above h_c
    the free energy is zero.  Below it b is the positive root of
    sum K(n) exp(-bn) = exp(h), solved in log form with gap = h - h_c < 0:

        log1p(-sum K(n) (-expm1(-bn)) / (1 - K(inf))) = gap   if gap > -log 2,
        log(sum K(n) exp(-bn)) = h                             otherwise.

    The first form resolves gaps far below machine epsilon, where exp(h)
    rounds to exp(h_c); the second keeps relative accuracy when exp(h) is
    small.  Both left sides are the same convex decreasing function of b,
    so Newton's method started at b = 0 increases monotonically to the
    root.  A root below the smallest subnormal is returned as that
    subnormal, so b > 0 exactly when h < h_c.  residual is
    |left side - right side| at the returned b.  A non-finite h is rejected.
    Each Newton step walks the table once in chunks (kernel.chunks), so a
    solve holds three chunk-length buffers beside the kernel's own tables,
    whatever n_max is.  Each chunk's partial of the value's sum and of the
    derivative's is np.add.reduce of its terms, and the partials are summed
    the same way; no sum goes through BLAS, so b and residual depend on
    numpy alone, not on its BLAS library or thread count.  The far form
    combines the chunks in two levels: each chunk's largest exponent and
    its sums scaled by it.  On the near form a chunk whose first b n is at
    least _EXPM1_FLOOR is summed without its terms: each is exactly -K(n),
    so its partials are minus its atom mass (np.add.reduce of its atoms,
    the same rule) and +0.0, the bits its terms would give.
    """
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    hc = hc_pure(kernel)
    if not h < hc:
        return PureSolution(0.0, h, 0.0, False)
    gap = h - hc
    mass = 1.0 - kernel.defect_mass
    near = gap > -LOG2
    density = kernel.density

    def excess(b: float) -> tuple[float, float]:
        # (left side - right side, its derivative in b); parts holds each
        # chunk's (largest exponent, sum of terms, sum of n * terms)
        parts = []
        for atoms, pos, x in kernel.chunks():
            if near and pos[0] * b >= _EXPM1_FLOOR:
                # every term is -K(n), every moment n (-K(n) + K(n)) = +0.0
                parts.append((0.0, -np.add.reduce(density[atoms]), 0.0))
                continue
            if near:
                # K(n) expm1(-bn), then n (that + K(n)) = n K(n) exp(-bn)
                np.multiply(np.expm1(np.multiply(pos, -b, out=x), out=x), density[atoms],
                            out=x)
                total = np.add.reduce(x)
                np.multiply(np.add(x, density[atoms], out=x), pos, out=x)
                parts.append((0.0, total, np.add.reduce(x)))
                continue
            # log-sum-exp, so that exp(h) may lie below the smallest double;
            # an overflow only makes a term -inf, which is exact
            with np.errstate(over="ignore"):
                np.subtract(kernel.log_density[atoms], np.multiply(pos, b, out=x), out=x)
            top = x.max()
            if top == -math.inf:  # the chunk adds nothing
                parts.append((top, 0.0, 0.0))
                continue
            np.exp(np.subtract(x, top, out=x), out=x)
            total = np.add.reduce(x)
            parts.append((top, total, np.add.reduce(np.multiply(x, pos, out=x))))
        tops, totals, moments = np.array(parts).T
        top = tops.max()
        scale = np.exp(tops - top)  # all 1 on the near form
        total = float(np.add.reduce(totals * scale))
        moment = float(np.add.reduce(moments * scale))
        if near:
            return math.log1p(total / mass) - gap, -moment / (mass + total)
        return top + math.log(total) - h, -moment / total

    b = 0.0
    value, slope = excess(b)
    for _ in range(MAX_NEWTON_STEPS):
        step = -value / slope
        b += step
        value, slope = excess(b)
        if value <= 0.0 or step <= NEWTON_RTOL * b:
            break
    else:  # pragma: no cover - monotone Newton converges for valid kernels
        raise RuntimeError("free-energy Newton iteration did not converge")
    if b == 0.0:
        # the root lies below the smallest subnormal; round it up so that
        # b > 0 holds throughout the localized phase
        b = math.ulp(0.0)
        value = excess(b)[0]
    return PureSolution(b, h, abs(value), True)


def pure_asymptotics(kernel: ReturnKernel) -> PureAsymptotics:
    """Classify the homogeneous transition on the kernel's ideal law.

    Sigma is kernel.ideal_mean_return(), and nothing else: finite Sigma is
    first order with slope exp(h_c)/Sigma, infinite Sigma gives the power
    1/(alpha - 1) of the declared tail exponent.  A kernel whose Sigma
    cannot be decided (no closed form, no declared exponent) is the
    ValueError of that method.
    """
    hc = hc_pure(kernel)
    sigma = kernel.ideal_mean_return()
    if math.isfinite(sigma):
        return PureAsymptotics("first", 1.0, math.exp(hc) / sigma, sigma, hc)
    alpha = kernel.alpha
    if alpha == 1.0:
        return PureAsymptotics("higher", math.inf, None, sigma, hc)
    exponent = 1.0 / (alpha - 1.0)
    if alpha == 2.0:
        return PureAsymptotics("second", exponent, None, sigma, hc, log_corrections=True)
    if alpha >= 1.5:
        return PureAsymptotics("second", exponent, None, sigma, hc)
    return PureAsymptotics("higher", exponent, None, sigma, hc)
