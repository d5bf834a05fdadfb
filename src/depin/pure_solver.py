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
    Its two work arrays, each the length of the table, are allocated once
    per solve and reused across Newton steps, with the same operations in
    the same order at every step, so b and residual do not depend on the
    reuse.
    """
    if not math.isfinite(h):
        raise ValueError("h must be finite")
    hc = hc_pure(kernel)
    if not h < hc:
        return PureSolution(0.0, h, 0.0, False)
    gap = h - hc
    mass = 1.0 - kernel.defect_mass
    near = gap > -LOG2
    steps = kernel.steps
    # work arrays shared by every Newton step; expm1 and exp read one and
    # write the other, never in place
    x, e = np.empty_like(steps), np.empty_like(steps)

    def excess(b: float) -> tuple[float, float]:
        # (left side - right side, its derivative in b)
        if near:
            np.expm1(np.multiply(steps, -b, out=x), out=e)
            deficit = -float(np.dot(kernel.density, e))
            np.multiply(np.add(e, 1.0, out=x), kernel.density, out=x)
            moment = float(np.dot(steps, x))
            return math.log1p(-deficit / mass) - gap, -moment / (mass - deficit)
        # log-sum-exp, so that exp(h) may lie below the smallest double; an
        # overflow only makes a term -inf, which is exact
        with np.errstate(over="ignore"):
            np.subtract(kernel.log_density, np.multiply(steps, b, out=x), out=x)
        top = x.max()
        np.exp(np.subtract(x, top, out=x), out=e)
        tilted = float(e.sum())
        return top + math.log(tilted) - h, -float(np.dot(steps, e)) / tilted

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

    Requires either a family closed form or a declared tail exponent so
    that convergence of the mean return time can be decided: a tabulated
    kernel is read as a truncation of a law with the declared exponent, so
    its mean return time counts as infinite when alpha <= 2 even though
    the table itself is finite.
    """
    hc = hc_pure(kernel)
    if kernel.family == "file":
        if kernel.alpha is None:
            raise ValueError("cannot classify: kernel has no declared tail exponent")
        sigma = kernel.mean_return_steps if kernel.alpha > 2.0 else math.inf
    else:
        sigma = kernel.ideal_mean_return()
    if math.isfinite(sigma):
        return PureAsymptotics("first", 1.0, math.exp(hc) / sigma, sigma, hc)
    alpha = kernel.alpha
    if alpha is None:
        raise ValueError("cannot classify: infinite mean return but no tail exponent")
    if alpha == 1.0:
        return PureAsymptotics("higher", math.inf, None, sigma, hc)
    exponent = 1.0 / (alpha - 1.0)
    if alpha == 2.0:
        return PureAsymptotics("second", exponent, None, sigma, hc, log_corrections=True)
    if alpha >= 1.5:
        return PureAsymptotics("second", exponent, None, sigma, hc)
    return PureAsymptotics("higher", exponent, None, sigma, hc)
