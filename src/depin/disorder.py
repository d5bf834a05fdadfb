"""IID disorder: laws, reproducible sampling, entropy functionals.

Three unit-variance centered families are supported: ``gaussian``,
``uniform`` (on [-sqrt(3), sqrt(3)]) and ``rademacher`` (+-1).  Each law
carries one constant, the one source of its smoothing-envelope constant c:
the bounded families their bound M, the gaussian its shift-entropy constant
R = 1/2 (relative entropy of a translated copy is R x^2 per coordinate).

Sampling is counter-based and splittable: a Philox stream keyed by a 64-bit
seed supplies raw counters, child seeds for replicas are derived from the
master seed with a splitmix64 hash, and the gaussian transform is a fixed
rational approximation of the normal quantile function (Wichura's AS241),
so sequences are bit-identical across platforms and scheduling orders.
"""

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

SQRT3 = math.sqrt(3.0)


def spawn_seed(master: int, index: int) -> int:
    """index-th 64-bit child seed of a master seed (splitmix64 stream).

    The master seed is read whole, so it must lie in [0, 2^64): one outside
    would alias one inside (ValueError)."""
    if not 0 <= master <= _MASK64:
        raise ValueError(f"master seed {master} is not in [0, 2**64)")
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# AS241 rational approximations for the standard normal quantile (double
# precision; Wichura 1988).  Coefficients listed from degree 0 upward.
_A = [3.3871328727963666080, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3]
_B = [1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
      2.8729085735721942674e4, 5.2264952788528545610e3]
_C = [1.42343711074968357734, 4.63033784615654529590, 5.76949722146069140550,
      3.64784832476320460504, 1.27045825245236838258, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4]
_D = [1.0, 2.05319162663775882187, 1.67638483018380384940,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9]
_E = [6.65790464350110377720, 5.46378491116411436990, 1.78482653991729133580,
      2.96560571828504891230e-1, 2.65321895265761230930e-2,
      1.24266094738807843860e-3, 2.71155556874348757815e-5,
      2.01033439929228813265e-7]
_F = [1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15]


def _ratpoly(coeffs_num, coeffs_den, r):
    return np.polyval(coeffs_num[::-1], r) / np.polyval(coeffs_den[::-1], r)


def normal_quantile(p):
    """Standard normal quantile by the AS241 rational approximation."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    r = 0.180625 - q[central] ** 2
    out[central] = q[central] * _ratpoly(_A, _B, r)

    tails = ~central
    if np.any(tails):
        pt = np.minimum(p[tails], 1.0 - p[tails])
        r = np.sqrt(-np.log(pt))
        near = r <= 5.0
        val = np.empty_like(r)
        val[near] = _ratpoly(_C, _D, r[near] - 1.6)
        val[~near] = _ratpoly(_E, _F, r[~near] - 5.0)
        out[tails] = np.where(q[tails] < 0.0, -val, val)
    return out


@dataclass(frozen=True)
class DisorderLaw:
    """A centered, unit-variance IID charge law.

    bound is the a.s. bound M (bounded families), entropy_constant the
    translation-entropy constant R (continuous unbounded families); exactly
    one of the two is set.
    """

    family: str
    bound: float | None = None
    entropy_constant: float | None = None

    # closed forms for the exponentially tilted law; z(u) = E exp(u w)

    def log_mgf(self, u: float) -> float:
        if self.family == "gaussian":
            return 0.5 * u * u
        if self.family == "rademacher":
            return _log_cosh(u)
        x = SQRT3 * u
        if abs(x) < 0.02:
            x2 = x * x
            return x2 / 6.0 - x2 * x2 / 180.0
        return _log_sinh(abs(x)) - math.log(abs(x))

    def tilted_mean(self, u: float) -> float:
        if self.family == "gaussian":
            return u
        if self.family == "rademacher":
            return math.tanh(u)
        x = SQRT3 * u
        if abs(x) < 0.02:
            return SQRT3 * (x / 3.0 - x**3 / 45.0 + 2.0 * x**5 / 945.0)
        return SQRT3 * (1.0 / math.tanh(x) - 1.0 / x)


def _log_cosh(u: float) -> float:
    a = abs(u)
    if a < 1.0:
        # cosh a = 1 + 2 sinh(a/2)^2, free of cancellation for small a
        return math.log1p(2.0 * math.sinh(0.5 * a) ** 2)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def _log_sinh(a: float) -> float:
    # a > 0
    return a + math.log1p(-math.exp(-2.0 * a)) - math.log(2.0)


_LAWS = {
    "gaussian": DisorderLaw("gaussian", entropy_constant=0.5),
    "uniform": DisorderLaw("uniform", bound=SQRT3),
    "rademacher": DisorderLaw("rademacher", bound=1.0),
}


def disorder_law(name: str) -> DisorderLaw:
    """Look up a law by its spec string: gaussian, uniform or rademacher."""
    try:
        return _LAWS[name]
    except KeyError:
        raise ValueError(f"unknown disorder law {name!r}") from None


@dataclass(frozen=True)
class DisorderSample:
    """A realized charge sequence w_1..w_n with its generating seed."""

    values: np.ndarray
    seed: int
    law: DisorderLaw

    def __post_init__(self):
        self.values.flags.writeable = False


def _uniform01(seed: int, n: int) -> np.ndarray:
    # counter-based raw stream; (k + 1/2) * 2^-53 keeps u strictly inside (0,1)
    raw = np.random.Philox(key=seed & _MASK64).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def sample_disorder(law: DisorderLaw, n: int, seed: int) -> DisorderSample:
    """Draw n IID charges; deterministic in (law, n, seed)."""
    if n < 1:
        raise ValueError("sample length must be positive")
    u = _uniform01(seed, n)
    if law.family == "gaussian":
        values = normal_quantile(u)
    elif law.family == "uniform":
        values = SQRT3 * (2.0 * u - 1.0)
    elif law.family == "rademacher":
        values = np.where(u >= 0.5, 1.0, -1.0)
    else:  # pragma: no cover
        raise ValueError(f"unknown disorder law {law.family!r}")
    return DisorderSample(values, seed, law)


def shift_entropy(law: DisorderLaw, x: float, ell: int) -> float:
    """Relative entropy of translating the first ell coordinates by x.

    Equals ell * R * x^2 with R the law's shift-entropy constant (1/2 for
    the gaussian).  A law without one is rejected (ValueError): translating
    the rademacher law gives infinite entropy and translating the uniform
    law moves mass outside the support.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if law.entropy_constant is None:
        raise ValueError(f"shift entropy undefined for the {law.family} law")
    return ell * law.entropy_constant * x * x


def tilt_entropy(law: DisorderLaw, u: float, ell: int) -> float:
    """Relative entropy of exponentially tilting the first ell coordinates.

    Equals ell * (u xi(u) - log z(u)) with z the moment generating function
    and xi the tilted mean (law.tilted_mean).
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    return ell * (u * law.tilted_mean(u) - law.log_mgf(u))


@dataclass(frozen=True)
class SmoothingConstants:
    """The envelope F(beta, h) <= alpha * c * (h_c(beta) - h)^2; route is
    how c was bounded, "shift" or "tilt" (see smoothing_constant)."""

    alpha: float
    c: float
    route: str

    def envelope(self, gap: float) -> float:
        """alpha * c * gap^2, the free-energy bound at distance gap below h_c."""
        return self.alpha * self.c * gap * gap


def smoothing_constant(beta: float, alpha: float, law: DisorderLaw) -> SmoothingConstants:
    """Envelope constant c = 1 / (4 C) for beta > 0 and alpha >= 1
    (ValueError otherwise, NaN included, and where c overflows: from beta
    near 89 / M on the tilt route), C from the law's own constant on both
    routes: "shift", C = beta^2 / (512 R) for a shift-entropy constant R;
    "tilt" for a law of bound M, C = c0^2 beta^2 / (512 M^2 / 8) with
    c0 = exp(-4 M beta) / 8 and M^2 / 8 a second-moment bound in place of R.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")
    if law.entropy_constant is not None:
        C, route = beta * beta / (512.0 * law.entropy_constant), "shift"
    else:
        M = law.bound
        c0 = math.exp(-4.0 * M * beta) / 8.0
        r_tilt = M * M / 8.0
        C, route = c0 * c0 * beta * beta / (512.0 * r_tilt), "tilt"
    if not (C > 0 and (c := 1.0 / (4.0 * C)) < math.inf):
        raise ValueError(f"beta={beta!r} is out of range of the {route}-route "
                         "envelope constant, which overflows")
    return SmoothingConstants(alpha, c, route)
