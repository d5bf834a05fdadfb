"""Return-time distributions for depinning models.

A return kernel is the discrete law K(n) of the first return to the defect
line, supported on multiples of a period s, together with a defect mass
K(inf) (probability of never returning, > 0 for wetting-type models) and an
optional declared tail exponent alpha.

Kernels are finite tables: atoms live at n = s, 2s, ..., s*n_max.  For laws
with infinite ideal support (simple random walk, geometric) the ideal mass
beyond the truncation horizon is folded into the last atom, so the table is
a normalized law (up to rounding in the atom sum) and the renewal recursion
built on it is exact for the truncated model.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-12
FILE_NORMALIZATION_TOL = 1e-9
_CHUNK = 2**15  # atoms per chunk of a table walk: its buffers stay in L2


class UsageError(ValueError):
    """An input that no run can use, such as a size no path reaches (exit
    code 2 on the command line)."""


@dataclass(frozen=True, eq=False)
class ReturnKernel:
    """Immutable first-return law on s*{1, ..., n_max} plus defect mass.

    density[i] is K(s*(i+1)); values at steps outside s*N are identically
    zero and not stored.  ``family``/``family_params`` identify the ideal
    (untruncated) law when one exists in closed form, so that asymptotic
    quantities can be computed on the ideal model rather than the table.
    """

    density: np.ndarray
    defect_mass: float
    period: int
    alpha: float | None
    n_max: int
    family: str = "file"
    family_params: dict = field(default_factory=dict)

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.ndim != 1 or len(dens) != self.n_max:
            raise ValueError("density must be a 1-d array of length n_max")
        if self.n_max < 1 or self.period < 1:
            raise ValueError("n_max and period must be positive integers")
        # NaN passes through min and max, so no table-length mask is needed
        least, most = dens.min(), dens.max()
        if not (math.isfinite(least) and math.isfinite(most)):
            raise ValueError("kernel entries must be finite")
        if least < 0:
            raise ValueError("kernel entries must be nonnegative")
        if not 0.0 <= self.defect_mass < 1.0:
            raise ValueError("defect mass must lie in [0, 1)")
        total = float(dens.sum()) + self.defect_mass
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"kernel mass {total!r} differs from 1 beyond tolerance")
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError("declared tail exponent must be finite and >= 1")
        dens.flags.writeable = False
        object.__setattr__(self, "density", dens)

    # -- derived tables (computed on demand, cached; kernel itself is immutable)

    def chunks(self):
        """Walk the table in order, at most _CHUNK atoms at a time.

        Yields (atoms, positions, work): atoms is the slice lo:hi of density,
        positions holds s*(lo+1), ..., s*hi (exact integers, built as s*lo
        plus a fixed s*(1, ..., m)) and work is an uninitialized buffer of the
        same length.  positions and work are reused by every chunk, and a
        caller may overwrite both, so a walk holds three chunk-length arrays
        whatever n_max is.
        """
        unit = self.period * np.arange(1.0, min(self.n_max, _CHUNK) + 1.0)
        pos, work = np.empty((2, unit.size))
        for lo in range(0, self.n_max, _CHUNK):
            m = min(_CHUNK, self.n_max - lo)
            yield (slice(lo, lo + m), np.add(unit[:m], self.period * lo, out=pos[:m]),
                   work[:m])

    @cached_property
    def log_density(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            ld = np.log(self.density)
        ld.flags.writeable = False
        return ld

    @cached_property
    def _suffix_mass(self) -> np.ndarray:
        # _suffix_mass[i] = sum of density[i:] ; length n_max + 1.  The full
        # sum is the validated mass 1 - K(inf) itself, not its rounded sum,
        # and no partial suffix may exceed it.
        suf = np.concatenate([np.cumsum(self.density[::-1])[::-1], [0.0]])
        suf[0] = 1.0 - self.defect_mass
        np.minimum(suf, suf[0], out=suf)
        suf.flags.writeable = False
        return suf

    def tail_mass(self, n):
        """P(n < first return < inf) for the tabulated law, K(inf) excluded,
        at an int64 n or at each entry of an integer array: zero beyond the
        truncation horizon, and tail_mass(0) == 1 - K(inf)."""
        return self._suffix_mass[np.clip(np.floor_divide(n, self.period), 0, self.n_max)]

    @cached_property
    def _least_sums(self) -> np.ndarray:
        # least[r]: the least sum of positive-mass atom positions (in periods)
        # that is r modulo the smallest one, a (inf if none is), built by the
        # round-robin algorithm of Boecker and Liptak (Algorithmica 48, 2007)
        atom = self.density > 0.0
        a = int(atom.argmax()) + 1
        atom[a - 1::a] = False  # multiples of a add nothing
        least = np.full(a, math.inf)
        least[0] = 0.0
        for b in (np.flatnonzero(atom) + 1).tolist():
            if b < least[b % a]:  # b is not already a sum of smaller atoms
                # r -> r + b (mod a) runs round d = gcd(a, b) cycles of a/d;
                # over two laps, a running minimum of least - k b gives each
                # residue its least over every start on its cycle
                d = math.gcd(a, b)
                kb = np.arange(2 * a // d) * b
                cyc = (np.arange(d)[:, None] + kb) % a
                run = np.minimum.accumulate(least[cyc] - kb, axis=1) + kb
                least[cyc[:, a // d:]] = run[:, a // d:]
        least.flags.writeable = False
        return least

    def reaches(self, n: int) -> bool:
        """Whether a chain of completed excursions ends exactly at n > 0, that
        is, t = n/s is a sum of positive-mass atom positions: exactly when t >=
        least[t % a] (_least_sums).  The table takes O(a) memory and O(a) numpy
        work per atom not already a sum of smaller ones: one pass of comparisons
        when a = 1 (srw, power, geometric), O(a * atoms) at worst (atoms a to
        2a - 1: 0.06 s at a = 1000, 1 s at 5000); a call then reads one entry."""
        if n < self.period or n % self.period:
            return False
        t = n // self.period
        return t >= float(self._least_sums[t % self._least_sums.size])

    def steps(self, n: int) -> int:
        """n/s, the periods in a size n: a ValueError unless n/s is a positive integer."""
        if n < self.period or n % self.period:
            raise ValueError(f"N={n} is not a positive multiple of the period {self.period}")
        return n // self.period

    def sizes(self, n_list) -> list:
        """The sizes of a run, sorted.  A size at which no chain of the kernel's
        excursions ends (see reaches), or one given twice, is a UsageError."""
        n_list = sorted(n_list)
        if not n_list or n_list[0] < 1:
            raise ValueError("need at least one size, all positive")
        for n in n_list:
            if not self.reaches(n):
                raise UsageError(f"no path of the kernel ends at N={n}")
        if len(set(n_list)) < len(n_list):
            raise UsageError("each size may appear once")
        return n_list

    @cached_property
    def mean_return_steps(self) -> float:
        """sum n K(n) of the tabulated law (always finite): np.add.reduce of
        each chunk's terms, then of the chunk partials."""
        parts = [np.add.reduce(np.multiply(pos, self.density[atoms], out=work))
                 for atoms, pos, work in self.chunks()]
        return float(np.add.reduce(np.array(parts)))

    def ideal_mean_return(self) -> float:
        """Sigma = sum n K(n) of the ideal law, decided here for every kernel.

        Geometric: 1/(1 - p).  Otherwise the declared tail exponent decides:
        none is a ValueError, alpha <= 2 is inf (however finite the table),
        and alpha > 2 is s (1 - K(inf)) zeta(alpha - 1) / zeta(alpha) for a
        power law and the table mean for any other kernel.
        """
        if self.family == "geometric":
            return 1.0 / (1.0 - self.family_params["p"])
        if self.alpha is None:
            raise ValueError("cannot classify: kernel has no declared tail exponent")
        if self.alpha <= 2.0:
            return math.inf
        if self.family == "power":
            c_ideal = (1.0 - self.defect_mass) / _zeta(self.alpha)
            return self.period * c_ideal * _zeta(self.alpha - 1.0)
        return self.mean_return_steps


# B_2k / (2k)!, k = 1..8: the Euler-Maclaurin corrections of _zeta
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)


def _zeta(s: float) -> float:
    """Riemann zeta at real s > 1, by Euler-Maclaurin at 12: math.fsum of n^-s
    (n < 12), the pole term 12^(1-s)/(s-1) and its quotient's exact rounding
    error (near s = 1 the pole is nearly all of zeta), 12^-s/2 and 8 Bernoulli
    corrections: within 0.81 ulp of 40-digit mpmath on 10,000 s in (1.0001, 12]."""
    if s > 54.0:  # zeta(s) - 1 < 2^-s (1 + 2/(s - 1)): below half an ulp of 1
        return 1.0
    d = s - 1.0
    pole = (head := 12.0 ** -d) / d
    (hn, hd), (pn, pd), (dn, dd) = (x.as_integer_ratio() for x in (head, pole, d))
    terms = [n ** -s for n in range(1, 12)]
    terms += [pole, (hn * pd * dd - pn * dn * hd) / (hd * pd * dd) / d, 12.0 ** -s / 2]
    terms += (b * math.gamma(s + 2 * k - 1) / math.gamma(s) * 12.0 ** (1 - s - 2 * k)
              for k, b in enumerate(_BERNOULLI, 1))
    return math.fsum(terms)


def srw_kernel(n_max: int) -> ReturnKernel:
    """First-return law of the +-1 simple random walk, truncated at 2*n_max.

    K(2m) = C(2m, m) / ((2m - 1) 4^m); period 2, tail exponent 3/2, no
    defect mass.  The ideal tail beyond the horizon is folded into the last
    atom.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # K(2m+2) = K(2m) (2m - 1)/(2m + 2), products taken in the order of m;
    # built in place in one table: the denominator is the numerator plus 3,
    # exactly, formed one chunk at a time
    dens = np.arange(-1.0, 2.0 * n_max - 2, 2.0)
    den = np.empty(min(n_max, _CHUNK))
    for lo in range(0, n_max, _CHUNK):
        num = dens[lo:lo + _CHUNK]
        np.divide(num, np.add(num, 3.0, out=den[:num.size]), out=num)
    dens[0] = 0.5
    np.cumprod(dens, out=dens)
    dens[-1] += 1.0 - dens.sum()
    return ReturnKernel(dens, 0.0, 2, 1.5, n_max, family="srw")


def power_kernel(alpha: float, s: int, n_max: int, defect_mass: float = 0.0) -> ReturnKernel:
    """Pure power-law kernel K(sn) = c / n^alpha, n = 1..n_max.

    c is chosen so the atoms carry total mass 1 - defect_mass exactly; no
    folding, so the ratio K(s(n+1))/K(sn) = (n/(n+1))^alpha holds on the
    whole table.
    """
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise ValueError("tail exponent must be finite and >= 1")
    if not 0.0 <= defect_mass < 1.0:
        raise ValueError("defect mass must lie in [0, 1)")
    if n_max < 1 or s < 1:
        raise ValueError("n_max and s must be positive")
    raw = np.arange(1, n_max + 1, dtype=float) ** (-float(alpha))
    dens = raw * ((1.0 - defect_mass) / raw.sum())
    return ReturnKernel(dens, float(defect_mass), s, float(alpha), n_max, family="power")


def geometric_kernel(p: float, n_max: int | None = None) -> ReturnKernel:
    """Geometric kernel K(n) = (1-p) p^(n-1), period 1, closed-form tests.

    Default horizon captures the ideal law to well below the normalization
    tolerance (p^n_max < 1e-18).  The analytic tail is folded into the last
    atom: K(n_max) + sum_{n > n_max} K(n) = p^(n_max - 1), so the fold never
    depends on how the rounded atom sum compares with 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if n_max is None:
        n_max = min(1_000_000, max(8, math.ceil(-18.0 * math.log(10.0) / math.log(p))))
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(1, n_max + 1, dtype=float)
    dens = (1.0 - p) * p ** (n - 1.0)
    dens[-1] = p ** (n_max - 1.0)
    return ReturnKernel(dens, 0.0, 1, None, n_max, family="geometric",
                        family_params={"p": float(p)})


REQUIRED = object()  # the default of a parameter that must be given


def read_pairs(items, where: str) -> dict:
    """{key: value} of ``key=value`` items, stripped; an item without '=' or
    a key given twice is a ValueError that names it and `where`."""
    pairs = {}
    for item in items:
        key, sep, val = (part.strip() for part in item.partition("="))
        if not sep:
            raise ValueError(f"{where}: malformed item {item!r}, not key=value")
        if key in pairs:
            raise ValueError(f"{where} repeats {key!r}")
        pairs[key] = val
    return pairs


def read_lines(path) -> list:
    """The stripped non-blank lines of a UTF-8 text file (a byte-order mark
    is dropped), '#' starting a comment anywhere on a line."""
    with open(path, encoding="utf-8-sig") as fh:
        return [ln for ln in (raw.split("#", 1)[0].strip() for raw in fh) if ln]


def read_params(items, params: dict, where: str) -> dict:
    """{name: converted value or default} of ``key=value`` items, for params
    name -> (converter, default); an unknown name, a missing REQUIRED one or
    a value its converter rejects is a ValueError naming it and `where`."""
    pairs = read_pairs(items, where)
    if unknown := [key for key in pairs if key not in params]:
        raise ValueError(f"{where}: unknown parameter {unknown[0]!r} "
                         f"(it takes {', '.join(params)})")
    out = {}
    for name, (conv, default) in params.items():
        if name not in pairs and default is REQUIRED:
            raise ValueError(f"{where} misses parameter {name!r}")
        try:
            out[name] = conv(pairs[name]) if name in pairs else default
        except ValueError as exc:
            raise ValueError(f"{where}: bad value {pairs[name]!r} for {name!r} "
                             f"({exc})") from None
    return out


_HEADER = {"s": (int, REQUIRED), "k_inf": (float, REQUIRED), "alpha": (float, REQUIRED)}


def kernel_from_file(path) -> ReturnKernel:
    """Load a kernel from the CSV schema, read by read_lines.

    Header line ``s=<int>,k_inf=<float>,alpha=<float>`` (read_params) then
    lines ``n,K(n)`` with n ascending multiples of s (omitted atoms are zero;
    ``alpha=nan`` means undeclared; every K(n) finite and nonnegative).
    Total mass must match 1 - k_inf to within 1e-9 or the file is rejected;
    the accepted table is rescaled to machine-exact normalization.
    """
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty kernel file")
    s, k_inf, alpha = read_params(lines[0].split(","), _HEADER, f"{path} header").values()
    if s < 1:
        raise ValueError(f"{path}: period must be positive")
    if not 0.0 <= k_inf < 1.0:
        raise ValueError(f"{path}: k_inf must lie in [0, 1)")

    atoms = []
    last_n = 0
    for ln in lines[1:]:
        try:
            n_txt, k_txt = ln.split(",")
            n, k = int(n_txt), float(k_txt)
        except ValueError:
            raise ValueError(f"{path}: malformed data line {ln!r}") from None
        if n % s != 0 or n <= 0:
            raise ValueError(f"{path}: atom at n={n} is not a positive multiple of s={s}")
        if n <= last_n:
            raise ValueError(f"{path}: atoms must be strictly ascending (n={n})")
        if not math.isfinite(k):
            raise ValueError(f"{path}: non-finite entry K({n})={k} on line {ln!r}")
        if k < 0:
            raise ValueError(f"{path}: negative entry K({n})={k}")
        atoms.append((n, k))
        last_n = n
    if not atoms:
        raise ValueError(f"{path}: no atoms")

    n_max = last_n // s
    dens = np.zeros(n_max)
    for n, k in atoms:
        dens[n // s - 1] = k
    total = dens.sum()
    if abs(total + k_inf - 1.0) > FILE_NORMALIZATION_TOL:
        raise ValueError(
            f"{path}: mass {float(total + k_inf)!r} violates normalization beyond 1e-9")
    if total > 0:
        dens *= (1.0 - k_inf) / total
    try:
        return ReturnKernel(dens, k_inf, s, None if math.isnan(alpha) else alpha, n_max,
                            family="file")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# family -> (constructor, its parameters in argument order); the constructor
# is looked up when called, so that bench/tracing.py's rebinding of it counts
_FAMILIES = {
    "geometric": ("geometric_kernel", {"p": (float, REQUIRED), "n_max": (int, None)}),
    "srw": ("srw_kernel", {"n_max": (int, REQUIRED)}),
    "power": ("power_kernel", {"alpha": (float, REQUIRED), "s": (int, 1),
                               "n_max": (int, REQUIRED), "defect": (float, 0.0)}),
}


def parse_kernel_spec(text: str) -> ReturnKernel:
    """The kernel of ``family:key=value,...`` (see _FAMILIES) or ``file:PATH``."""
    name, _, rest = text.partition(":")
    if name == "file":
        if not rest:
            raise ValueError("file kernel needs a path: file:PATH")
        return kernel_from_file(rest)
    if name not in _FAMILIES:
        raise ValueError(f"unknown kernel family {name!r}")
    make, params = _FAMILIES[name]
    values = read_params(rest.split(",") if rest else [], params, f"kernel spec {text!r}")
    return globals()[make](*values.values())
