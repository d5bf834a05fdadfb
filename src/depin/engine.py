"""Exact log-domain recursions for quenched partition functions.

All partition functions are computed by decomposing the path into its
excursions away from the defect line.  With Z_0 = 1 and atoms K(k) on
k = s, 2s, ..., the pinned-endpoint recursion is

    Z_n = exp(beta w_n - h) * sum_k K(k) Z_{n-k},

evaluated entirely in the log domain with a running-maximum log-sum-exp,
since Z spans thousands of orders of magnitude at large N.  Variants: a
free-endpoint value (last excursion unfinished), the copolymer form (each
completed excursion is above or below the interface; the sites strictly
below carry weight exp(-(beta w + h)) each), and a contact-count-resolved
recursion that fixes the number of rewarded sites instead of weighting it
by h.  A count-resolved build keeps only the last w = min(N/s, n_max) rows
of its (N/s + 1)-row recursion, each once, in a ring, so its memory is
O(w * J) for J counts, and returns only the final row.

The pinned-endpoint and copolymer recursions share one renewal core, which
also steps a block of rows at once, bit for bit a set of single builds.  A
row is a (field, replica) pair: a disorder row of a 2-D array, with its own
field h (a model has none: each build takes one field or a column).  A
step copies the block's window into one buffer and works there in place.
Couplings under which log Z could leave the floating-point range are
rejected.

The copolymer split term log1p(e^x) - log 2 is exact, not approximated: it
is evaluated only for |x| < SATURATION = 40 and is max(x, 0) - log 2
elsewhere, which is the same double (the proof is at SATURATION).

Every result is a deterministic function of (model, disorder sample, N), not
of the ufunc buffer (see WIDE_ROW); builds share no state and run concurrently.
"""

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSample
from .kernel import ReturnKernel

LOG2 = math.log(2.0)
# for |x| >= SATURATION, np.logaddexp(0, x) - LOG2 == max(x, 0) - LOG2 in
# doubles: for x <= -40, log1p(e^x) <= e^-40 ~ 4.2e-18 is below half an ulp
# of LOG2 (5.55e-17), so the difference rounds to -LOG2; for x >= 40,
# log1p(e^-x) is below half an ulp of x (>= 3.55e-15), so x + log1p(e^-x)
# rounds to x.  Some x in [-38, -37] break the identity: the margin is thin.
SATURATION = 40.0
# rows of WIDE_ROW cells or more step under a ufunc buffer of WIDE_BUFFER (a
# multiple of 16, as numpy 2 asks), so broadcast passes run in place, not chunk
# by chunk across rows; no result changes.  Time ratio of pinning builds (R = 16,
# N = 4096, one core, numpy 2.4.6) at w = 64 .. 1024: 1.05 1.03 0.96 0.87 0.81.
WIDE_ROW, WIDE_BUFFER = 256, 64

@contextmanager
def _row_buffer(cells: int):  # restores the caller's size on numpy 1 too
    old = np.setbufsize(WIDE_BUFFER if cells >= WIDE_ROW else np.getbufsize())
    try:
        yield
    finally:
        np.setbufsize(old)

@dataclass(frozen=True)
class ModelSpec:
    """A depinning model without its field: kind, disorder strength, return law."""

    kind: str
    beta: float
    kernel: ReturnKernel

    def __post_init__(self):
        if self.kind not in ("pinning", "copolymer"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


def logsumexp_1d(values: np.ndarray) -> float:
    """Stable log of a sum of exponentials; -inf for an empty or all -inf
    input, NaN for one holding a NaN."""
    if len(values) == 0:
        return -math.inf
    m = values.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(values - m).sum()))


def _check_inputs(model: ModelSpec, length: int, n: int) -> int:
    s = model.kernel.period
    if n < s or n % s != 0:
        raise ValueError(f"N={n} is not a positive multiple of the period {s}")
    if length < n:
        raise ValueError(f"disorder sample of length {length} shorter than N={n}")
    return n // s


def _check_range(model: ModelSpec, values: np.ndarray, steps: int, h_max: float) -> None:
    # each of the `steps` charged sites moves log Z by at most the charge
    # beta max|w| + |h| (h_max: the largest |h| of the rows), plus
    # |log K| <= 745 and the log of a window sum
    # (< 255), so every table entry and prefix sum stays below
    # steps * (charge + 1000); the copolymer forms also subtract two prefix
    # sums, which can reach twice that.  Keeping this below the largest float
    # rules out inf and NaN, and a -inf that is an underflow rather than Z = 0.
    top = max(0.0, float(values.max()), -float(values.min()))
    charge = model.beta * top + h_max
    spread = 1.0 if model.kind == "pinning" else 2.0
    if not spread * steps * (charge + 1000.0) < sys.float_info.max:
        raise ValueError("couplings too large for this N: log Z would leave the "
                         "floating-point range")


def _field_column(model: ModelSpec, h, rows: int) -> np.ndarray:
    """The field of each row: the number h for every row, or the column h."""
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        h = np.full(rows, float(h))
    if h.shape != (rows,):
        raise ValueError(f"need one field per row: {rows} rows, field shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("fields h must be finite")
    if model.kind == "copolymer" and np.any(h < 0):
        raise ValueError("copolymer couplings are restricted to h >= 0")
    return h


def _renewal(kind: str, model: ModelSpec, omega, n: int, h):
    """log Z_m, m = 0, s, ..., n: of one DisorderSample as a 1-D array, or
    of each row of an (R, >= n) block as a 2-D array, stepping all rows at
    once; row r carries the field h[r], or h if it is a number.  Each step copies
    the window logz[:, t-w:t] into one buffer, adds log K in place and
    reduces every row to its max m and pairwise sum x of exp(cell - m), with
    numpy's ufunc buffer at WIDE_BUFFER entries when w_max >= WIDE_ROW.
    Pinning finishes a row as (beta w - h + m) + math.log(x) (libm's log:
    numpy's SIMD np.log differs in the last bit), the copolymer, after a
    split term on each (step, excursion) cell, as m + np.log(x); a row whose
    window is all -inf is NaN after the shift by m, and fmax makes it -inf.

    The split term is np.logaddexp(0, x) - LOG2, where x = c_grid - c_last
    is minus the excursion's interior charge.  logaddexp runs only on the
    cells with |x| < SATURATION; the others take max(x, 0) - LOG2, the same
    double (see SATURATION)."""
    if model.kind != kind:
        raise ValueError(f"{kind} recursion called with a non-{kind} model")
    one = isinstance(omega, DisorderSample)
    values = omega.values[None, :] if one else omega
    rows = len(values)
    t_max = _check_inputs(model, values.shape[1], n)
    h = _field_column(model, h, rows)
    kern = model.kernel
    s = kern.period
    w_max = min(t_max, kern.n_max)
    rk = kern.log_density[:w_max][::-1].copy()  # rk[w_max-1-j] = log K((j+1)s)
    pinning = kind == "pinning"
    _check_range(model, values[:, :n], t_max if pinning else n, float(np.abs(h).max()))
    if pinning:
        # one row of charges per step, beta w - h as for a lone row
        charges = np.empty((t_max, rows))
        np.multiply(values[:, s - 1:n:s].T, model.beta, out=charges)
        charges -= h
    else:
        # interior charge of an excursion u s .. t s: prefix[t s - 1] - prefix[u s]
        prefix = np.zeros((rows, n + 1))
        np.cumsum(model.beta * values[:, :n] + h[:, None], axis=1, out=prefix[:, 1:])
        c_grid, c_last = prefix[:, ::s], prefix[:, s - 1::s]
        split_buf = np.empty(rows * w_max)
        near_buf = np.empty(rows * w_max, dtype=bool)

    logz = np.empty((rows, t_max + 1))
    logz[:, 0] = 0.0
    buf = np.empty(rows * w_max)
    full = buf.reshape(rows, w_max)
    m, x = np.empty(rows), np.empty(rows)
    m_col = m[:, None]
    # a row whose window is all -inf turns to NaN on the shift by its max
    with _row_buffer(w_max), np.errstate(invalid="ignore"):
        for t in range(1, t_max + 1):
            w = min(t, w_max)
            seg = full if w == w_max else buf[:rows * w].reshape(rows, w)
            if not pinning:
                # log1p(e^x) only where rounding leaves it open; seg holds |x|
                split = split_buf[:rows * w].reshape(rows, w)
                near = near_buf[:rows * w].reshape(rows, w)
                np.subtract(c_grid[:, t - w:t], c_last[:, t - 1:t], out=split)
                np.less(np.abs(split, out=seg), SATURATION, out=near)
                np.logaddexp(0.0, split, out=split, where=near)
                np.maximum(split, 0.0, out=split)
                split -= LOG2
            # faster than np.add from the strided window into seg
            seg[...] = logz[:, t - w:t]
            seg += rk[w_max - w:]
            if not pinning:
                seg += split
            np.maximum.reduce(seg, axis=1, out=m)
            np.subtract(seg, m_col, out=seg)
            np.exp(seg, out=seg)
            np.add.reduce(seg, axis=1, out=x)
            col = logz[:, t]
            if pinning:
                np.add(charges[t - 1], m, out=col)
                col += np.fromiter(map(math.log, x.tolist()), float, rows)
            else:
                np.add(m, np.log(x, out=x), out=col)
            np.fmax(col, -math.inf, out=col)
    return logz[0] if one else logz


def log_partition_pinning(model: ModelSpec, omega, n: int, h):
    """Pinned-endpoint log Z_m for m = 0, s, ..., n.

    omega is one DisorderSample, giving the (n/s + 1,) array of its log Z
    (log Z_0 = 0, log Z_n last), or a block of disorder rows w_1.. as a 2-D
    array of shape (R, >= n), giving the (R, n/s + 1) array of their log Z.
    h is one field for every row or a column of R fields, one per row; so
    the rows of a block can be (field, replica) pairs.  Every step runs the
    window log-sum-exp on all rows at once, with each row's arithmetic
    exactly that of a lone row, so row r of a block equals the build of
    values[r] at the field h[r] bit for bit.  The recursion reads
    no charge beyond position m, so the entries up to m of a longer build
    are those of a build at N = m.
    """
    return _renewal("pinning", model, omega, n, h)


def log_partition_free_endpoint(model: ModelSpec, omega: DisorderSample, n: int,
                                h: float) -> float:
    """log of the free-endpoint partition function (last excursion open).

    Sums Z_m * P(first return from m takes more than n - m steps) over the
    pinned table; the survival probability is the kernel tail plus the
    defect mass, so the m = n term contributes Z_n itself.
    """
    logz = log_partition_pinning(model, omega, n, h)
    kern = model.kernel
    surv = kern.tail_mass(np.arange(n, -1, -kern.period)) + kern.defect_mass
    with np.errstate(divide="ignore"):
        terms = logz + np.log(surv)
    return logsumexp_1d(terms)


def log_partition_copolymer(model: ModelSpec, omega, n: int, h):
    """Copolymer log Z_m for m = 0, s, ..., n, in the below-interface form.

    A completed excursion over sites u+1..u+k contributes K(k)/2 times
    (1 + exp(-sum of (beta w + h) over its k-1 interior sites)); the two
    summands are the above/below choices of the excursion sign.  For k = s
    = 1 the interior is empty and the expression collapses to the undivided
    weight K(1), as there is no sign to choose.  Interior sums come from a
    prefix-sum block, so each transition costs O(1).  The split term
    log1p(e^x) - log 2, x minus the interior sum, is exact: log1p runs only
    where |x| < SATURATION, and elsewhere max(x, 0) - log 2 is the same
    double (see SATURATION).  omega is one
    DisorderSample or an (R, >= n) block of rows, and h one field or a
    column of R fields (each >= 0), as for log_partition_pinning; row r of
    a block is bit for bit its own build.
    """
    return _renewal("copolymer", model, omega, n, h)


def log_partition_constrained(model: ModelSpec, omega: DisorderSample,
                              n: int) -> np.ndarray:
    """Count-resolved final row: entry j is log Z_N restricted to exactly j
    rewarded sites.

    The coupling h is deliberately absent from the recursion (the weight
    exp(-h j) reinstates it, see the Legendre analysis); only the disorder
    rewards beta * w enter.  For pinning j counts contacts (J = N/s + 1
    counts); for the copolymer j counts below-interface sites (J = N + 1),
    so an excursion of length k assigned below adds k - 1.  Entries are
    finite or -inf (-inf marks counts no path can realize).  The row is
    read-only; the row of a shorter position is the final row of a build at
    that N, bit for bit.

    Row t (position t s) depends only on the w = min(N/s, n_max) rows
    before it, so only those are kept: row u in slot u mod w of a (w, J)
    ring, whose window reads in time order as at most two slices, before
    and after the wrap.  Besides the ring a build holds the pinning window
    of w * (N/s) cells and O(J) vectors, all allocated once per build, and
    numpy's iteration buffers of one ufunc call at a time (per operand
    WIDE_BUFFER entries if a pinning N/s >= WIDE_ROW, else np.getbufsize()).
    """
    t_max = _check_inputs(model, len(omega.values), n)
    kern = model.kernel
    s = kern.period
    w_max = min(t_max, kern.n_max)
    log_k = kern.log_density
    _check_range(model, omega.values[:n], n, 0.0)

    width = t_max + 1 if model.kind == "pinning" else n + 1
    ring = np.full((w_max, width), -math.inf)
    ring[0, 0] = 0.0
    if model.kind == "pinning":
        rk = log_k[:w_max][::-1].copy()
        rewards = model.beta * omega.values[s - 1:n:s]
        cells = np.empty(w_max * t_max)
        col_max = np.empty(t_max)
        col_sum = np.empty(t_max)
        # a column with no path turns to NaN on the shift by its max -inf,
        # and fmax makes it -inf, as in _renewal
        with _row_buffer(t_max), np.errstate(invalid="ignore"):
            for t in range(1, t_max + 1):
                w = min(t, w_max)
                lo = (t - w) % w_max
                block = cells[:w * t].reshape(w, t)
                # rows t - w.. in slots lo..w_max - 1, then from slot 0;
                # copying first and adding in place is faster than
                # np.add from the strided ring into the block
                head = min(w, w_max - lo)
                block[:head] = ring[lo:lo + head, :t]
                block[head:] = ring[:w - head, :t]
                block += rk[w_max - w:, None]
                m, z = col_max[:t], col_sum[:t]
                np.maximum.reduce(block, axis=0, out=m)
                np.subtract(block, m, out=block)
                np.exp(block, out=block)
                np.add.reduce(block, axis=0, out=z)
                np.log(z, out=z)
                np.add(m, z, out=z)
                row = ring[t % w_max, :t + 1]
                row[0] = -math.inf
                np.add(rewards[t - 1], z, out=row[1:])
                np.fmax(row, -math.inf, out=row)
    else:
        rewards_prefix = np.concatenate([[0.0], np.cumsum(model.beta * omega.values[:n])])
        acc = np.empty(width)
        term = np.empty(width)
        for t in range(1, t_max + 1):
            w = min(t, w_max)
            acc.fill(-math.inf)
            end_prefix = rewards_prefix[t * s - 1]
            for j_exc in range(w):
                u = t - 1 - j_exc
                base = ring[u % w_max]
                if s == 1 and j_exc == 0:
                    np.add(base, log_k[0], out=term)
                    np.logaddexp(acc, term, out=acc)
                    continue
                half = log_k[j_exc] - LOG2
                np.add(base, half, out=term)
                np.logaddexp(acc, term, out=acc)
                shift = (j_exc + 1) * s - 1
                below = term[:width - shift]
                np.add(base[:width - shift],
                       half - (end_prefix - rewards_prefix[u * s]), out=below)
                np.logaddexp(acc[shift:], below, out=acc[shift:])
            ring[t % w_max] = acc

    final = ring[t_max % w_max].copy()
    final.flags.writeable = False
    return final


def constrained_window(row: np.ndarray, n: int, m: float, epsilon: float) -> float:
    """log of the mass of a count-resolved final row (of a build at N = n)
    with rewarded-site density within m +- epsilon.

    Returns -inf when no admissible count falls in the window.
    """
    # a density lies in [0, 1]: clipping keeps an infinite product off ceil/floor
    lo = max(0, math.ceil(max(m - epsilon, 0.0) * n - 1e-12))
    hi = min(len(row) - 1, math.floor(min(m + epsilon, 1.0) * n + 1e-12))
    if hi < lo:
        return -math.inf
    return logsumexp_1d(row[lo:hi + 1])
