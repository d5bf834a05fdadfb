"""Randomized invariant checks over constructor and coupling space."""

import math
import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

import depin as dp
from depin.analysis import _wls_line


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.05, 0.95), n_max=st.integers(1, 200))
@example(p=0.8051184413963611, n_max=11)  # rounded suffix sum exceeded 1
def test_geometric_normalized_and_tail_monotone(p, n_max):
    kern = dp.geometric_kernel(p, n_max=n_max)
    assert abs(kern.density.sum() + kern.defect_mass - 1.0) <= 1e-12
    tails = [kern.tail_mass(n) for n in range(0, n_max + 2)]
    assert tails[0] == 1.0
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(1.0, 5.0), s=st.integers(1, 4), n_max=st.integers(1, 300),
       defect=st.floats(0.0, 0.9))
def test_power_kernel_invariants(alpha, s, n_max, defect):
    kern = dp.power_kernel(alpha, s, n_max, defect)
    assert abs(kern.density.sum() + kern.defect_mass - 1.0) <= 1e-12
    assert abs(kern.tail_mass(0) - (1.0 - defect)) <= 1e-12
    if n_max >= 2:
        ratio = kern.density[1] / kern.density[0]
        assert math.isclose(ratio, 0.5**alpha, rel_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(h=st.floats(-4.0, 2.0), p=st.floats(0.1, 0.9))
@example(h=-2.3592142835403163e-35, p=0.5)  # exp(h) rounds to exp(h_c)
@example(h=0.0, p=0.8125)  # default-horizon fold went negative
@example(h=-5e-324, p=0.9)  # root below the smallest subnormal
def test_pure_solution_invariants(h, p):
    kern = dp.geometric_kernel(p)
    sol = dp.solve_free_energy_pure(kern, h)
    assert sol.b >= 0.0
    assert sol.localized == (sol.b > 0.0) == (h < 0.0)
    if sol.b > 0:
        assert sol.residual <= 1e-12


@settings(max_examples=25, deadline=None)
@given(u=st.floats(-2.0, 2.0), name=st.sampled_from(["gaussian", "uniform", "rademacher"]))
@example(u=1e-8, name="rademacher")  # cancellation in log cosh
@example(u=2.77e-199, name="gaussian")  # true value u^2/2 underflows to 0
def test_tilt_entropy_sign(u, name):
    law = dp.disorder_law(name)
    val = dp.tilt_entropy(law, u, 3)
    if u == 0.0:
        assert val == 0.0
    else:
        assert val >= 0.0
        # strict sign wherever the small-u value u^2/2 is a normal double
        if 0.5 * u * u >= sys.float_info.min:
            assert val > 0.0


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.05, 1.5), h=st.floats(-1.5, 1.5),
       seed=st.integers(0, 2**32), n=st.sampled_from([8, 12, 16]))
def test_pinning_engine_vs_oracle_random(beta, h, seed, n):
    kern = dp.geometric_kernel(0.5, n_max=32)
    om = dp.sample_disorder(dp.disorder_law("gaussian"), n, seed)
    model = dp.ModelSpec("pinning", beta, kern)
    got = dp.log_partition_pinning(model, om, n, h)[-1]
    want = math.log(dp.brute_force_pinning(kern, om, beta, h, n).value)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _wls_line_scalar(x, y, sigma):
    """One weighted line y = a + b x through 1-D data, with its own sums
    (the reference for _wls_line); returns (a, b, var_a, var_b)."""
    if np.any(sigma > 0):
        floor = sigma[sigma > 0].min()
        w = 1.0 / np.maximum(sigma, floor) ** 2
    else:
        w = np.ones_like(x)
    sw = w.sum()
    sx = (w * x).sum()
    sxx = (w * x * x).sum()
    sy = (w * y).sum()
    sxy = (w * x * y).sum()
    det = sw * sxx - sx * sx
    if det <= 0:
        raise ValueError("degenerate fit design")
    a = (sxx * sy - sx * sxy) / det
    b = (sw * sxy - sx * sy) / det
    if np.any(sigma > 0):
        var_a = sxx / det
        var_b = sw / det
    else:
        var_a = var_b = 0.0
    return a, b, var_a, var_b


def _grid_fit_loop(points, hc_lo, hc_hi, grid_size):
    """Reference for critical_power_fit: one scalar line solve per candidate."""
    h = np.array([p[0] for p in points])
    f = np.array([p[1] for p in points])
    err = np.array([p[2] for p in points])
    sigma = err / f
    y = np.log(f)
    h_max = float(h.max())
    best = (math.inf, hc_hi, 0.0)
    for hc_try in np.linspace(hc_lo, hc_hi, grid_size):
        if hc_try <= h_max:
            continue
        x = np.log(hc_try - h)
        a, b, _, _ = _wls_line_scalar(x, y, sigma)
        resid = y - a - b * x
        if np.any(sigma > 0):
            floor = sigma[sigma > 0].min()
            chi2 = float(((resid / np.maximum(sigma, floor)) ** 2).sum())
        else:
            chi2 = float((resid**2).sum())
        if chi2 < best[0]:
            best = (chi2, float(hc_try), float(b))
    return best[1], best[2], best[0]


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):  # extreme draws overflow both alike
            return tuple(float(v).hex() for v in fn(*args))  # bit for bit
    except ValueError as exc:
        return str(exc)


@st.composite
def _scans(draw):
    k = draw(st.integers(2, 12))
    rows = st.tuples(st.floats(-1.0, 0.0), st.floats(1e-6, 10.0),
                     st.just(0.0) if draw(st.booleans()) else st.floats(0.0, 1.0))
    return draw(st.lists(rows, min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(points=_scans(), lo=st.floats(-1.5, 0.5), width=st.floats(0.0, 1.0),
       grid_size=st.sampled_from([1, 2, 37, 200, 400]))
@example(points=[(-0.3, 0.5, 0.01), (-0.3, 0.2, 0.02)], lo=0.0, width=0.5,
         grid_size=200)  # one abscissa: degenerate design
@example(points=[(-0.3, 0.5, 0.01), (-0.1, 0.2, 0.0), (0.0, 0.1, 0.0)],
         lo=-0.5, width=0.5, grid_size=400)  # every candidate <= max(h)
def test_critical_power_fit_matches_per_candidate_loop(points, lo, width, grid_size):
    args = (points, lo, lo + width, grid_size)
    assert _outcome(dp.critical_power_fit, *args) == _outcome(_grid_fit_loop, *args)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 5), k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       weighted=st.booleans())
@example(rows=3, k=2, seed=0, weighted=False)
def test_wls_line_rows_match_one_line_calls(rows, k, seed, weighted):
    # a 2-D x is a stack of independent lines: each row of the result has
    # the bytes of the 1-D call on that row and of the scalar reference
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, k))
    y = rng.normal(size=k)
    sigma = rng.uniform(0.0, 1.0, size=k) if weighted else np.zeros(k)
    # zero variances of an unweighted fit may come back as one scalar
    stacked = [np.broadcast_to(v, (rows,)) for v in _wls_line(x, y, sigma)]
    for i in range(rows):
        want = [float(v).hex() for v in _wls_line_scalar(x[i], y, sigma)]
        assert [float(v).hex() for v in _wls_line(x[i], y, sigma)] == want
        assert [float(v[i]).hex() for v in stacked] == want
