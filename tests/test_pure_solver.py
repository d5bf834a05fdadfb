import math
import tracemalloc

import numpy as np
import pytest

import depin as dp
from depin.kernel import _CHUNK
from depin.pure_solver import _EXPM1_FLOOR


def closed_form_geometric_b(p: float, h: float) -> float:
    return math.log(1.0 - p + p * math.exp(h)) - h


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("h", [-800.0, -3.0, -1.0, -0.25, -0.01])
def test_geometric_closed_form(p, h):
    kern = dp.geometric_kernel(p)
    sol = dp.solve_free_energy_pure(kern, h)
    assert sol.localized
    assert sol.b == pytest.approx(closed_form_geometric_b(p, h), abs=1e-10)
    assert sol.residual <= 1e-12


def test_tiny_gap_resolved():
    # exp(h) rounds to exp(h_c) = 1 here, yet b = log1p(p expm1(h)) - h is a
    # normal double of order (1 - p)|h|
    kern = dp.geometric_kernel(0.5)
    for h in (-2.36e-35, -1e-17, -1e-300):
        sol = dp.solve_free_energy_pure(kern, h)
        assert sol.localized
        assert sol.b == pytest.approx(math.log1p(0.5 * math.expm1(h)) - h, rel=1e-12)


def test_far_field_overflow_is_silent():
    # b * steps overflows there, which only makes terms -inf (exact); no
    # RuntimeWarning may escape, and the suite turns any into an error
    sol = dp.solve_free_energy_pure(dp.geometric_kernel(0.5), -1e308)
    assert sol.localized
    assert sol.b == pytest.approx(closed_form_geometric_b(0.5, -1e308), rel=1e-12)


def _solve_fresh(kernel, h):
    """solve_free_energy_pure with fresh table-length arrays at every Newton
    step, cut at every _CHUNK atoms only to be summed (the reference for its
    reused chunk buffers): returns (b, residual)."""
    hc = dp.hc_pure(kernel)
    if not h < hc:
        return 0.0, 0.0
    gap = h - hc
    mass = 1.0 - kernel.defect_mass
    near = gap > -math.log(2.0)
    steps = kernel.period * np.arange(1, kernel.n_max + 1, dtype=float)
    cuts = list(range(_CHUNK, kernel.n_max, _CHUNK))

    def excess(b):
        # each chunk's terms summed by np.add.reduce, the partials scaled by
        # exp(chunk top - top) and summed by it too
        if near:
            terms = np.expm1(-b * steps) * kernel.density
            tops = np.zeros(len(cuts) + 1)
            moments = (terms + kernel.density) * steps
        else:
            with np.errstate(over="ignore"):
                x = kernel.log_density - b * steps
            tops = np.array([piece.max() for piece in np.split(x, cuts)])
            terms = np.concatenate([np.exp(piece - top) if top > -math.inf
                                    else np.zeros_like(piece)
                                    for piece, top in zip(np.split(x, cuts), tops)])
            moments = terms * steps
        scale = np.exp(tops - tops.max())
        total, moment = (
            float(np.add.reduce(np.array([np.add.reduce(p) for p in np.split(t, cuts)]) * scale))
            for t in (terms, moments))
        if near:
            return math.log1p(total / mass) - gap, -moment / (mass + total)
        return tops.max() + math.log(total) - h, -moment / total

    b = 0.0
    value, slope = excess(b)
    for _ in range(500):
        step = -value / slope
        b += step
        value, slope = excess(b)
        if value <= 0.0 or step <= 1e-15 * b:
            break
    if b == 0.0:
        b = math.ulp(0.0)
        value = excess(b)[0]
    return b, abs(value)


@pytest.mark.parametrize("kern", [
    dp.srw_kernel(4096), dp.geometric_kernel(0.5),
    dp.power_kernel(3.0, 2, 2000, defect_mass=0.3), dp.power_kernel(1.5, 1, 5000),
    # either side of a chunk boundary, and a second chunk of zero atoms
    dp.srw_kernel(_CHUNK - 1), dp.power_kernel(3.0, 2, _CHUNK, defect_mass=0.3),
    dp.power_kernel(1.5, 1, _CHUNK + 1), dp.geometric_kernel(0.5, _CHUNK + 1),
    # enough chunk partials that their pairwise sum is not a sequential one
    dp.power_kernel(2.5, 1, 9 * _CHUNK + 1)])
def test_work_arrays_keep_the_bits(kern):
    # reused chunk buffers give every b and residual of fresh arrays, on
    # both branches: either side of -log 2 by one ulp, and far below h_c,
    # where b * n overflows for every atom but the first
    hc = dp.hc_pure(kern)
    minus_log2 = -math.log(2.0)
    gaps = [10.0 ** k for k in range(-300, 1, 20)] + [1e-17, 1e-8, 0.1, 0.5, 3.0, 30.0]
    fields = [hc - g for g in gaps] + [
        hc + math.nextafter(minus_log2, 0.0), hc + minus_log2,
        hc + math.nextafter(minus_log2, -1.0), -800.0, -1e308]
    for h in fields:
        sol = dp.solve_free_energy_pure(kern, h)
        b, residual = _solve_fresh(kern, h)
        assert (repr(sol.b), repr(sol.residual)) == (repr(b), repr(residual)), h


def test_expm1_is_minus_one_below_the_floor():
    # the premise of the near form's saturated chunks, on the installed numpy
    x = -np.concatenate([np.linspace(_EXPM1_FLOOR, 1000.0, 200_001),
                         np.geomspace(1000.0, 1e308, 1001), [np.inf]])
    assert np.all(np.expm1(x) == -1.0)


@pytest.mark.parametrize("kern", [
    dp.srw_kernel(4 * _CHUNK), dp.power_kernel(3.0, 1, 4 * _CHUNK, defect_mass=0.3),
    dp.power_kernel(1.2, 1, 4 * _CHUNK)], ids=["srw", "power3", "power1.2"])
def test_saturated_chunks_keep_the_bits(kern):
    # near h_c the root's b n passes _EXPM1_FLOOR inside the table, so its
    # later chunks are summed without their terms; b and residual are those
    # of every term summed, on the near form and on the far one.  At
    # alpha = 1.2 those chunks hold enough mass that summing their atoms in
    # reverse moves the root at gap 0.5 by an ulp
    hc = dp.hc_pure(kern)
    near_gaps = (1e-3, 3e-3, 1e-2, 0.1, 0.5, math.nextafter(math.log(2.0), 0.0))
    last = kern.period * (3 * _CHUNK + 1)  # the last chunk's first position
    saturated = 0
    for gap in near_gaps + (math.log(2.0), 2.0, 30.0):
        sol = dp.solve_free_energy_pure(kern, hc - gap)
        b, residual = _solve_fresh(kern, hc - gap)
        assert (repr(sol.b), repr(sol.residual)) == (repr(b), repr(residual)), gap
        saturated += gap in near_gaps and b * last >= _EXPM1_FLOOR
    assert saturated >= 2


@pytest.mark.parametrize("make", [dp.srw_kernel, dp.geometric_kernel])
@pytest.mark.parametrize("h", [-0.05, -0.2, -0.6, -1.0, -3.0, -5.0])
def test_closed_forms_on_both_branches(make, h):
    # srw: sum K(2m) x^2m = 1 - sqrt(1 - x^2) with x = exp(-b); geometric:
    # (1 - p) x / (1 - p x) = exp(h).  Both tables span several chunks, and
    # their truncation is far below 1e-12 at these fields
    if make is dp.srw_kernel:
        kern, want = dp.srw_kernel(10**5), -0.5 * math.log1p(-math.expm1(h) ** 2)
    else:
        kern, want = dp.geometric_kernel(0.5, 3 * _CHUNK), closed_form_geometric_b(0.5, h)
    sol = dp.solve_free_energy_pure(kern, h)
    assert sol.b == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make", [
    dp.srw_kernel, lambda n: dp.power_kernel(3.0, 2, n, defect_mass=0.3)],
    ids=["srw", "power"])
@pytest.mark.parametrize("n_max", [10**5, 10**6])
def test_solver_peak_does_not_grow_with_the_table(make, n_max):
    # with the kernel's cached log density built, a solve allocates its
    # chunk walk's three buffers, on both branches, plus small Python objects
    kern = make(n_max)
    kern.log_density
    hc = dp.hc_pure(kern)
    for h in (hc - 1e-3, hc - 3.0):
        tracemalloc.start()
        try:
            sol = dp.solve_free_energy_pure(kern, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.localized
        assert peak <= 3 * 8 * _CHUNK + 65536, h


def test_single_atom_kernel():
    kern = dp.power_kernel(3.0, 1, 1)  # K(1) = 1
    sol = dp.solve_free_energy_pure(kern, -0.3)
    assert sol.b == pytest.approx(0.3, abs=1e-12)


def test_delocalized_side_is_zero():
    kern = dp.geometric_kernel(0.5)
    for h in [0.0, 1e-17, 1e-6, 0.2, 2.0]:
        sol = dp.solve_free_energy_pure(kern, h)
        assert sol.b == 0.0 and not sol.localized and sol.residual == 0.0
    wet = dp.power_kernel(3.0, 1, 100, defect_mass=0.5)
    assert dp.solve_free_energy_pure(wet, math.log(0.5)).b == 0.0
    assert dp.solve_free_energy_pure(wet, math.log(0.5) - 1e-4).b > 0.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dp.solve_free_energy_pure(kern, bad)


def test_b_monotone_in_h():
    kern = dp.power_kernel(2.2, 1, 5000)
    hs = np.linspace(-2.0, 0.5, 40)
    bs = [dp.solve_free_energy_pure(kern, h).b for h in hs]
    assert all(b1 >= b2 for b1, b2 in zip(bs, bs[1:]))
    loc = [b for b in bs if b > 0]
    assert all(b1 > b2 for b1, b2 in zip(loc, loc[1:]))


def test_hc_pure():
    assert dp.hc_pure(dp.geometric_kernel(0.5)) == 0.0
    wet = dp.power_kernel(3.0, 1, 100, defect_mass=0.5)
    assert dp.hc_pure(wet) == pytest.approx(-math.log(2.0), abs=1e-15)
    # h_c is where the solver switches off
    eps = 1e-9
    assert dp.solve_free_energy_pure(wet, dp.hc_pure(wet) + eps).b == 0.0
    assert dp.solve_free_energy_pure(wet, dp.hc_pure(wet) - 1e-6).b > 0.0


def test_root_residual_invariant():
    for kern in (dp.geometric_kernel(0.8), dp.srw_kernel(4000),
                 dp.power_kernel(1.3, 1, 20000)):
        for h in (-2.0, -0.5, -0.05):
            sol = dp.solve_free_energy_pure(kern, h)
            if sol.b > 0:
                assert sol.residual <= 1e-12


def test_first_order_slope_alpha3():
    # finite differences of b near h_c against exp(h_c)/Sigma, Sigma from
    # exactly rounded partial zeta sums (independent of the solver)
    kern = dp.power_kernel(3.0, 1, 10**6)
    z3 = math.fsum(n**-3.0 for n in range(1, 10**6 + 1))
    z2 = math.fsum(n**-2.0 for n in range(1, 10**6 + 1))
    slope_expected = 1.0 / (z2 / z3)
    hc = dp.hc_pure(kern)
    for gap in (1e-3, 5e-4):
        b1 = dp.solve_free_energy_pure(kern, hc - gap).b
        b2 = dp.solve_free_energy_pure(kern, hc - gap / 2).b
        fd = (b1 - b2) / (gap / 2)
        assert fd == pytest.approx(slope_expected, rel=0.01)


def test_engine_consistency_beta0(gaussian_law):
    n = 4096
    kern = dp.geometric_kernel(0.5, n_max=64)
    omega = dp.sample_disorder(gaussian_law, n, 3)
    model = dp.ModelSpec("pinning", 0.0, kern)
    per_site = dp.log_partition_pinning(model, omega, n, -1.0)[-1] / n
    b = dp.solve_free_energy_pure(kern, -1.0).b
    assert abs(per_site - b) <= 10.0 * math.log(n) / n


def test_asymptotics_first_order():
    kern = dp.power_kernel(3.0, 1, 10**6)
    cls = dp.pure_asymptotics(kern)
    z3 = math.fsum(n**-3.0 for n in range(1, 10**6 + 1))
    z2 = math.fsum(n**-2.0 for n in range(1, 10**6 + 1))
    assert cls.order == "first" and cls.exponent == 1.0
    # ideal-law Sigma: the truncated partial sums agree to ~1e-12 here
    assert cls.slope == pytest.approx(z3 / z2, rel=1e-5)
    assert cls.mean_return == pytest.approx(z2 / z3, rel=1e-5)

    geo = dp.pure_asymptotics(dp.geometric_kernel(0.25))
    assert geo.order == "first"
    assert geo.mean_return == pytest.approx(1.0 / 0.75, rel=1e-12)


def test_asymptotics_second_and_higher():
    srw = dp.pure_asymptotics(dp.srw_kernel(100))
    assert srw.order == "second" and srw.exponent == 2.0 and srw.slope is None

    quart = dp.pure_asymptotics(dp.power_kernel(1.25, 1, 100))
    assert quart.order == "higher" and quart.exponent == pytest.approx(4.0)

    edge = dp.pure_asymptotics(dp.power_kernel(2.0, 1, 100))
    assert edge.order == "second" and edge.exponent == 1.0 and edge.log_corrections

    mid = dp.pure_asymptotics(dp.power_kernel(1.75, 1, 100))
    assert mid.order == "second" and mid.exponent == pytest.approx(1.0 / 0.75)


def test_asymptotics_file_kernels(tmp_path):
    # without a declared exponent the ideal-law mean is undecidable
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=nan\n1,0.5\n2,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        dp.pure_asymptotics(dp.kernel_from_file(path))
    # declared alpha > 2: first order with the tabulated mean return
    path2 = tmp_path / "k2.csv"
    path2.write_text("s=1,k_inf=0.0,alpha=3.0\n1,0.5\n2,0.5\n", encoding="utf-8")
    cls = dp.pure_asymptotics(dp.kernel_from_file(path2))
    assert cls.order == "first" and cls.mean_return == pytest.approx(1.5)
    # declared alpha <= 2: the table reads as a truncated heavy-tailed law
    path3 = tmp_path / "k3.csv"
    path3.write_text("s=1,k_inf=0.0,alpha=1.5\n1,0.5\n2,0.5\n", encoding="utf-8")
    cls3 = dp.pure_asymptotics(dp.kernel_from_file(path3))
    assert cls3.order == "second" and cls3.exponent == 2.0
