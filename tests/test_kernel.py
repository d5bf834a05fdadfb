import importlib.util
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import depin as dp
from depin.kernel import _CHUNK, UsageError, _zeta, parse_kernel_spec
from conftest import sparse_kernel, srw_first_return_enum


def test_srw_matches_enumeration():
    # independent oracle: path enumeration up to 16 steps
    enum = {2 * m: srw_first_return_enum(2 * m) for m in range(1, 9)}
    kern = dp.srw_kernel(8)
    for m in range(1, 8):
        assert kern.density[m - 1] == enum[2 * m]
    # last atom absorbs the ideal tail
    fold = 1.0 - sum(enum.values())
    assert kern.density[7] == pytest.approx(enum[16] + fold, abs=1e-15)


def _srw_loop(n_max):
    """The SRW atoms as a loop over m, one product per atom (the reference)."""
    dens = np.empty(n_max)
    k = 0.5
    for m in range(1, n_max + 1):
        dens[m - 1] = k
        k *= (2 * m - 1) / (2 * m + 2)
    dens[-1] += 1.0 - dens.sum()
    return dens


@pytest.mark.parametrize("n_max", [1, 2, 3, 16, 512, 4096, 10**6])
def test_srw_matches_loop_bit_for_bit(n_max):
    assert dp.srw_kernel(n_max).density.tobytes() == _srw_loop(n_max).tobytes()


def _srw_two_tables(n_max):
    """The SRW atoms from a table of numerators and one of denominators."""
    dens = np.arange(-1.0, 2.0 * n_max - 2, 2.0)
    np.divide(dens, np.arange(2.0, 2.0 * n_max + 1, 2.0), out=dens)
    dens[0] = 0.5
    np.cumprod(dens, out=dens)
    dens[-1] += 1.0 - dens.sum()
    return dens


@pytest.mark.parametrize("n_max", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 10**5])
def test_srw_matches_two_tables_bit_for_bit(n_max):
    # its denominators are formed a chunk at a time, as numerator + 3
    assert dp.srw_kernel(n_max).density.tobytes() == _srw_two_tables(n_max).tobytes()


def test_srw_is_built_in_one_table():
    n_max = 10**6
    tracemalloc.start()
    try:
        kern = dp.srw_kernel(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern.n_max == n_max
    assert peak <= 8 * n_max + 8 * _CHUNK + 65536


def test_mean_return_steps_sums_chunks_pairwise():
    # np.add.reduce of each chunk's n K(n), then of the partials: no BLAS
    # call, and within a few ulps of the exactly rounded sum
    kern = dp.power_kernel(3.0, 2, 3 * _CHUNK + 7, defect_mass=0.3)
    terms = 2.0 * np.arange(1, kern.n_max + 1, dtype=float) * kern.density
    parts = [np.add.reduce(p) for p in np.split(terms, [_CHUNK, 2 * _CHUNK, 3 * _CHUNK])]
    assert kern.mean_return_steps == float(np.add.reduce(np.array(parts)))
    assert kern.mean_return_steps == pytest.approx(math.fsum(terms), rel=1e-15, abs=0.0)


def test_srw_small_values():
    kern = dp.srw_kernel(3)
    assert kern.density[0] == 0.5
    assert kern.density[1] == 0.125
    # unfolded K(6) is 0.0625; the atom then carries the folded tail
    assert kern.density[2] == pytest.approx(0.0625 + 0.3125, abs=1e-15)
    assert kern.period == 2 and kern.alpha == 1.5 and kern.defect_mass == 0.0


def test_srw_single_atom():
    kern = dp.srw_kernel(1)
    assert kern.density[0] == 1.0


@pytest.mark.parametrize("make", [
    lambda: dp.srw_kernel(7),
    lambda: dp.geometric_kernel(0.3),
    lambda: dp.geometric_kernel(0.97, n_max=50),
    lambda: dp.power_kernel(1.5, 2, 1000),
    lambda: dp.power_kernel(3.0, 1, 1000, defect_mass=0.5),
])
def test_normalization(make):
    kern = make()
    assert abs(kern.density.sum() + kern.defect_mass - 1.0) <= 1e-12


def test_power_kernel_partial_zeta():
    # oracle: exactly rounded partial zeta sums
    partial = math.fsum(n**-3.0 for n in range(1, 10**6 + 1))
    kern = dp.power_kernel(3.0, 1, 10**6)
    assert kern.density[0] == pytest.approx(1.0 / partial, rel=1e-13)
    assert kern.density[0] == pytest.approx(0.83190737, abs=1e-8)
    half = dp.power_kernel(3.0, 1, 10**6, defect_mass=0.5)
    assert half.density[0] == pytest.approx(0.5 / partial, rel=1e-13)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.5])
@pytest.mark.parametrize("defect", [0.0, 0.5])
@pytest.mark.parametrize("s", [1, 2])
def test_ideal_mean_return_of_power_kernels(alpha, defect, s):
    # s (1 - K(inf)) zeta(alpha - 1) / zeta(alpha), within 1 ulp of its
    # 40-digit value
    mpmath = pytest.importorskip("mpmath")
    sigma = dp.power_kernel(alpha, s, 50, defect_mass=defect).ideal_mean_return()
    with mpmath.workdps(40):
        exact = s * (1 - mpmath.mpf(defect)) * mpmath.zeta(alpha - 1) / mpmath.zeta(alpha)
        assert abs(sigma - exact) <= math.ulp(float(exact))


def test_zeta_at_even_integers():
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945, to 1 ulp
    for s, closed in ((2.0, math.pi**2 / 6), (4.0, math.pi**4 / 90), (6.0, math.pi**6 / 945)):
        assert abs(_zeta(s) - closed) <= math.ulp(closed), s


def test_zeta_near_its_pole():
    # the Laurent form 1/(s - 1) + gamma_E - gamma_1 (s - 1): from k = 15 on
    # the dropped gamma_2 term is below 1e-15 relative
    gamma_e, gamma_1 = 0.5772156649015329, -0.07281584548367672
    for k in range(15, 41):
        d = 2.0**-k
        assert _zeta(1.0 + d) == pytest.approx(1.0 / d + gamma_e - gamma_1 * d,
                                               rel=1e-15, abs=0), k


def test_zeta_is_one_at_large_s_and_never_increases():
    # above s = 54 zeta(s) - 1 is below half an ulp of 1; the corrections
    # must neither overflow nor turn to NaN on the way there
    for s in (60.0, 400.0, 1e300):
        assert _zeta(s) == 1.0
    values = [_zeta(s) for s in [1.0 + 2.0**-40, *np.linspace(1.0001, 80.0, 4001).tolist()]]
    assert not any(math.isnan(v) for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_zeta_against_mpmath():
    # within 1 ulp of the 40-digit value on 2000 points of (1.0001, 12]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in np.linspace(1.0001, 12.0, 2001)[1:].tolist():
            exact = mpmath.zeta(s)
            assert abs(_zeta(s) - exact) <= math.ulp(float(exact)), s


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_ideal_mean_return_is_infinite_up_to_alpha_2(alpha):
    # whatever the finite table holds
    for defect in (0.0, 0.5):
        kern = dp.power_kernel(alpha, 2, 50, defect_mass=defect)
        assert kern.ideal_mean_return() == math.inf
        assert math.isfinite(kern.mean_return_steps)


def test_ideal_mean_return_of_kernel_files(tmp_path):
    # the declared tail exponent decides, as it does for pure_asymptotics
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=1.5\n1,0.5\n2,0.5\n", encoding="utf-8")
    assert dp.kernel_from_file(path).ideal_mean_return() == math.inf
    path.write_text("s=1,k_inf=0.0,alpha=3\n1,0.5\n2,0.5\n", encoding="utf-8")
    kern = dp.kernel_from_file(path)
    assert kern.ideal_mean_return() == kern.mean_return_steps == 1.5
    path.write_text("s=1,k_inf=0.0,alpha=nan\n1,0.5\n2,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no declared tail exponent"):
        dp.kernel_from_file(path).ideal_mean_return()


def test_power_kernel_ratio_exact():
    kern = dp.power_kernel(2.5, 3, 200)
    n = np.arange(1, 200)
    ratios = kern.density[1:] / kern.density[:-1]
    assert np.allclose(ratios, (n / (n + 1.0)) ** 2.5, rtol=1e-14, atol=0)


def test_power_kernel_rejects_bad_args():
    with pytest.raises(ValueError):
        dp.power_kernel(0.9, 1, 10)
    with pytest.raises(ValueError):
        dp.power_kernel(2.0, 1, 10, defect_mass=1.0)
    with pytest.raises(ValueError):
        dp.power_kernel(math.nan, 1, 10)
    with pytest.raises(ValueError):
        dp.power_kernel(math.inf, 1, 10)


def test_power_kernel_trivial():
    kern = dp.power_kernel(1.5, 1, 1)
    assert kern.density[0] == 1.0


def test_geometric_values_and_gf():
    kern = dp.geometric_kernel(0.5)
    assert kern.density[0] == 0.5
    assert kern.density[1] == 0.25
    with pytest.raises(ValueError):
        dp.geometric_kernel(1.0)
    with pytest.raises(ValueError):
        dp.geometric_kernel(0.0)


def test_tail_mass_properties():
    for kern in (dp.geometric_kernel(0.5), dp.srw_kernel(50),
                 dp.power_kernel(3.0, 1, 100, 0.25)):
        assert kern.tail_mass(0) == pytest.approx(1.0 - kern.defect_mass, abs=1e-12)
        prev = kern.tail_mass(0)
        for n in range(1, 30):
            cur = kern.tail_mass(n)
            assert cur <= prev + 1e-15
            prev = cur
        assert kern.tail_mass(kern.period * kern.n_max) == 0.0
        assert kern.tail_mass(kern.period * kern.n_max + 5) == 0.0


def test_tail_mass_total_is_exact():
    # tail_mass(0) is the validated mass 1 - K(inf), not a rounded sum; in
    # the first kernel the suffix sum from the second atom rounds above 1
    gapped = dp.ReturnKernel(np.array([0.0, 0.1, 0.3, 1.0 - 0.1 - 0.3]), 0.0, 1, None, 4)
    for kern in (gapped, dp.srw_kernel(10000), dp.geometric_kernel(0.8051184413963611, 11),
                 dp.power_kernel(3.0, 1, 100, 0.25)):
        tails = [kern.tail_mass(n) for n in range(kern.period * kern.n_max + 1)]
        assert tails[0] == 1.0 - kern.defect_mass
        assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_tail_mass_srw_folded():
    # enumeration atoms 0.5, 0.125, 0.0625 plus the folded tail 0.3125:
    # partial tails below the horizon equal the ideal ones
    kern = dp.srw_kernel(3)
    assert kern.tail_mass(2) == pytest.approx(0.125 + 0.0625 + 0.3125, abs=1e-15)
    assert kern.tail_mass(4) == pytest.approx(0.0625 + 0.3125, abs=1e-15)


def test_kernel_immutable():
    kern = dp.geometric_kernel(0.5, n_max=10)
    with pytest.raises(ValueError):
        kern.density[0] = 0.9


def test_kernel_from_file_roundtrip(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("s=2,k_inf=0.0,alpha=1.5\n2,0.5\n4,0.5\n", encoding="utf-8")
    kern = dp.kernel_from_file(path)
    assert kern.period == 2 and kern.n_max == 2
    assert kern.density[0] == 0.5 and kern.density[1] == 0.5
    assert kern.alpha == 1.5


def test_kernel_from_file_wetting(tmp_path):
    path = tmp_path / "wet.csv"
    path.write_text("s=1,k_inf=0.1,alpha=nan\n1,0.4\n3,0.5\n", encoding="utf-8")
    kern = dp.kernel_from_file(path)
    assert kern.defect_mass == 0.1
    assert kern.alpha is None
    assert kern.density[1] == 0.0  # gap atoms are zero
    assert abs(kern.density.sum() + 0.1 - 1.0) <= 1e-12


@pytest.mark.parametrize("body", [
    "s=1,k_inf=0.0,alpha=2\n1,-0.25\n2,1.25\n",       # negative entry
    "s=1,k_inf=0.1,alpha=2\n1,0.5\n2,0.3\n",          # mass 0.9 beyond tolerance
    "s=2,k_inf=0.0,alpha=2\n3,1.0\n",                 # atom off the period grid
    "s=1,k_inf=0.0,alpha=2\n2,0.5\n1,0.5\n",          # not ascending
    "s=1,k_inf=0.0\n1,1.0\n",                         # missing alpha
    "garbage\n",
    "s=1,k_inf=0.0,alpha=2\n1,1e400\n",              # infinite entry
    "s=1,k_inf=0.0,alpha=2\n1,nan\n2,1.0\n",         # NaN entry
])
def test_kernel_from_file_rejects(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError):
        dp.kernel_from_file(path)


def test_kernel_from_file_messages(tmp_path):
    # a non-finite entry is named at its line, not as an infinite mass, and
    # the mass is printed as a plain float
    path = tmp_path / "bad.csv"
    path.write_text("s=1,k_inf=0.0,alpha=2\n1,1e400\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"non-finite entry K\(1\)=inf on line '1,1e400'"):
        dp.kernel_from_file(path)
    path.write_text("s=1,k_inf=0.1,alpha=2\n1,0.5\n2,0.3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": mass 0\.9 violates normalization beyond 1e-9$"):
        dp.kernel_from_file(path)
    # a data line that does not convert is named with its file
    for line in ("1.5,1.0", "1,abc", "1,1.0,7"):
        path.write_text(f"s=1,k_inf=0.0,alpha=2\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bad\.csv: malformed data line '{line}'$"):
            dp.kernel_from_file(path)
    # the header is read like a kernel spec: a repeated, unknown or missing
    # key is named, and a declared tail exponent the constructor rejects
    # names the file
    for header, message in (("s=1,k_inf=0,alpha=nan,s=2", "header repeats 's'"),
                            ("s=1,k_inf=0,alpha=nan,foo=3", "unknown parameter 'foo'"),
                            ("s=1,k_inf=0", "header misses parameter 'alpha'"),
                            ("s=1.5,k_inf=0,alpha=2", "bad value '1.5' for 's'"),
                            ("s=1,k_inf=0,alpha=inf", r"bad\.csv: declared tail exponent"),
                            ("s=1,k_inf=0,alpha=0.5", r"bad\.csv: declared tail exponent")):
        path.write_text(f"{header}\n1,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            dp.kernel_from_file(path)


@pytest.mark.parametrize("text", [
    "s=2,k_inf=0.0,alpha=1.5\n2,0.5  # note\n4,0.5\n",
    "s=2,k_inf=0.0,alpha=1.5\n  # indented\n2,0.5\n4,0.5\n",
    "\ufeffs=2,k_inf=0.0,alpha=1.5\n2,0.5\n4,0.5\n",
], ids=["trailing_comment", "indented_comment", "byte_order_mark"])
def test_kernel_from_file_reads_lines_as_config_files_do(tmp_path, text):
    path = tmp_path / "k.csv"
    path.write_text(text, encoding="utf-8")
    kern = dp.kernel_from_file(path)
    assert kern.period == 2 and kern.alpha == 1.5
    assert kern.density.tolist() == [0.5, 0.5]


def test_declared_tail_exponent_is_finite():
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            dp.ReturnKernel(np.array([0.5, 0.5]), 0.0, 1, alpha, 2)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each kernel spec of the benchmark, with the constructor call it names
_BENCH_KERNELS = {
    "power:alpha=3,s=1,n_max=2048": lambda: dp.power_kernel(3.0, 1, 2048),
    "geometric:p=0.5,n_max=64": lambda: dp.geometric_kernel(0.5, n_max=64),
    "power:alpha=3,s=1,n_max=64,defect=0.5": lambda: dp.power_kernel(3.0, 1, 64, 0.5),
    "srw:n_max=1000000": lambda: dp.srw_kernel(1_000_000),
    "srw:n_max=512": lambda: dp.srw_kernel(512),
}


def test_parse_kernel_spec_builds_what_the_constructor_builds():
    specs = {spec for load in _load_workloads().WORKLOADS.values() for spec in load.kernels}
    assert specs == set(_BENCH_KERNELS)
    for spec, build in _BENCH_KERNELS.items():
        got, want = parse_kernel_spec(spec), build()
        assert got.density.tobytes() == want.density.tobytes(), spec
        assert (got.period, got.alpha, got.defect_mass) == (
            want.period, want.alpha, want.defect_mass), spec


@pytest.mark.parametrize("spec, message", [
    ("geometric:p=0.5,n_max=", "bad value '' for 'n_max'"),
    ("srw:n_max=1e3", "bad value '1e3' for 'n_max'"),
    ("power:alpha=x,s=1,n_max=10", "bad value 'x' for 'alpha'"),
    ("geometric:n_max=4", "misses parameter 'p'"),
    ("geometric:p=0.5,", "malformed item ''"),
    ("geometric:p=0.5,nmax=10", r"unknown parameter 'nmax' \(it takes p, n_max\)"),
    ("power:alpha=3,n_max=8,alpha=3", "repeats 'alpha'"),
])
def test_parse_kernel_spec_names_the_key(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_kernel_spec(spec)


@pytest.mark.parametrize("key", range(200))
def test_reaches_matches_position_recursion(key):
    # n is reached iff some atom of positive mass ends a chain that is
    # itself reached: the renewal recursion on booleans.  A few tables (46,
    # 70, 115, ...) hold an atom b with gcd(a, b) > 1 whose residue cycle
    # does not start at its least entry
    rng = np.random.default_rng(key)
    n_max, period = int(rng.integers(1, 41)), int(rng.integers(1, 3))
    kern = sparse_kernel(n_max, period, 0.7, key % 2 == 0, key)
    atoms = [a for a in range(1, n_max + 1) if kern.density[a - 1] > 0.0]
    reached = [True]
    for t in range(1, 401):
        reached.append(any(reached[t - a] for a in atoms if a <= t))
    # the last n_max sizes are reached exactly at the multiples of the atoms'
    # gcd, so 400 periods lie past the Frobenius number and every size
    # beyond is decided as well
    g = math.gcd(*atoms)
    assert reached[-n_max:] == [t % g == 0 for t in range(401 - n_max, 401)]
    # unreached lists at once the steps that reaches rejects, none if K(s) > 0
    t_max = int(rng.integers(0, 401))
    dead = kern.unreached(t_max)
    assert dead.tolist() == [t for t in range(1, t_max + 1) if not reached[t]]
    if kern.density[0] > 0.0:
        assert dead.size == 0
    for n in range(-1, 401 * period):
        want = n > 0 and n % period == 0 and reached[n // period]
        assert kern.reaches(n) == want, n
        # steps takes exactly the positive multiples of the period, and a
        # run takes exactly the positive sizes that reaches accepts
        if n > 0 and n % period == 0:
            assert kern.steps(n) == n // period, n
        else:
            with pytest.raises(ValueError) as exc:
                kern.steps(n)
            assert str(exc.value) == f"N={n} is not a positive multiple of the period {period}"
        if n < 1:
            with pytest.raises(ValueError, match="all positive"):
                kern.sizes([n])
        elif want:
            assert kern.sizes([n]) == [n]
        else:
            with pytest.raises(UsageError) as exc:
                kern.sizes([n])
            assert str(exc.value) == f"no path of the kernel ends at N={n}"


def test_unreached_builds_no_index_array_when_every_step_is_reached():
    for kern in (dp.srw_kernel(50), dp.geometric_kernel(0.5), dp.power_kernel(1.5, 3, 50)):
        kern.unreached(1)  # the first call builds the table
        tracemalloc.start()
        try:
            dead = kern.unreached(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dead.size == 0
        assert peak < 64 * 1024, (kern.family, peak)


def test_reaches_reads_a_table_whose_size_does_not_grow_with_n(tmp_path):
    # atoms at 4 and 8 only: the sums are the multiples of 4, however large
    path = tmp_path / "k48.csv"
    path.write_text("s=1,k_inf=0.0,alpha=2.0\n4,0.5\n8,0.5\n", encoding="utf-8")
    for n, want in ((10**8 + 2, False), (10**18 + 2, False), (10**8, True)):
        kern = dp.kernel_from_file(path)  # the first call builds the table
        tracemalloc.start()
        try:
            start = time.perf_counter()
            got = kern.reaches(n)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is want, n
        assert peak < 64 * 1024, (n, peak)
        assert elapsed < 0.5, (n, elapsed)
