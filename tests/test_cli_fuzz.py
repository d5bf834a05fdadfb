"""Fuzzing of the command line: every argv ends in exit 0, 1 or 2.

Arguments are drawn from small but hostile values (non-finite and
out-of-range numbers, malformed specs and lists, zero and negative counts),
with chains of at most 64 sites and at most 2 replicas so that each call
takes milliseconds.  No call may raise, and a successful call may not
print NaN or an infinite standard error, and none may take a minute: a
hang fails with its argv instead of stalling the suite.
"""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from depin.cli import run

NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "-0.5", "2", "1e-300", "1e300",
                           "1e308", "-1e300", "nan", "inf", "-inf", "oops", "", "3.7"])
FIELDS = st.one_of(
    NUMBERS,
    st.floats(-3.0, 3.0).map(repr),
    st.lists(st.floats(-3.0, 3.0).map(repr), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["0:1:0.5", "0.1:0.9:0.2", "1:0:0.5", "0:1:0", "0:1:nan",
                     "1:2:1e-300", ",", "1,,2", "0:1"]))
SIZES = st.one_of(
    st.integers(-4, 64).map(str),
    st.lists(st.integers(-2, 64), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", "x", "8,x", "1e3"]))
KERNELS = st.one_of(
    st.builds("geometric:p={},n_max={}".format, NUMBERS, st.integers(-1, 64)),
    st.builds("srw:n_max={}".format, st.integers(-1, 32)),
    st.builds("power:alpha={},s={},n_max={},defect={}".format,
              NUMBERS, st.integers(0, 2), st.integers(-1, 64), NUMBERS),
    st.sampled_from(["geometric:p=0.5", "bessel:nu=1", "power:alpha=3",
                     "geometric:p", "file:", "file:/no/such/kernel.csv", ""]))
COMMON = {
    "--kernel": KERNELS,
    "--law": st.sampled_from(["gaussian", "uniform", "rademacher", "cauchy"]),
    "--beta": NUMBERS,
    "--seed": st.sampled_from(["0", "7", "-3", "x", str(2**64)]),
    "--replicas": st.sampled_from(["1", "2", "0", "-1", "x"]),
    "--kind": st.sampled_from(["pinning", "copolymer", "ising"]),
}
OPTIONS = {
    "pure": {"--kernel": KERNELS, "--h": FIELDS},
    "fe": {**COMMON, "--h": FIELDS, "--N": SIZES},
    "phi": {**COMMON, "--m-grid": FIELDS, "--N": SIZES, "--epsilon": NUMBERS},
    "hc": {**COMMON, "--N-list": SIZES, "--tol": st.sampled_from(
        ["0.05", "0.2", "1e-300", "0", "-1", "nan"]),
        "--h-lo": NUMBERS, "--h-hi": NUMBERS},
    "smooth": {**COMMON, "--N-list": SIZES, "--tol": st.sampled_from(["0.05", "0.2"]),
               "--scan-gaps": FIELDS},
    "verify": {"--N": st.sampled_from(["4", "6", "0", "-1", "x"]),
               "--draws": st.sampled_from(["1", "2", "0", "x"]),
               "--seed": st.sampled_from(["0", "5", "x"])},
}

TIME_LIMIT_S = 60


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(OPTIONS)))
    opts = OPTIONS[cmd]
    names = draw(st.lists(st.sampled_from(sorted(opts)), unique=True, max_size=len(opts)))
    argv = [cmd]
    for name in names:
        argv.append(f"{name}={draw(opts[name])}")
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["hc", "--kernel=geometric:p=0.5,n_max=16", "--N-list=32",
               "--replicas=1", "--tol=1e-300"])
@example(argv=["fe", "--kernel=geometric:p=0.5,n_max=16", "--beta=1", "--h=-1e300",
               "--N=64", "--replicas=2"])
@example(argv=["fe", "--kernel=geometric:p=0.5,n_max=16", "--beta=1e300", "--h=0", "--N=64",
               "--replicas=2"])
@example(argv=["hc", "--kernel=geometric:p=0.5,n_max=16", "--beta=1", "--N-list=64",
               "--replicas=-1", "--tol=0.01"])  # no replicas once never returned
@example(argv=["phi", "--kernel=geometric:p=0.5", "--m-grid=0.5", "--N=64",
               "--epsilon=1e308"])  # once an OverflowError in the density window
def test_cli_never_crashes(monkeypatch, argv):
    monkeypatch.setenv("DEPIN_THREADS", "1")
    out, err = io.StringIO(), io.StringIO()

    def hung(signum, frame):
        # not an OSError such as TimeoutError, which run() would report as exit 1
        pytest.fail(f"{argv} ran for {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(TIME_LIMIT_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert "nan" not in out.getvalue().lower(), (argv, out.getvalue())
        assert "stderr=inf" not in out.getvalue(), (argv, out.getvalue())
