import ast
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from depin import ModelSpec, analysis, cli, estimator, kernel
from depin.cli import (MAX_RANGE_POINTS, _float_list, parse_kernel_spec,
                       read_config_file, run)


def test_parse_kernel_specs(tmp_path):
    k = parse_kernel_spec("geometric:p=0.5,n_max=32")
    assert k.family == "geometric" and k.n_max == 32
    k = parse_kernel_spec("srw:n_max=16")
    assert k.period == 2
    k = parse_kernel_spec("power:alpha=3,s=1,n_max=100,defect=0.25")
    assert k.defect_mass == 0.25
    path = tmp_path / "k.csv"
    path.write_text("s=1,k_inf=0.0,alpha=2.0\n1,1.0\n", encoding="utf-8")
    assert parse_kernel_spec(f"file:{path}").n_max == 1
    with pytest.raises(ValueError):
        parse_kernel_spec("bessel:nu=0")
    with pytest.raises(ValueError):
        parse_kernel_spec("power:alpha=3")


def test_pure_subcommand(capsys):
    code = run(["pure", "--kernel", "geometric:p=0.5", "--h", "-1"])
    out = capsys.readouterr().out
    assert code == 0
    b = float(out.split("b=")[1].split()[0])
    assert b == pytest.approx(math.log(0.5 + 0.5 * math.exp(-1)) + 1, abs=1e-10)


def test_pure_asymptotics_flag(capsys):
    # zeta(alpha) and zeta(alpha - 1) inside and at both ends of alpha > 2
    for alpha in ("3", "1e300", "2.0000000000000004"):
        code = run(["pure", "--kernel", f"power:alpha={alpha},s=1,n_max=1000",
                    "--h", "-0.5", "--asymptotics"])
        out = capsys.readouterr().out
        assert code == 0, alpha
        assert "order=first" in out, alpha
        assert math.isfinite(float(out.split("slope=")[1].split()[0])), alpha


def test_fe_beta0_stderr_zero(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["fe", "--kernel", "geometric:p=0.5,n_max=64", "--beta", "0",
                "--h", "-1", "--N", "4096", "--replicas", "1", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    lines = (out / "fe.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "N,beta,h,mean,stderr,replicas,seed"
    row = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert float(row[4]) == 0.0
    assert (out / "fe.gp").exists()


def test_fe_csv_reproducible(tmp_path):
    args = ["fe", "--kernel", "geometric:p=0.5,n_max=64", "--law", "gaussian",
            "--beta", "1", "--h=-0.5,-0.2", "--N", "256,512",
            "--replicas", "4", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "fe.csv").read_bytes() == (b / "fe.csv").read_bytes()


def test_phi_subcommand(tmp_path):
    out = tmp_path / "o"
    code = run(["phi", "--kernel", "geometric:p=0.5,n_max=48", "--beta", "1",
                "--m-grid", "0.2:0.8:0.2", "--N", "128", "--replicas", "3",
                "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = [ln for ln in (out / "phi.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "m,epsilon,value,stderr,feasible"
    assert len(lines) == 5
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_hc_subcommand(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["hc", "--kernel", "geometric:p=0.5,n_max=64", "--beta", "0",
                "--N-list", "1024,2048,4096", "--replicas", "1", "--seed", "3",
                "--tol", "1e-3", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "hc.json").read_text())
    assert abs(payload["hc"]) < 5e-3
    assert payload["config"]["command"] == "hc"


def test_hc_bytes_do_not_depend_on_speculation(tmp_path, monkeypatch):
    # one field per build (depth 1), the default depth, and a deep one
    # write the same hc.json
    model = ModelSpec("pinning", 0.0, parse_kernel_spec("geometric:p=0.5,n_max=64"))
    written, depths = [], []
    for cells in (1, analysis.SPECULATION_CELLS, 1 << 14):
        monkeypatch.setattr(analysis, "SPECULATION_CELLS", cells)
        depths.append(analysis._speculation_depth(model, 512, 1))
        out = tmp_path / str(cells)
        assert run(["hc", "--kernel", "geometric:p=0.5,n_max=64", "--beta", "0",
                    "--N-list", "256,512", "--replicas", "1", "--seed", "3",
                    "--tol", "1e-3", "--out", str(out)]) == 0
        written.append((out / "hc.json").read_bytes())
    assert depths == [1, 4, 8]
    assert written[0] == written[1] == written[2]


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = geometric:p=0.5\nh = -1\n# comment\n", encoding="utf-8")
    code = run(["pure", "--config", str(cfg)])
    assert code == 0
    b_file = float(capsys.readouterr().out.split("b=")[1].split()[0])
    # flags override config entries
    code = run(["pure", "--config", str(cfg), "--h", "-2"])
    assert code == 0
    b_flag = float(capsys.readouterr().out.split("b=")[1].split()[0])
    assert b_flag > b_file
    assert read_config_file(cfg) == {"kernel": "geometric:p=0.5", "h": "-1"}


def test_config_file_takes_a_byte_order_mark(tmp_path, capsys):
    # the mark is not part of the first key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufeffkernel = geometric:p=0.5\nh = -1\n", encoding="utf-8")
    assert read_config_file(cfg) == {"kernel": "geometric:p=0.5", "h": "-1"}
    assert run(["pure", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_config_file_rejects_unknown_keys_and_booleans(tmp_path, capsys):
    # a misspelt key once ran with its default, and an unreadable boolean
    # once turned the flag off, both with exit 0
    cases = [("fe", "N = 64\nreplica = 3\n", "'replica'"),
             ("pure", "asymptotics = ture\n", "--asymptotics")]
    for cmd, lines, named in cases:
        cfg = tmp_path / f"{cmd}.cfg"
        cfg.write_text("kernel = geometric:p=0.5\nh = -1\n" + lines, encoding="utf-8")
        assert run([cmd, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
    cfg = tmp_path / "no.cfg"
    cfg.write_text("kernel = geometric:p=0.5\nh = -1\nasymptotics = No\n", encoding="utf-8")
    assert run(["pure", "--config", str(cfg)]) == 0
    assert "order=" not in capsys.readouterr().out


def _no_build(*args):
    pytest.fail("an input no run can use reached a build")


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run(["pure", "--h", "-1"]) == 2                  # missing required
    assert run(["pure", "--kernel", "geometric:p=0.5",
                "--h", "oops"]) == 2                        # malformed value
    assert run(["frobnicate"]) == 2                         # unknown command
    assert run(["pure", "--kernel", "file:/no/such/file.csv", "--h", "-1"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("just garbage\n", encoding="utf-8")
    assert run(["pure", "--config", str(bad), "--kernel", "geometric:p=0.5",
                "--h", "-1"]) == 1
    geo = ["--kernel", "geometric:p=0.5"]
    # non-finite numbers are usage errors, never a NaN result with exit 0
    assert run(["fe", *geo, "--beta", "inf", "--h=-0.5", "--N", "64",
                "--replicas", "2"]) == 2
    assert run(["fe", *geo, "--beta", "nan", "--h=-0.5", "--N", "64",
                "--replicas", "2"]) == 2
    assert run(["pure", *geo, "--h=nan"]) == 2
    assert run(["pure", *geo, "--h=-inf"]) == 2
    assert run(["hc", *geo, "--N-list", "64", "--tol", "nan"]) == 2
    assert run(["hc", *geo, "--N-list", "64", "--h-lo=-inf", "--h-hi", "0"]) == 2
    assert run(["phi", *geo, "--N", "64", "--epsilon", "nan", "--m-grid", "0.5"]) == 2
    assert run(["smooth", *geo, "--N-list", "64", "--tol", "inf"]) == 2
    # so is a tolerance that is not positive (it once exited 1 from the
    # library's own check)
    for argv in (["hc", *geo, "--N-list", "64", "--tol", "0"],
                 ["smooth", *geo, "--N-list", "64", "--tol=-1"]):
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"depin {argv[0]}: usage error: --tol: "), err
    # and so is a model kind that no model has, as a flag or a config entry
    # (it once exited 1 from ModelSpec's own check)
    ising = tmp_path / "ising.cfg"
    ising.write_text("kind = ising\n", encoding="utf-8")
    for argv in (["fe", *geo, "--kind", "ising", "--h=-0.5", "--N", "64"],
                 ["fe", *geo, "--config", str(ising), "--h=-0.5", "--N", "64"]):
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("depin fe: usage error: --kind: bad value 'ising'"), err
    # a repeated field would repeat its row, in pure as in fe (pure once
    # printed and wrote it twice)
    assert run(["pure", *geo, "--h=-0.1,-0.1"]) == 2
    # ranges: zero, non-finite or wrong-signed steps, and ranges whose
    # length overflows, are usage errors
    for grid in ("0.1:0.9:0", "0.1:0.9:nan", "0.1:0.9:inf", "0.1:0.9:-0.1",
                 "0.1:nan:0.1", "-1e308:1e308:1", "1:2:1e-300"):
        assert run(["phi", *geo, f"--m-grid={grid}", "--N", "64"]) == 2
    # an infinite tail exponent is a bad kernel, not a one-atom law
    assert run(["pure", "--kernel", "power:alpha=inf,s=1,n_max=100", "--h=-0.5",
                "--asymptotics"]) == 1
    # a key the family does not take, or a repeated key, is named, never
    # dropped (nmax=10 once gave the default horizon's b, and p=0.5,p=0.9
    # the b of p=0.9)
    for spec, key, keys in (("geometric:p=0.5,nmax=10", "'nmax'", "p, n_max"),
                            ("srw:n_max=8,s=4", "'s'", "n_max"),
                            ("geometric:p=0.5,p=0.9", "'p'", "repeats")):
        capsys.readouterr()
        assert run(["pure", "--kernel", spec, "--h=-0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("depin pure: error: ") and err.count("\n") == 1
        assert key in err and keys in err
    # every key=value input names the key it rejects, in one line with exit
    # 1: a value its converter rejects, a missing key, an empty item, a key
    # repeated in a config file (in either spelling) or in a kernel-file
    # header, and a header key no kernel takes (srw:n_max=1e3 once printed
    # a bare int() message, a repeated header or config key kept its last
    # value and foo=3 was dropped)
    files = {"beta.cfg": "kernel = geometric:p=0.5\nh = -1\nbeta = 1\nbeta = 0\nN = 64\n",
             "nlist.cfg": "kernel = geometric:p=0.5\nN-list = 64\nN_list = 128\n",
             "s.csv": "s=1,k_inf=0,alpha=nan,s=2\n1,1.0\n",
             "foo.csv": "s=1,k_inf=0,alpha=nan,foo=3\n1,1.0\n",
             "alpha.csv": "s=1,k_inf=0\n1,1.0\n",
             "inf.csv": "s=1,k_inf=0,alpha=inf\n1,1.0\n",
             "half.csv": "s=1,k_inf=0,alpha=0.5\n1,1.0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    pure = ["pure", "--h=-0.5", "--kernel"]
    for argv, named in (
            ([*pure, "geometric:p=0.5,n_max="], "'n_max'"),
            ([*pure, "srw:n_max=1e3"], "'n_max'"),
            ([*pure, "power:alpha=x,s=1,n_max=10"], "'alpha'"),
            ([*pure, "geometric:n_max=4"], "'p'"),
            ([*pure, "geometric:p=0.5,"], "''"),
            (["fe", "--config", str(tmp_path / "beta.cfg")], "'beta'"),
            (["hc", "--config", str(tmp_path / "nlist.cfg")], "'N_list'"),
            ([*pure, f"file:{tmp_path / 's.csv'}"], "repeats 's'"),
            ([*pure, f"file:{tmp_path / 'foo.csv'}"], "'foo'"),
            ([*pure, f"file:{tmp_path / 'alpha.csv'}"], "'alpha'"),
            # an infinite declared tail exponent is not a tail exponent
            ([*pure, f"file:{tmp_path / 'inf.csv'}", "--asymptotics"], "tail exponent"),
            # a constructor error names the file, as the header's do
            ([*pure, f"file:{tmp_path / 'half.csv'}"],
             f"{tmp_path / 'half.csv'}: declared tail exponent")):
        capsys.readouterr()
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"depin {argv[0]}: error: "), argv
        assert err.count("\n") == 1 and named in err, err
    # a size that no path reaches (atoms at 4 and 8 only, or an odd size
    # of the period-2 SRW law) is named before any estimate runs, by every
    # command that takes sizes (fe once printed F=-inf with exit 0, phi every
    # window -inf, and both exited 1 from the build at an odd SRW size)
    k48 = tmp_path / "k48.csv"
    k48.write_text("s=1,k_inf=0.0,alpha=2.0\n4,0.5\n8,0.5\n", encoding="utf-8")
    # (and so is 10^18 + 2 on atoms 4 and 8, which once ended in MemoryError)
    for spec, n in ((f"file:{k48}", 6), ("srw:n_max=8", 7), (f"file:{k48}", 10**18 + 2)):
        for argv in (["hc", "--N-list", f"{n},8,16", "--tol", "0.01"],
                     ["smooth", "--N-list", f"{n},8,16", "--tol", "0.01"],
                     ["fe", "--N", f"16,{n},8", "--h=-0.5"],
                     ["phi", "--N", str(n), "--m-grid", "0.5"]):
            capsys.readouterr()
            with monkeypatch.context() as mp:
                mp.setattr(estimator, "_map_replicas", _no_build)
                assert run([*argv, "--kernel", spec, "--beta", "1", "--replicas", "2"]) == 2
            assert capsys.readouterr().err == (
                f"depin {argv[0]}: usage error: no path of the kernel ends at N={n}\n")
    # and so is a repeated size (phi takes one size)
    for argv in (["hc", "--N-list", "16,8,16", "--tol", "0.01"],
                 ["smooth", "--N-list", "16,8,16", "--tol", "0.01"],
                 ["fe", "--N", "16,8,16", "--h=-0.5"],
                 ["phi", "--N", "16,16", "--m-grid", "0.5"]):
        capsys.readouterr()
        with monkeypatch.context() as mp:
            mp.setattr(estimator, "_map_replicas", _no_build)
            assert run([*argv, "--kernel", "power:alpha=3,s=1,n_max=16", "--beta", "1",
                        "--replicas", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"depin {argv[0]}: usage error: ") and err.count("\n") == 1
        assert ("--N: bad value" if argv[0] == "phi" else "each size may appear once") in err
    # an envelope constant beyond the floating-point range is a one-line
    # error before any build (at beta = 100 the bisection and scan once ran
    # in full, then ended in a ZeroDivisionError traceback)
    capsys.readouterr()
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "locate_hc", lambda *a: pytest.fail("built before the check"))
        assert run(["smooth", "--kernel", "power:alpha=3,n_max=128", "--law", "rademacher",
                    "--beta", "100", "--N-list", "64,128", "--replicas", "4", "--tol", "0.5",
                    "--scan-gaps", "80,60,50,40,30,20,10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("depin smooth: error: beta=100.0 ")
    assert err.count("\n") == 1
    # no replicas, and a search window given by one end or upside down, are
    # usage errors before any estimate (no replicas once made hc and smooth
    # hang, and a lone or inverted window was dropped or probed in vain)
    usage = [
        ["hc", "--kernel", "geometric:p=0.5,n_max=16", "--beta", "1", "--N-list", "64",
         "--replicas=-1", "--tol", "0.01"],
        ["smooth", "--kernel", "power:alpha=3,s=1,n_max=64", "--beta", "1",
         "--N-list", "64,128", "--replicas", "0"],
        # the error bars of smooth are the spread of at least 2 replicas
        ["smooth", "--kernel", "power:alpha=3,s=1,n_max=64", "--beta", "1",
         "--N-list", "64", "--replicas", "1"],
        ["hc", *geo, "--N-list", "64", "--h-lo", "0.3"],
        ["hc", *geo, "--N-list", "64", "--h-hi", "0.3"],
        ["hc", *geo, "--N-list", "64", "--h-lo", "0.3", "--h-hi=-0.5"],
        # no copolymer coupling exists below h = 0: named before any build
        ["hc", "--kind", "copolymer", "--kernel", "srw:n_max=64", "--beta", "0.5",
         "--N-list", "64,128", "--replicas", "4", "--seed", "2", "--tol", "0.05",
         "--h-lo=-1", "--h-hi=1"],
        # a repeated size is not an independent one
        ["hc", *geo, "--beta", "1", "--N-list", "64,32,64", "--replicas", "2"],
        ["hc", *geo, "--beta", "1", "--N-list", "64,64", "--replicas", "2"],
        ["smooth", "--kernel", "power:alpha=3,s=1,n_max=64", "--beta", "1",
         "--N-list", "64,32,64", "--replicas", "2"],
        # fe prints one row per (size, field): a repeat would print it twice
        ["fe", *geo, "--beta", "1", "--h=-0.5", "--N", "64,64", "--replicas", "4"],
        ["fe", *geo, "--beta", "1", "--h=-0.5,-0.5", "--N", "64", "--replicas", "4"],
        # and phi prints one row per density
        ["phi", "--kernel", "geometric:p=0.5,n_max=8", "--m-grid", "0.5,0.5", "--N", "16",
         "--replicas", "2", "--beta", "1"],
        # scan gaps lie strictly below h_c, each once, and number at least the
        # 4 usable points a fit needs
        *(["smooth", "--kernel", "power:alpha=3,s=1,n_max=256", "--beta", "1",
           "--N-list", "256,512", "--replicas", "8", "--seed", "11", "--tol", "0.02",
           f"--scan-gaps={gaps}"]
          for gaps in ("0.4,0.3,0.22,0.16,0.12,-0.09", "0.4,0.3,0.22,0.16,0.12,0",
                       "0.4,0.4,0.22,0.16,0.12,0.09", "0.3,0.2,0.1")),
        # a seed outside [0, 2^64) would alias one inside, under another echo
        *([*argv, f"--seed={seed}"] for seed in (-1, 2**64, -(2**64))
          for argv in (["fe", *geo, "--beta", "1", "--h=-0.5", "--N", "64",
                        "--replicas", "2"],
                       ["phi", *geo, "--N", "64", "--m-grid", "0.5"],
                       ["hc", *geo, "--N-list", "64"],
                       ["smooth", "--kernel", "power:alpha=3,s=1,n_max=64", "--beta", "1",
                        "--N-list", "64,128", "--replicas", "2"],
                       ["verify"])),
    ]
    for argv in usage:
        capsys.readouterr()
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"depin {argv[0]}: usage error: ") and err.count("\n") == 1
    # the ends of the seed range are seeds
    for seed in (0, 2**64 - 1):
        assert run(["fe", *geo, "--beta", "1", "--h=-0.5", "--N", "16", "--replicas", "2",
                    f"--seed={seed}"]) == 0
    # verify with nothing to check, or a size the copolymer check cannot
    # use, stops before any check runs
    for opts in (["--draws", "0"], ["--draws=-3"], ["--N", "0"], ["--N", "1"]):
        capsys.readouterr()
        assert run(["verify", *opts]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("depin verify: usage error: ")
    capsys.readouterr()


_GEO = ["--kernel", "geometric:p=0.5,n_max=32"]
_WRITERS = {
    "pure": (["pure", *_GEO, "--h=-1,-0.5"], {"pure.csv", "pure.gp"}),
    "fe": (["fe", *_GEO, "--beta", "1", "--h=-0.5", "--N", "64", "--replicas", "2"],
           {"fe.csv", "fe.gp"}),
    "phi": (["phi", *_GEO, "--beta", "1", "--m-grid", "0.5", "--N", "32",
             "--replicas", "2"], {"phi.csv", "phi.gp"}),
    "hc": (["hc", *_GEO, "--N-list", "64,128", "--replicas", "1", "--tol", "0.05"],
           {"hc.json"}),
    "smooth": (["smooth", "--kernel", "power:alpha=3,s=1,n_max=128", "--beta", "1",
                "--N-list", "128,256", "--replicas", "4", "--seed", "11", "--tol", "0.02",
                "--scan-gaps", "0.4,0.3,0.22,0.16,0.12,0.09"],
               {"smooth.json", "smooth_points.csv", "smooth.gp"}),
}


def test_out_writes_each_commands_files_and_nothing_without_it(tmp_path, monkeypatch,
                                                                capsys):
    monkeypatch.setenv("DEPIN_THREADS", "1")
    monkeypatch.chdir(tmp_path)
    for cmd, (argv, names) in _WRITERS.items():
        out = tmp_path / "out" / cmd
        assert run([*argv, "--out", str(out)]) == 0, cmd
        assert {p.name for p in out.iterdir()} == names
        # the same run without --out leaves the working directory as it was
        assert run(argv) == 0, cmd
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
    capsys.readouterr()


def test_missing_options_are_named_in_table_order(capsys):
    # every value is converted first; then the first missing required
    # option of the command's table is named
    cases = [(["fe", "--beta", "1"], "missing required option --kernel"),
             (["fe", *_GEO], "missing required option --h"),
             (["phi", *_GEO], "missing required option --m-grid"),
             (["hc", "--tol", "0.1"], "missing required option --kernel"),
             (["fe", "--N", "x"], "--N: bad value 'x' (invalid literal for int() with "
                                  "base 10: 'x')")]
    for argv, message in cases:
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"depin {argv[0]}: usage error: {message}\n"


def test_copolymer_bracket_stops_at_zero(monkeypatch, capsys):
    # h = 0 is delocalized here; the lower end widens no further than h = 0,
    # where copolymer couplings end, and the search fails on its own terms
    monkeypatch.setenv("DEPIN_THREADS", "1")
    capsys.readouterr()
    assert run(["hc", "--kind", "copolymer", "--kernel", "srw:n_max=128", "--beta", "0.5",
                "--N-list", "64,128", "--replicas", "8", "--seed", "2",
                "--tol", "0.01"]) == 1
    assert capsys.readouterr().err == (
        "depin hc: error: no localized endpoint found in the search range\n")


def test_bad_worker_count_is_a_usage_error(monkeypatch, capsys):
    # checked before any command runs, with the variable named
    args = ["fe", "--kernel", "geometric:p=0.5", "--beta", "1", "--h=-0.5",
            "--N", "16", "--replicas", "2"]
    for value in ("abc", "1e3", "-3", "0", "2.5"):
        monkeypatch.setenv("DEPIN_THREADS", value)
        capsys.readouterr()
        assert run(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"depin fe: usage error: DEPIN_THREADS must be an integer >= 1, "
                       f"not {value!r}\n")
    assert run(["verify", "--N", "4", "--draws", "1"]) == 2
    for value in ("1", "2", ""):
        monkeypatch.setenv("DEPIN_THREADS", value)
        assert run(args) == 0
    capsys.readouterr()


def test_range_point_cap():
    # the length is checked before any point is built
    assert len(_float_list(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    for text in (f"0:{MAX_RANGE_POINTS}:1", "1:2:1e-300"):
        with pytest.raises(ValueError, match="more than"):
            _float_list(text)


def test_range_stops_at_hi(capsys):
    # no point passes hi, on either side of zero and for either sign of step
    assert _float_list("-1:0:0.6") == [-1.0, -0.4]
    assert _float_list("0:1:0.6") == [0.0, 0.6]
    assert _float_list("1:0:-0.6") == [1.0, 0.4]
    # a point within rounding of hi is kept
    assert len(_float_list("0.1:0.9:0.1")) == 9
    assert len(_float_list("0:0.7:0.1")) == 8
    assert _float_list("0:1:0.5") == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="empty"):
        _float_list("0:-0.4:1")
    assert run(["pure", "--kernel", "geometric:p=0.5", "--h=-1:0:0.6"]) == 0
    fields = [float(line.split()[0][2:]) for line in capsys.readouterr().out.splitlines()]
    assert fields == [-1.0, -0.4]


def test_repeated_list_values_are_named(monkeypatch, capsys):
    # a repeated field, density or scan gap is one usage line naming its
    # option, before any build, in a comma list or a range finer than the
    # float resolution at its points
    monkeypatch.setattr(estimator, "_map_replicas", _no_build)
    geo = ["--kernel", "geometric:p=0.5,n_max=16"]
    for argv, option in (
            (["pure", *geo, "--h=-0.1,-0.1"], "--h"),
            (["pure", *geo, "--h=1:1.0000000000000002:1e-17"], "--h"),
            (["fe", *geo, "--beta", "1", "--h=-0.5,-0.2,-0.5", "--N", "16"], "--h"),
            (["phi", *geo, "--beta", "1", "--m-grid", "0.5,0.5", "--N", "16"], "--m-grid"),
            (["phi", *geo, "--beta", "1", "--m-grid=0.5:0.5000000000000001:1e-17",
              "--N", "16"], "--m-grid"),
            (["smooth", "--kernel", "power:alpha=3,s=1,n_max=64", "--beta", "1",
              "--N-list", "64", "--scan-gaps", "0.4,0.2,0.4"], "--scan-gaps")):
        capsys.readouterr()
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"depin {argv[0]}: usage error: {option}: bad value "), err
        assert err.endswith("(a value repeats)\n"), err


def test_smooth_points_carry_the_largest_size(tmp_path, capsys):
    # the rows of smooth_points.csv are extrapolated from every size, and
    # labelled with the largest whatever the order given (an unsorted list
    # once labelled them with its last size)
    texts = {}
    for sizes in ("64,128", "128,64"):
        out = tmp_path / sizes
        assert run(["smooth", "--kernel", "power:alpha=3,s=1,n_max=128", "--beta", "1",
                    "--N-list", sizes, "--replicas", "4", "--seed", "11", "--tol", "0.02",
                    "--scan-gaps", "0.4,0.3,0.22,0.16,0.12,0.09", "--out", str(out)]) == 0
        # the option echo aside
        texts[sizes] = [capsys.readouterr().out] + [
            path.read_text(encoding="utf-8").replace(f"N_list={sizes}", "N_list=64,128")
            .replace(f'"N_list": "{sizes}"', '"N_list": "64,128"')
            for path in sorted(out.iterdir())]
    assert texts["128,64"] == texts["64,128"]
    rows = [line for line in (tmp_path / "128,64" / "smooth_points.csv").read_text(
        encoding="utf-8").splitlines() if not line.startswith(("#", "N,"))]
    assert rows and all(row.startswith("128,") for row in rows)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_memory_error_is_one_line(monkeypatch, capsys, threads):
    # an allocation numpy refuses ends a run with one error line, not a
    # traceback; raised by a stub, since a host that overcommits would try
    # to page in a real request of that size
    monkeypatch.setenv("DEPIN_THREADS", threads)

    message = "Unable to allocate 7.28 TiB for an array"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(kernel, "srw_kernel", refuse)
    monkeypatch.setattr(estimator, "sample_disorder", refuse)
    for argv in (["pure", "--kernel", "srw:n_max=1000000000000", "--h=-0.1"],
                 ["fe", "--kernel", "geometric:p=0.5", "--beta", "1", "--h=-0.5",
                  "--N", "64", "--replicas", "2"]):
        capsys.readouterr()
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"depin {argv[0]}: error: {message}\n"
    # a MemoryError without a message is named by its type
    message = ""
    assert run(["pure", "--kernel", "srw:n_max=8", "--h=-0.1"]) == 1
    assert capsys.readouterr().err == "depin pure: error: MemoryError\n"


def test_readme_commands_parse():
    # every example of the README's command-line block parses and converts,
    # without a build
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
                if cmd.startswith("depin ")]
    assert len(commands) == 7
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        cli._merge_options(args.command, args)


def test_verify_subcommand(capsys):
    code = run(["verify", "--N", "10", "--draws", "4", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all oracle checks passed" in out


def test_smooth_small_run(tmp_path, capsys):
    out = tmp_path / "o"
    code = run(["smooth", "--kernel", "power:alpha=3,s=1,n_max=256",
                "--law", "gaussian", "--beta", "1", "--N-list", "256,512",
                "--replicas", "8", "--seed", "11", "--tol", "0.02",
                "--scan-gaps", "0.4,0.3,0.22,0.16,0.12,0.09", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "smooth.json").read_text())
    for key in ("hc", "hc_err", "exponent", "exponent_err", "envelope_ok",
                "points", "config"):
        assert key in payload
    assert (out / "smooth_points.csv").exists()
    assert (out / "smooth.gp").exists()
    assert isinstance(payload["pure_order"], str)


def test_smooth_copolymer_scan_stays_at_nonnegative_fields(tmp_path, capsys):
    # s * n_max > max N, and scan gaps above h_c: the fields below 0 are
    # left out, and a copolymer has no homogeneous pinning contrast
    out = tmp_path / "o"
    code = run(["smooth", "--kind", "copolymer", "--kernel", "srw:n_max=512",
                "--law", "gaussian", "--beta", "1", "--N-list", "128,256,512",
                "--replicas", "16", "--seed", "2", "--tol", "0.01",
                "--scan-gaps", "0.3,0.24,0.18,0.12,0.08,0.06", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "smooth.json").read_text())
    assert payload["hc"] < 0.3
    assert payload["points"] and all(h >= 0 for h, _f, _s in payload["points"])
    assert (payload["pure_order"], payload["pure_slope"],
            payload["pure_ratio_target"]) == (None, None, None)
    capsys.readouterr()


_IMPORTS_SCRIPT = """\
import contextlib, io, json, os, sys
import depin.cli as cli

def loaded():
    return [m for m in ("scipy", "multiprocessing", "concurrent.futures.process")
            if m in sys.modules]

report = {"import": loaded()}
runs = {
    "fe": ("2", ["fe", "--kernel", "geometric:p=0.5", "--beta", "0", "--h=-0.5",
                 "--N", "64", "--replicas", "4"]),
    "phi": ("1", ["phi", "--kernel", "geometric:p=0.5", "--beta", "1",
                  "--m-grid", "0.3,0.6", "--N", "64", "--replicas", "4"]),
    "srw": ("1", ["pure", "--kernel", "srw:n_max=64", "--h=-0.5", "--asymptotics"]),
    "geometric": ("1", ["pure", "--kernel", "geometric:p=0.5", "--h=-0.5",
                        "--asymptotics"]),
    "power2": ("1", ["pure", "--kernel", "power:alpha=2,s=1,n_max=100", "--h=-0.5",
                     "--asymptotics"]),
    "power": ("1", ["pure", "--kernel", "power:alpha=3,s=1,n_max=100", "--h=-0.5",
                    "--asymptotics"]),
    "smooth": ("1", ["smooth", "--kernel", "power:alpha=3,s=1,n_max=128", "--beta", "1",
                     "--N-list", "128,256", "--replicas", "4", "--seed", "11",
                     "--tol", "0.02", "--scan-gaps", "0.4,0.3,0.22,0.16", "--out", "smooth"]),
}
for name, (threads, argv) in runs.items():
    os.environ["DEPIN_THREADS"] = threads
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    report[name] = [code, out.getvalue().splitlines()[-1], loaded()]
print(json.dumps(report))
"""


def test_cli_imports_no_private_name():
    # the command line asks each module through its public names (it once
    # imported the size rule as analysis._sizes)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("depin"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private


def test_runs_import_neither_scipy_nor_an_unused_pool(tmp_path):
    # a fresh interpreter: importing the command line loads neither scipy
    # nor a process pool; a beta = 0 estimate and a one-worker run start no
    # pool, and no run loads scipy, not even the ideal mean return time of
    # a power law with alpha > 2 (zeta), in `pure --asymptotics` or in a
    # pinning `smooth`'s homogeneous contrast, whose values are unchanged
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _IMPORTS_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["import"] == []
    for name in ("fe", "phi", "srw", "geometric", "power2", "power", "smooth"):
        code, _line, loaded = report[name]
        assert (code, loaded) == (0, []), name
    assert report["srw"][1] == "order=second exponent=2.0 slope=- hc=-0.0"
    assert report["geometric"][1] == "order=first exponent=1.0 slope=0.5 hc=-0.0"
    assert report["power"][1] == "order=first exponent=1.0 slope=0.7307629694014385 hc=-0.0"
    smooth = json.loads((tmp_path / "smooth" / "smooth.json").read_text())
    assert smooth["pure_ratio_target"] == 0.7307629694014385
