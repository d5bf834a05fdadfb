"""Pinned output bytes, and the one version string that every output embeds.

Each run below goes through `depin.cli.run` with `--out`; its digest is the
sha256 of its standard output followed by every file it wrote, in name
order.  The digests were recorded with numpy 2.4.6 on x86-64; another numpy
version may round a sum differently and so change them, which is not a
fault of the program.  Within one numpy version they must hold at every
`DEPIN_THREADS`, because output bytes do not depend on the worker count.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import depin
from depin.cli import run

RUNS = {
    "fe_pinning": ["fe", "--kernel", "geometric:p=0.5,n_max=64", "--beta", "1",
                   "--h=-0.5,-0.2", "--N", "128,256", "--replicas", "4", "--seed", "3"],
    "fe_copolymer": ["fe", "--kind", "copolymer", "--kernel", "srw:n_max=64", "--beta", "1",
                     "--h=0.2,0.6", "--N", "128,256", "--replicas", "4", "--seed", "5"],
    "phi": ["phi", "--kernel", "geometric:p=0.5,n_max=32", "--beta", "1",
            "--m-grid", "0.2:0.8:0.2", "--N", "64", "--replicas", "3", "--seed", "5"],
    # from 8 replicas on the replica mean's rounding shows: each density's
    # mean is taken over one contiguous copy of its replica values, as fe's
    "phi_r8": ["phi", "--kernel", "geometric:p=0.5,n_max=32", "--beta", "1",
               "--m-grid", "0.2:0.8:0.2", "--N", "64", "--replicas", "8", "--seed", "5"],
    "hc_beta0": ["hc", "--kernel", "geometric:p=0.5,n_max=64", "--beta", "0",
                 "--N-list", "256,512", "--replicas", "1", "--seed", "3", "--tol", "1e-3"],
    "hc_beta1": ["hc", "--kernel", "geometric:p=0.5,n_max=64", "--beta", "1",
                 "--N-list", "128,256", "--replicas", "4", "--seed", "7", "--tol", "0.01"],
    # the copolymer bisection: its default window and its h >= 0 rules
    "hc_copolymer": ["hc", "--kind", "copolymer", "--kernel", "srw:n_max=512", "--beta", "1",
                     "--N-list", "128,256,512", "--replicas", "16", "--seed", "2", "--tol",
                     "0.01"],
    # four chunks of the homogeneous solver's table walk, both branches
    "pure": ["pure", "--kernel", "srw:n_max=100000", "--h=-0.01,-0.05,-1", "--asymptotics"],
    "smooth": ["smooth", "--kernel", "power:alpha=3,s=1,n_max=128", "--beta", "1",
               "--N-list", "128,256", "--replicas", "4", "--seed", "11", "--tol", "0.02",
               "--scan-gaps", "0.4,0.3,0.22,0.16"],
    # 6 usable points: the route that refits h_c on the scan (hc_fit != hc)
    "smooth_refit": ["smooth", "--kernel", "power:alpha=3,s=1,n_max=128", "--beta", "1",
                     "--N-list", "128,256", "--replicas", "6", "--seed", "11", "--tol",
                     "0.02", "--scan-gaps", "0.6,0.5,0.4,0.3,0.22,0.16"],
    # a copolymer scan, which leaves out its fields below 0
    "smooth_copolymer": ["smooth", "--kind", "copolymer", "--kernel", "srw:n_max=512",
                         "--law", "gaussian", "--beta", "1", "--N-list", "128,256,512",
                         "--replicas", "16", "--seed", "2", "--tol", "0.01",
                         "--scan-gaps", "0.3,0.24,0.18,0.12,0.08,0.06"],
    # rows of 512 cells, which step under engine.WIDE_BUFFER (see WIDE_ROW)
    "fe_pinning_wide": ["fe", "--kernel", "power:alpha=3,s=1,n_max=512", "--beta", "1",
                        "--h=-0.5,-0.2", "--N", "512,1024", "--replicas", "4", "--seed", "3"],
    "fe_copolymer_wide": ["fe", "--kind", "copolymer", "--kernel", "srw:n_max=512",
                          "--beta", "1", "--h=0.2,0.6", "--N", "1024", "--replicas", "4",
                          "--seed", "5"],
    "phi_wide": ["phi", "--kernel", "geometric:p=0.5,n_max=32", "--beta", "1",
                 "--m-grid", "0.2:0.8:0.2", "--N", "512", "--replicas", "3", "--seed", "5"],
    # the copolymer branch of the count-resolved build
    "phi_copolymer": ["phi", "--kind", "copolymer", "--kernel", "srw:n_max=16", "--beta",
                      "1", "--m-grid", "0.2:0.8:0.2", "--N", "32", "--replicas", "3",
                      "--seed", "5"],
}

DIGESTS = {
    "fe_copolymer": "5a72bd4a4d21a71d0ff8bc0745374d0bc3f093e00e5ec21847efa7f035c3fcf2",
    "fe_copolymer_wide": "30ec4d63f68cced2f23111f5b67184216c7510b1cd36145ea65ea221865ace84",
    "fe_pinning": "806a5642098bbc49cd6bf8a798a5fb0a51fc95789b49fa8a1a297a795b2c8d05",
    "fe_pinning_wide": "7633130c958f67fef0bf0f7818fd23830dd84bd81e79e0c41503dce1fb97e825",
    "hc_beta0": "fd15715e6944c7e4dada54bf6da4ab2c59243124247f2d84e6cec9cfa2d2f486",
    "hc_beta1": "a7bd2f6c631fae11944dba0c4873cb03e734e5e5bb4e85ce87295515d37e279f",
    "hc_copolymer": "7e3da16df16db8b045ac357c174da0eccb8b8a08aece35931381a29eac4bb129",
    "phi": "982330cc8766684b6899c3aaa924e5e0672e564829d6a2a96fed51c9db26e191",
    "phi_copolymer": "830585c4f8d3c70cfcae644689f2d740e9de91c415f8e8171fd104744323e4a5",
    "phi_r8": "234c6a7372f790d86bb78935778c3380182dbc250c623cc9ea886cc3ee2785ba",
    "phi_wide": "0fd71656299bfbdccceec89031175f828ef6526a35b0ca370e73a3593f84056c",
    "pure": "b6d02946fd428943ef072c38563976480570f6965b07380f78da6cc9ce83b9e3",
    "smooth": "39b41e01910c944213b9461cdaa2ae6b7d3ec033467f0d16be4b07456a790517",
    "smooth_copolymer": "5d50fdcea889e9da8dbf5cc9f379fe366d65bbd5e59f5ff7826549be1f4bce98",
    "smooth_refit": "7b1ba20c2af54241754a82429fb95c0ee204d52d53775b27375bf623d26ebb3f",
}


def _digest(argv, out: Path, capsys) -> str:
    assert run(argv + ["--out", str(out)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_are_pinned(name, threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DEPIN_THREADS", threads)
    assert _digest(RUNS[name], tmp_path / "out", capsys) == DIGESTS[name]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_pure_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a BLAS dot product of 10^5 terms is split between its threads, and the
    # split changes its rounding; the solver's sums never go through BLAS
    src = Path(__file__).resolve().parents[1] / "src"
    seen = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(BLAS_THREADS, threads)}
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "depin.cli", "pure", "--kernel", "srw:n_max=100000",
             "--h=-0.01,-0.05,-1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        seen.append((done.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert seen[0] == seen[1]


def test_version_has_one_value():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == depin.__version__


def test_numpy_is_the_one_runtime_dependency():
    # scipy is a reference for the tests alone: no run imports it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(req.startswith("scipy") for req in project["optional-dependencies"]["test"])
