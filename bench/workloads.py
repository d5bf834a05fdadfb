"""The four workloads of the depin benchmark.

A round of a workload is a fixed list of ``depin`` commands.  The benchmark
seed decides the master seeds given to the program and, where a workload
has free inputs, their values (the pure fields, the copolymer field grid);
the amount of work in a round does not depend on it.  The program sees only
the generated command-line options.
"""

from dataclasses import dataclass

import numpy as np

# smooth: acceptance criterion 9 scaled down.  32 replicas keep the fitted
# exponent clear of the first-order value 1 at two standard errors for
# every seed tried; 16 replicas did not.  The two smallest default scan
# gaps (0.0156, 0.011) lie inside 10 * tol of h_c and never enter the fit,
# so they are left out; the delocalized side is then probed at h_c + 0.022
# and h_c + 0.088.
SMOOTH = {
    "kernel": "power:alpha=3,s=1,n_max=2048",
    "law": "gaussian",
    "beta": 1.0,
    "n_list": (512, 1024, 2048),
    "replicas": 32,
    "tol": 2e-3,
    "scan_gaps": (0.35, 0.248, 0.175, 0.124, 0.088, 0.062, 0.044, 0.031, 0.022),
}

# pure: acceptance criterion 2 (critical point of the models without
# disorder) on shorter chains, plus the homogeneous solver on a 10^6-atom
# SRW table at fields a few 1e-3 to 3e-2 below h_c = 0.
PURE = {
    "hc_kernels": ("geometric:p=0.5,n_max=64", "power:alpha=3,s=1,n_max=64,defect=0.5"),
    "law": "gaussian",
    "n_list": (4096, 8192, 16384),
    "tol": 2.5e-4,
    "srw_kernel": "srw:n_max=1000000",
    "gap_range": (4e-3, 3e-2),
    "fields": 6,
}

# phi: acceptance criterion 8's shape with fewer replicas; each replica
# builds one 2049 x 2049 count-resolved table.
PHI = {
    "kernel": "geometric:p=0.5,n_max=64",
    "law": "gaussian",
    "beta": 1.0,
    "n": 2048,
    "m_grid": "0.1:0.9:0.1",
    "replicas": 8,
}

# copolymer: the copolymer recursion at two sizes over a field grid that
# straddles the annealed critical point beta^2 / 2 = 0.5.  At N = 1024,
# 2048 a round started ten process pools in 1.8 s and its time spread
# 14.5 % over ten seeds; the larger sizes spend more of it computing.
COPOLYMER = {
    "kernel": "srw:n_max=512",
    "law": "gaussian",
    "beta": 1.0,
    "n_list": (2048, 4096),
    "fields": (0.2, 0.35, 0.5, 0.65, 0.8),
    "shift": 0.03,
    "replicas": 16,
}


@dataclass(frozen=True)
class Command:
    """One depin invocation: a tag the checks look it up by, and its argv."""

    tag: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    kernels: tuple       # kernel specs built by set-up
    laws: tuple          # law names built by set-up
    params: dict


WORKLOADS = {
    "smooth": Workload((SMOOTH["kernel"],), (SMOOTH["law"],), SMOOTH),
    "pure": Workload(PURE["hc_kernels"] + (PURE["srw_kernel"],), (PURE["law"],), PURE),
    "phi": Workload((PHI["kernel"],), (PHI["law"],), PHI),
    "copolymer": Workload((COPOLYMER["kernel"],), (COPOLYMER["law"],), COPOLYMER),
}


def _csv(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def inputs(name: str, seed: int) -> dict:
    """The seed-dependent inputs of a workload: program seeds and fields."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    out = {"seeds": [int(x) for x in rng.integers(0, 2**62, size=4)]}
    if name == "pure":
        lo, hi = PURE["gap_range"]
        gaps = np.exp(rng.uniform(np.log(lo), np.log(hi), PURE["fields"]))
        out["fields"] = sorted(float(-g) for g in gaps)
    elif name == "copolymer":
        shift = float(rng.uniform(-COPOLYMER["shift"], COPOLYMER["shift"]))
        out["fields"] = [h + shift for h in COPOLYMER["fields"]]
    return out


def commands(name: str, seed: int, outdir) -> list:
    """The commands of one round; outdir is where they write their files."""
    inp = inputs(name, seed)
    seeds = inp["seeds"]

    def out(tag):
        return ("--out", str(outdir / tag))

    if name == "smooth":
        p = SMOOTH
        return [Command("smooth", (
            "smooth", "--kernel", p["kernel"], "--law", p["law"],
            "--beta", repr(p["beta"]), "--N-list", _csv(p["n_list"]),
            "--replicas", str(p["replicas"]), "--seed", str(seeds[0]),
            "--tol", repr(p["tol"]), "--scan-gaps", _csv(p["scan_gaps"]))
            + out("smooth"))]
    if name == "pure":
        p = PURE
        cmds = [Command(f"hc{i}", (
            "hc", "--kernel", spec, "--law", p["law"], "--beta", "0",
            "--N-list", _csv(p["n_list"]), "--replicas", "1",
            "--seed", str(seeds[i]), "--tol", repr(p["tol"])) + out(f"hc{i}"))
            for i, spec in enumerate(p["hc_kernels"])]
        cmds.append(Command("pure", (
            "pure", "--kernel", p["srw_kernel"], "--h=" + _csv(inp["fields"]),
            "--asymptotics") + out("pure")))
        return cmds
    if name == "phi":
        p = PHI
        return [Command("phi", (
            "phi", "--kernel", p["kernel"], "--law", p["law"],
            "--beta", repr(p["beta"]), "--m-grid", p["m_grid"], "--N", str(p["n"]),
            "--replicas", str(p["replicas"]), "--seed", str(seeds[0])) + out("phi"))]
    if name == "copolymer":
        p = COPOLYMER
        return [Command("fe", (
            "fe", "--kind", "copolymer", "--kernel", p["kernel"], "--law", p["law"],
            "--beta", repr(p["beta"]), "--h=" + _csv(inp["fields"]),
            "--N", _csv(p["n_list"]), "--replicas", str(p["replicas"]),
            "--seed", str(seeds[0])) + out("fe"))]
    raise ValueError(f"unknown workload {name!r}")
