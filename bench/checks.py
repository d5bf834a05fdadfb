"""Output checks of the depin benchmark.

Every check compares the program's output with a closed form or with a
computation made here, never with a stored copy of an earlier output, so
it keeps holding when a change legitimately moves the program's numbers
(new seeds, a different recursion order).  Statistical checks allow three
standard errors.

For each workload there is a parser (command outputs -> plain data), a
reference (the benchmark's own computations, from the workload's inputs)
and a check (data, reference -> list of failure messages, empty when the
output is correct).  Kernels, annealed roots and recursions are computed
here from closed forms; the program supplies only the phi reference's
disorder draws (see reference_phi).
"""

import json
import math
import re

import numpy as np
from scipy.special import gammaln, logsumexp

ZETA2 = math.pi**2 / 6.0
ZETA3 = 1.2020569031595942854
LOG2 = math.log(2.0)
NSIGMA = 3.0

def _fields(line: str) -> dict:
    """key=value pairs of one output line."""
    return dict(re.findall(r"(\w+)=(\S+)", line))


# -- kernels from their closed forms ----------------------------------------

def power_density(alpha: float, n_max: int, defect: float = 0.0) -> np.ndarray:
    """K(n) = c n^-alpha on 1..n_max with total mass 1 - defect."""
    raw = np.arange(1, n_max + 1, dtype=float) ** -alpha
    return raw * ((1.0 - defect) / raw.sum())


def geometric_density(p: float, n_max: int) -> np.ndarray:
    """K(n) = (1-p) p^(n-1) on 1..n_max, the last atom carrying P(T >= n_max)."""
    n = np.arange(1, n_max + 1, dtype=float)
    dens = (1.0 - p) * p ** (n - 1.0)
    dens[-1] = p ** (n_max - 1.0)
    return dens


def srw_density(n_max: int) -> np.ndarray:
    """K(2m) = C(2m, m) / ((2m-1) 4^m) for m = 1..n_max; the last atom
    carries P(T > 2(n_max-1)) = C(2(n_max-1), n_max-1) / 4^(n_max-1)."""
    m = np.arange(0, n_max + 1, dtype=float)
    tail = np.exp(gammaln(2 * m + 1) - 2 * gammaln(m + 1) - m * 2 * LOG2)  # P(T > 2m)
    dens = tail[1:] / (2 * m[1:] - 1)
    dens[-1] = tail[n_max - 1]
    return dens


# -- annealed bounds and recursions ------------------------------------------

def _decreasing_root(g) -> float:
    """Root b > 0 of a decreasing function with g(0) > 0, by bisection."""
    lo, hi = 0.0, 1.0
    while g(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def annealed_pinning(dens: np.ndarray, beta: float, h: float) -> float:
    """Annealed free energy of gaussian pinning (period 1): the root b of
    sum K(n) e^(-bn) = e^(h - beta^2/2), or 0 when there is none."""
    with np.errstate(divide="ignore"):
        log_k = np.log(dens)
    steps = np.arange(1, len(dens) + 1, dtype=float)
    target = h - 0.5 * beta * beta

    def g(b):
        return logsumexp(log_k - b * steps) - target

    return 0.0 if g(0.0) <= 0.0 else _decreasing_root(g)


def annealed_copolymer(dens: np.ndarray, period: int, beta: float, h: float) -> float:
    """Annealed excess free energy of the gaussian copolymer: the root b of
    sum K(k) e^(-bk) (1 + e^((beta^2/2 - h)(k-1))) / 2 = 1, or 0."""
    steps = period * np.arange(1, len(dens) + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = (np.log(dens) + np.logaddexp(0.0, (0.5 * beta * beta - h) * (steps - 1.0))
                 - LOG2)

    def g(b):
        return logsumexp(log_w - b * steps)

    return 0.0 if g(0.0) <= 0.0 else _decreasing_root(g)


def pinning_free_energies(dens: np.ndarray, beta: float, h: float,
                          omega: np.ndarray) -> np.ndarray:
    """(1/N) log Z_N of period-1 pinning for each row of charges omega,
    by the log-domain renewal recursion Z_t = e^(beta w_t - h) sum K(k) Z_(t-k)."""
    replicas, n = omega.shape
    with np.errstate(divide="ignore"):
        rk = np.log(dens)[::-1]  # rk[w - k] = log K(k)
    w = len(dens)
    logz = np.full((replicas, n + 1), -math.inf)
    logz[:, 0] = 0.0
    for t in range(1, n + 1):
        ww = min(t, w)
        seg = logz[:, t - ww:t] + rk[w - ww:]
        logz[:, t] = beta * omega[:, t - 1] - h + logsumexp(seg, axis=1)
    return logz[:, n] / n


def copolymer_logz0(dens: np.ndarray, period: int, h: float, n: int) -> float:
    """log Z_N(0, h) of the copolymer without disorder, excess form: an
    excursion of length k weighs K(k) (1 + e^(-h(k-1))) / 2."""
    t_max = n // period
    steps = period * np.arange(1, len(dens) + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = np.log(dens) + np.logaddexp(0.0, -h * (steps - 1.0)) - LOG2
    rw = log_w[::-1]
    w = len(dens)
    logz = np.full(t_max + 1, -math.inf)
    logz[0] = 0.0
    for t in range(1, t_max + 1):
        ww = min(t, w)
        logz[t] = logsumexp(logz[t - ww:t] + rw[w - ww:])
    return float(logz[t_max])


def _kernel_args(spec: str) -> dict:
    return {k: float(v) for k, v in (item.split("=") for item in spec.split(":")[1].split(","))}


# -- smooth -----------------------------------------------------------------

def parse_smooth(outputs: dict) -> dict:
    _, outdir = outputs["smooth"]
    return json.loads((outdir / "smooth.json").read_text(encoding="utf-8"))


def reference_smooth(params: dict, inputs: dict) -> dict:
    args = _kernel_args(params["kernel"])
    dens = power_density(args["alpha"], int(args["n_max"]), args.get("defect", 0.0))
    return {"dens": dens, "hc0": math.log1p(-args.get("defect", 0.0))}


def check_smooth(data: dict, ref: dict, params: dict) -> list:
    fails = []
    beta, tol = params["beta"], params["tol"]
    hc0, hc = ref["hc0"], data["hc"]
    if not hc0 - tol <= hc <= hc0 + 0.5 * beta * beta:
        fails.append(f"smooth: hc={hc!r} outside [h_c(0) - tol, h_c(0) + beta^2/2]"
                     f" = [{hc0 - tol!r}, {hc0 + 0.5 * beta * beta!r}]")
    loc = [p for p in data["points"] if p[0] < hc]
    deloc = [p for p in data["points"] if p[0] > hc]
    if len(loc) < 4 or not deloc:
        fails.append(f"smooth: {len(loc)} localized and {len(deloc)} delocalized points")
    for h, f, s in loc:
        f_ann = annealed_pinning(ref["dens"], beta, h)
        if not -NSIGMA * s <= f <= f_ann + NSIGMA * s:
            fails.append(f"smooth: F({h!r})={f!r} +- {s!r} outside [0, F_ann={f_ann!r}]")
    floor = 4.0 / max(params["n_list"])
    for h, f, s in deloc:
        if not f <= NSIGMA * s + floor:
            fails.append(f"smooth: delocalized F({h!r})={f!r} above 3 sigma + 4/N")
    if not data["exponent"] - 2.0 * data["exponent_err"] > 1.0:
        fails.append(f"smooth: exponent {data['exponent']!r} +- {data['exponent_err']!r}"
                     " not above 1 at two standard errors")
    target = math.exp(hc0) * ZETA3 / ZETA2
    if data["pure_order"] != "first" or not abs(data["pure_slope"] / target - 1.0) <= 0.01:
        fails.append(f"smooth: pure contrast {data['pure_order']} slope "
                     f"{data['pure_slope']!r}, want first order slope {target!r}")
    return fails


# -- pure -------------------------------------------------------------------

def parse_pure(outputs: dict) -> dict:
    hcs = []
    for i in range(len(outputs) - 1):
        hcs.append(float(_fields(outputs[f"hc{i}"][0])["hc"]))
    rows, asym = [], {}
    for line in outputs["pure"][0].splitlines():
        kv = _fields(line)
        if "b" in kv:
            rows.append((float(kv["h"]), float(kv["b"]), kv["localized"] == "True"))
        elif "order" in kv:
            asym = {"order": kv["order"], "exponent": float(kv["exponent"])}
    return {"hc": hcs, "rows": rows, "asymptotics": asym}


def reference_pure(params: dict, inputs: dict) -> dict:
    return {"hc0": [math.log1p(-_kernel_args(spec).get("defect", 0.0))
                    for spec in params["hc_kernels"]],
            "fields": inputs["fields"]}


def srw_free_energy(h: float) -> float:
    """Pure SRW free energy: sum K(2m) x^2m = 1 - sqrt(1 - x^2) = e^h with
    x = e^-b gives b = -log(1 - (1 - e^h)^2) / 2 for h < 0."""
    return -0.5 * math.log1p(-math.expm1(h) ** 2)


def check_pure(data: dict, ref: dict, params: dict) -> list:
    fails = []
    for spec, hc, want in zip(params["hc_kernels"], data["hc"], ref["hc0"]):
        if not abs(hc - want) <= 1e-3:
            fails.append(f"pure: {spec} hc={hc!r}, want log(1 - K(inf))={want!r} +- 1e-3")
    if len(data["hc"]) != len(ref["hc0"]):
        fails.append(f"pure: {len(data['hc'])} critical points for {len(ref['hc0'])} kernels")
    if [r[0] for r in data["rows"]] != ref["fields"]:
        fails.append("pure: printed fields differ from the requested ones")
    for h, b, localized in data["rows"]:
        want = srw_free_energy(h)
        if not (localized and abs(b / want - 1.0) <= 1e-3):
            fails.append(f"pure: b({h!r})={b!r} localized={localized}, want {want!r}")
    if data["asymptotics"] != {"order": "second", "exponent": 2.0}:
        fails.append(f"pure: srw classified {data['asymptotics']}, want second order, 2.0")
    return fails


# -- phi --------------------------------------------------------------------

def parse_phi(outputs: dict) -> dict:
    rows = []
    for line in outputs["phi"][0].splitlines():
        kv = _fields(line)
        rows.append((float(kv["m"]), float(kv["phi"]), float(kv["stderr"]),
                     kv["feasible"] == "True"))
    return {"rows": rows}


def reference_phi(params: dict, inputs: dict) -> dict:
    """F_N(beta, 0) by the benchmark's own recursion on the replicas that
    ``depin phi`` draws for its seed (replica r from spawn_seed(seed, r)).

    phi(m) <= F_N(beta, 0) holds replica by replica, and at the grid point
    nearest the typical contact density the two differ by ~1e-5, far
    below one standard error.  Against independent replicas the check
    would be a two-sample test with no margin, failing by chance in about
    one run in a hundred; on the same replicas it fails only when the
    program is wrong.  Should the program change how it seeds replicas,
    the comparison becomes one of independent samples and stays valid.
    """
    import depin

    law = depin.disorder_law(params["law"])
    master = inputs["seeds"][0]
    omega = np.array([depin.sample_disorder(law, params["n"], depin.spawn_seed(master, r)).values
                      for r in range(params["replicas"])])
    args = _kernel_args(params["kernel"])
    dens = geometric_density(args["p"], int(args["n_max"]))
    values = pinning_free_energies(dens, params["beta"], 0.0, omega)
    return {"f": float(values.mean()),
            "f_err": float(values.std(ddof=1) / math.sqrt(len(values)))}


def check_phi(data: dict, ref: dict, params: dict) -> list:
    fails = []
    rows = data["rows"]
    lo, hi, step = (float(x) for x in params["m_grid"].split(":"))
    if len(rows) != round((hi - lo) / step) + 1:
        fails.append(f"phi: {len(rows)} grid points")
    for m, v, s, feasible in rows:
        if not feasible:
            fails.append(f"phi: window at m={m!r} infeasible")
        bound = ref["f"] + NSIGMA * math.hypot(s, ref["f_err"])
        if not v <= bound:
            fails.append(f"phi: phi({m!r})={v!r} above F_N(beta,0)={ref['f']!r} + 3 sigma")
    for i in range(1, len(rows) - 1):
        gap = rows[i][1] - 0.5 * (rows[i - 1][1] + rows[i + 1][1])
        sig = math.sqrt(rows[i][2] ** 2 + 0.25 * rows[i - 1][2] ** 2
                        + 0.25 * rows[i + 1][2] ** 2)
        if not gap >= -NSIGMA * sig:
            fails.append(f"phi: not midpoint-concave at m={rows[i][0]!r} (gap {gap!r})")
    return fails


# -- copolymer --------------------------------------------------------------

def parse_copolymer(outputs: dict) -> dict:
    rows = []
    for line in outputs["fe"][0].splitlines():
        kv = _fields(line)
        rows.append((int(kv["N"]), float(kv["h"]), float(kv["F"]), float(kv["stderr"])))
    return {"rows": rows}


def reference_copolymer(params: dict, inputs: dict) -> dict:
    dens = srw_density(int(_kernel_args(params["kernel"])["n_max"]))
    beta = params["beta"]
    return {
        "fields": inputs["fields"],
        "f_ann": {h: annealed_copolymer(dens, 2, beta, h) for h in inputs["fields"]},
        "f0": {(n, h): copolymer_logz0(dens, 2, h, n) / n
               for n in params["n_list"] for h in inputs["fields"]},
    }


def check_copolymer(data: dict, ref: dict, params: dict) -> list:
    fails = []
    rows = data["rows"]
    if sorted((n, h) for n, h, _, _ in rows) != sorted(ref["f0"]):
        fails.append("copolymer: printed (N, h) pairs differ from the requested ones")
        return fails
    for n, h, f, s in rows:
        if not f <= ref["f_ann"][h] + NSIGMA * s:
            fails.append(f"copolymer: F(N={n}, h={h!r})={f!r} above F_ann="
                         f"{ref['f_ann'][h]!r} + 3 sigma")
        if not f >= ref["f0"][(n, h)] - NSIGMA * s:
            fails.append(f"copolymer: F(N={n}, h={h!r})={f!r} below log Z_N(0,h)/N="
                         f"{ref['f0'][(n, h)]!r} - 3 sigma")
    for n in params["n_list"]:
        line = sorted((h, f, s) for m, h, f, s in rows if m == n)
        for (h1, f1, s1), (h2, f2, s2) in zip(line, line[1:]):
            if not f2 <= f1 + NSIGMA * math.hypot(s1, s2):
                fails.append(f"copolymer: F(N={n}) rises from {f1!r} at h={h1!r} "
                             f"to {f2!r} at h={h2!r}")
    return fails


PARSE = {"smooth": parse_smooth, "pure": parse_pure, "phi": parse_phi,
         "copolymer": parse_copolymer}
REFERENCE = {"smooth": reference_smooth, "pure": reference_pure, "phi": reference_phi,
             "copolymer": reference_copolymer}
CHECK = {"smooth": check_smooth, "pure": check_pure, "phi": check_phi,
         "copolymer": check_copolymer}
