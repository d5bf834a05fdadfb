"""Command-line front end.

Subcommands: pure, fe, phi, hc, smooth, verify.  Options may come from a
flat key=value config file (--config); explicit flags override file
entries.  Every output file embeds the effective configuration, the tool
version and the seed, and contains nothing run-dependent beyond them, so
identical configurations produce byte-identical outputs regardless of the
worker count (capped by the DEPIN_THREADS environment variable, which must
be an integer >= 1 when set).

Kernel specs: ``geometric:p=0.5[,n_max=64]``, ``srw:n_max=512``,
``power:alpha=3,s=1,n_max=4096[,defect=0.5]``, ``file:PATH``; a parameter
that its family does not take, or one given twice, is an error.
Law specs: ``gaussian``, ``uniform``, ``rademacher``.

Comma lists that begin with a minus sign need the ``--flag=value`` form
(``--h=-1,-0.5``), as usual with argparse.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import UsageError, locate_hc, smoothing_check
from .disorder import disorder_law
from .engine import ModelSpec
from .estimator import estimate_free_energy, estimate_phi, worker_count
from .kernel import REQUIRED, geometric_kernel, parse_kernel_spec, read_pairs
from .oracle import verify_battery
from .pure_solver import pure_asymptotics, solve_free_energy_pure


def _size(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("not a positive integer")
    return value


def _size_list(text: str):
    sizes = [_size(x) for x in text.split(",") if x]
    if not sizes:
        raise ValueError("empty list")
    return sizes


def _seed(text: str) -> int:
    """A master seed: an integer in [0, 2^64), the range spawn_seed
    accepts; checked here so that a bad seed is a usage error before any
    build."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError("not in [0, 2**64)")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _flag(text: str) -> bool:
    """A boolean from a config file: 1/0, true/false or yes/no, any case."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("not a boolean")
    return text.lower() in ("1", "true", "yes")


MAX_RANGE_POINTS = 100_000


def _float_list(text: str):
    """Comma list or lo:hi:step range (inclusive of hi up to rounding) of at
    most MAX_RANGE_POINTS points."""
    if ":" in text:
        lo, hi, step = (_finite(x) for x in text.split(":"))
        span = (hi - lo) / step if step else -1.0
        if not (math.isfinite(span) and round(span) >= 0):
            raise ValueError("empty or unbounded range")
        if round(span) >= MAX_RANGE_POINTS:
            raise ValueError(f"range of more than {MAX_RANGE_POINTS} points")
        return [lo + i * step for i in range(int(round(span)) + 1)]
    values = [_finite(x) for x in text.split(",") if x]
    if not values:
        raise ValueError("empty list")
    return values


def read_config_file(path: str) -> dict:
    """Flat key=value file: '#' starts a comment, blank lines are ignored and
    '-' in a key reads as '_' (so N-list and N_list repeat one key)."""
    lines = (raw.split("#", 1)[0].strip()
             for raw in Path(path).read_text(encoding="utf-8").splitlines())
    return read_pairs([key.replace("-", "_") + sep + val for key, sep, val in
                       (line.partition("=") for line in lines if line)], path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depin",
        description="disordered polymer depinning: exact recursions and analysis")
    parser.add_argument("--version", action="version", version=f"depin {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, (_handler, opts) in _COMMANDS.items():
        sp = subs.add_parser(cmd)
        sp.add_argument("--config", default=None, help="key=value config file")
        for name, (conv, _default, help_text) in opts.items():
            flag = "--" + name.replace("_", "-")
            if conv is _flag:
                sp.add_argument(flag, action="store_const", const=True,
                                default=None, help=help_text)
            else:
                sp.add_argument(flag, type=str, default=None, help=help_text)
    return parser


def _merge_options(cmd: str, args: argparse.Namespace) -> dict:
    """Flags over config-file entries over defaults, each converted; every
    value is converted before the first missing required option is named."""
    table = _COMMANDS[cmd][1]
    file_cfg = read_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in table:
            raise UsageError(f"{args.config}: {key!r} is not an option of {cmd}")
    merged = {}
    for name, (conv, default, _help) in table.items():
        raw = getattr(args, name)
        if raw is None and name in file_cfg:
            raw = file_cfg[name]
        if raw is None:
            merged[name] = default
        else:
            try:
                merged[name] = conv(raw) if isinstance(raw, str) else raw
            except ValueError as exc:
                raise UsageError(
                    f"--{name.replace('_', '-')}: bad value {raw!r} ({exc})") from None
    for name, value in merged.items():
        if value is REQUIRED:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
    return merged


def _config_echo(cmd: str, merged: dict) -> dict:
    """Effective options for the output metadata; destination paths are not
    part of a run's identity and are left out so outputs stay byte-identical
    wherever they are written."""
    echo = {"command": cmd, "version": __version__}
    for key in sorted(merged.keys() - {"out"}):
        val = merged[key]
        echo[key] = (",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
                     if isinstance(val, list) else val)
    return echo


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv(columns, rows, config: dict) -> str:
    lines = [f"# depin {__version__}", *(f"# {key}={val}" for key, val in config.items()),
             ",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _plot(csv_name: str, xlabel: str, ylabel: str, using: str, style: str) -> str:
    return (f"set datafile separator ','\nset xlabel '{xlabel}'\nset ylabel '{ylabel}'\n"
            f"plot '{csv_name}' using {using} with {style} notitle\n")


def _save(merged: dict, files: dict) -> None:
    """Write each {file name: text} into the --out directory, if one is given."""
    if not merged["out"]:
        return
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="\n")


def _cmd_pure(merged: dict, cfg: dict) -> int:
    kernel = parse_kernel_spec(merged["kernel"])
    rows = []
    for h in merged["h"]:
        sol = solve_free_energy_pure(kernel, h)
        rows.append((h, sol.b, int(sol.localized), sol.residual))
        print(f"h={_fmt(h)} b={_fmt(sol.b)} localized={sol.localized}")
    if merged["asymptotics"]:
        cls = pure_asymptotics(kernel)
        print(f"order={cls.order} exponent={_fmt(cls.exponent)} "
              f"slope={'-' if cls.slope is None else _fmt(cls.slope)} "
              f"hc={_fmt(cls.hc)}")
    _save(merged, {"pure.csv": _csv(["h", "b", "localized", "residual"], rows, cfg),
                   "pure.gp": _plot("pure.csv", "h", "b", "1:2", "linespoints")})
    return 0


def _once(name: str, values) -> None:
    """A usage error when a value repeats: it would repeat its output row."""
    if len(set(values)) < len(values):
        raise UsageError(f"each {name} may appear once: a repeated {name} "
                         "repeats its row")


def _cmd_fe(merged: dict, cfg: dict) -> int:
    ns = merged["N"]
    _once("size", ns)
    _once("field", merged["h"])
    kernel = parse_kernel_spec(merged["kernel"])
    law = disorder_law(merged["law"])
    # one build serves every field and size; rows stay N-outer, h-inner
    models = [ModelSpec(merged["kind"], merged["beta"], h, kernel) for h in merged["h"]]
    by_h = estimate_free_energy(models, law, ns, merged["replicas"], merged["seed"])
    rows = []
    for i, n in enumerate(ns):
        for h, ests in zip(merged["h"], by_h):
            est = ests[i]
            rows.append((n, merged["beta"], h, est.mean, est.stderr,
                         merged["replicas"], merged["seed"]))
            print(f"N={n} h={_fmt(h)} F={_fmt(est.mean)} stderr={_fmt(est.stderr)}")
    _save(merged, {
        "fe.csv": _csv(["N", "beta", "h", "mean", "stderr", "replicas", "seed"], rows, cfg),
        "fe.gp": _plot("fe.csv", "h", "F", "3:4:5", "yerrorlines")})
    return 0


def _cmd_phi(merged: dict, cfg: dict) -> int:
    _once("density", merged["m_grid"])
    kernel = parse_kernel_spec(merged["kernel"])
    law = disorder_law(merged["law"])
    model = ModelSpec(merged["kind"], merged["beta"], 0.0, kernel)
    curve = estimate_phi(model, law, merged["m_grid"], merged["epsilon"], merged["N"],
                         merged["replicas"], merged["seed"])
    rows = [(m, curve.epsilon, v, s, int(f)) for m, v, s, f in
            zip(curve.m_grid, curve.values, curve.stderr, curve.feasible)]
    for m, _eps, v, s, f in rows:
        print(f"m={_fmt(m)} phi={_fmt(v)} stderr={_fmt(s)} feasible={bool(f)}")
    _save(merged, {
        "phi.csv": _csv(["m", "epsilon", "value", "stderr", "feasible"], rows, cfg),
        "phi.gp": _plot("phi.csv", "m", "phi", "1:3:4", "yerrorlines")})
    return 0


def _cmd_hc(merged: dict, cfg: dict) -> int:
    kernel = parse_kernel_spec(merged["kernel"])
    law = disorder_law(merged["law"])
    if (merged["h_lo"] is None) != (merged["h_hi"] is None):
        raise UsageError("--h-lo and --h-hi go together")
    window = None if merged["h_lo"] is None else (merged["h_lo"], merged["h_hi"])
    fit = locate_hc(merged["kind"], merged["beta"], kernel, law, merged["N_list"],
                    merged["replicas"], merged["seed"], merged["tol"],
                    h_window=window)
    print(f"hc={_fmt(fit.hc)} +- {_fmt(fit.hc_err)}")
    _save(merged, {"hc.json": _json({"hc": fit.hc, "hc_err": fit.hc_err,
                                     "probes": [list(p) for p in fit.points],
                                     "config": cfg})})
    return 0


def _cmd_smooth(merged: dict, cfg: dict) -> int:
    kernel = parse_kernel_spec(merged["kernel"])
    law = disorder_law(merged["law"])
    kwargs = {}
    if merged["scan_gaps"]:
        kwargs["scan_gaps"] = tuple(merged["scan_gaps"])
    report = smoothing_check(merged["beta"], kernel, law, n_list=merged["N_list"],
                             replicas=merged["replicas"], seed=merged["seed"],
                             tol=merged["tol"], kind=merged["kind"], **kwargs)
    print(f"hc={_fmt(report.hc)} +- {_fmt(report.hc_err)}")
    print(f"exponent={_fmt(report.exponent)} +- {_fmt(report.exponent_err)}")
    print(f"envelope_ok={report.envelope_ok} ratio_decreasing={report.ratio_decreasing}")
    rows = [(merged["N_list"][-1], report.beta, h, f, s,
             merged["replicas"], merged["seed"]) for h, f, s in report.points]
    _save(merged, {
        "smooth.json": _json({**report.to_dict(), "config": cfg}),
        "smooth_points.csv": _csv(["N", "beta", "h", "mean", "stderr", "replicas",
                                   "seed"], rows, cfg),
        "smooth.gp": _plot("smooth_points.csv", "h", "F", "3:4:5", "yerrorlines")})
    return 0


def _cmd_verify(merged: dict, cfg: dict) -> int:
    if merged["N"] < 2:
        raise UsageError("--N must be at least 2: the copolymer check needs an even size")
    all_ok = True
    battery = verify_battery(geometric_kernel(0.5, n_max=32), merged["N"],
                             merged["draws"], merged["seed"])
    for name, ok, detail in battery:
        all_ok &= ok
        print(f"{name}: {detail} {'ok' if ok else 'FAILED'}")
    if all_ok:
        print("all oracle checks passed")
        return 0
    print("oracle checks FAILED")
    return 1


_COMMON = {
    "kernel": (str, REQUIRED, "kernel spec (see module docstring)"),
    "law": (str, "gaussian", "disorder law"),
    "beta": (_finite, 0.0, "disorder strength"),
    "seed": (_seed, 0, "master seed, in [0, 2^64)"),
    "replicas": (_size, 8, "disorder replicas"),
    "out": (str, None, "output directory"),
}

# subcommand -> (handler, options); an option is name -> (converter,
# default, help), in the order of the help text and of the required check
_COMMANDS = {
    "pure": (_cmd_pure, {
        "kernel": _COMMON["kernel"],
        "h": (_float_list, REQUIRED, "field value(s), comma list or lo:hi:step"),
        "asymptotics": (_flag, False, "also print the transition classification"),
        "out": _COMMON["out"],
    }),
    "fe": (_cmd_fe, {
        **_COMMON,
        "kind": (str, "pinning", "model kind"),
        "h": (_float_list, REQUIRED, "field value(s)"),
        "N": (_size_list, REQUIRED, "system size(s)"),
    }),
    "phi": (_cmd_phi, {
        **_COMMON,
        "kind": (str, "pinning", "model kind"),
        "m_grid": (_float_list, REQUIRED, "density grid, comma list or lo:hi:step"),
        "epsilon": (_finite, None, "window half-width (default max(1/sqrt(N), 2s/N))"),
        "N": (_size, REQUIRED, "system size"),
    }),
    "hc": (_cmd_hc, {
        **_COMMON,
        "kind": (str, "pinning", "model kind"),
        "N_list": (_size_list, REQUIRED, "extrapolation sizes"),
        "tol": (_finite, 1e-3, "bisection tolerance on h"),
        "h_lo": (_finite, None, "optional lower search bound"),
        "h_hi": (_finite, None, "optional upper search bound"),
    }),
    "smooth": (_cmd_smooth, {
        **_COMMON,
        "kind": (str, "pinning", "model kind"),
        "N_list": (_size_list, REQUIRED, "extrapolation sizes"),
        "tol": (_finite, 2e-3, "bisection tolerance on h"),
        "scan_gaps": (_float_list, None, "distances below h_c to scan"),
    }),
    "verify": (_cmd_verify, {
        "N": (int, 12, "maximum size for the oracle battery"),
        "draws": (_size, 20, "random draws per check"),
        "seed": _COMMON["seed"],
    }),
}


def run(argv) -> int:
    """Execute one CLI invocation; 0 on success, 2 on usage error, 1 on failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            worker_count()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        merged = _merge_options(args.command, args)
        return _COMMANDS[args.command][0](merged, _config_echo(args.command, merged))
    except UsageError as exc:
        print(f"depin {args.command}: usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"depin {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
