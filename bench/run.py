"""Run one workload of the depin benchmark and print its metrics.

    python3 bench/run.py --workload smooth --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Before importing it the run fixes DEPIN_THREADS (2, or the
number of usable cores if smaller; 1 when tracing) and sets every BLAS
thread variable to 1, so no more processes or threads are busy than
there are cores.  It then

1. with ``--trace 0``, times set-up in fresh interpreters: importing depin
   and building the workload's kernels and laws through
   ``depin.cli.parse_kernel_spec`` and ``depin.disorder_law`` (median of
   several);
2. runs rounds of the workload's depin commands through ``depin.cli.run``
   until ``--seconds`` have passed (at least one round), each round timed
   from the start of its first command to the end of its last;
3. checks the first round's outputs (see checks.py) and that every later
   round printed and wrote the same bytes;
4. prints, as the last line of standard output, one JSON object with
   ``correct``, ``attempted``, ``failed`` (one operation is one depin
   command) and ``metrics``: the end-to-end metrics with ``--trace 0``,
   the per-layer metrics of tracing.py with ``--trace 1``.

With ``--trace 1`` untraced and traced rounds alternate, the per-layer
metrics are medians over the traced rounds, the overhead compares the
medians of the two kinds, and the spans are written to
``.bench_out/<workload>/spans.jsonl``.  Each run also writes its
settings and per-round figures to ``.bench_out/<workload>/result.json``.
The exit code is 0 when every check passed, 1 when one failed, and 2 on
a usage error or when the program cannot be found.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MAX_WORKERS = 2
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_CODE = """\
import json, sys, time
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
t0 = time.perf_counter()
import depin.cli
for kernel in spec["kernels"]:
    depin.cli.parse_kernel_spec(kernel)
for law in spec["laws"]:
    depin.disorder_law(law)
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="smooth, pure, phi or copolymer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fixed_env(trace: bool) -> dict:
    cores = len(os.sched_getaffinity(0))
    env = {"DEPIN_THREADS": str(1 if trace else min(MAX_WORKERS, cores))}
    env.update({var: "1" for var in BLAS_VARS})
    return env


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _measure_setup(workload) -> list:
    """Set-up seconds in fresh interpreters, one sample per interpreter."""
    spec = json.dumps({"src": str(SRC), "kernels": list(workload.kernels),
                       "laws": list(workload.laws)})
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, spec], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _run_round(cli, cmds, outdir: Path, tracer=None) -> dict:
    """Run every command once; time the interval from first start to last end."""
    shutil.rmtree(outdir, ignore_errors=True)
    outputs, failed = {}, 0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with tracer.span("round", "bench") if tracer else nullcontext():
        for cmd in cmds:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.run(list(cmd.argv))
            outputs[cmd.tag] = (buf.getvalue(), outdir / cmd.tag)
            failed += rc != 0
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    digest = hashlib.sha256()
    size = 0
    for tag, (text, _) in outputs.items():
        digest.update(f"{tag}\0{text}\0".encode())
        size += len(text.encode())
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(outdir)).encode() + b"\0" + data)
        size += len(data)
    return {"wall_s": wall,
            "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
            "attempted": len(cmds), "failed": failed, "output_bytes": size,
            "digest": digest.hexdigest(), "outputs": outputs}


def _check(checks, name, params, ref, rounds) -> list:
    """Failure messages: the first round's output checks, then reproducibility."""
    first = rounds[0]
    if first["failed"]:
        return []  # failed commands are counted in `failed`, their outputs not checked
    try:
        fails = checks.CHECK[name](checks.PARSE[name](first["outputs"]), ref, params)
    except Exception:  # an unreadable output is a failed check, not a crash
        fails = ["outputs could not be read:\n" + traceback.format_exc()]
    for i, rnd in enumerate(rounds[1:], start=2):
        if rnd["digest"] != first["digest"]:
            fails.append(f"round {i} output bytes differ from round 1")
    return fails


def _repeat(step, seconds: float) -> None:
    """Call step() until seconds have passed, at least once."""
    start = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - start >= seconds:
            return


def _median_metrics(per_round: list) -> dict:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "depin" / "__init__.py").is_file():
        print(f"bench: the depin sources are missing ({SRC / 'depin'})", file=sys.stderr)
        return 2
    env = _fixed_env(bool(args.trace))
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    import depin.cli as cli  # after the thread settings, which numpy reads once
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"bench: imported depin from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    name, seed = args.workload, args.seed
    if name not in workloads.WORKLOADS:
        print(f"bench: unknown workload {name!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    outdir = OUT / name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    rdir = outdir / "round"
    cmds = workloads.commands(name, seed, rdir)
    ref = checks.REFERENCE[name](wl.params, workloads.inputs(name, seed))
    record = {"workload": name, "seed": seed, "env": env,
              "commands": [list(c.argv) for c in cmds]}

    if args.trace:
        # untraced and traced rounds alternate, so that drifts of the
        # machine's speed fall on both sides of the overhead figure
        tracer = tracing.Tracer()
        untraced, traced, per_round, span_lines, fails = [], [], [], [], []

        def pair():
            untraced.append(_run_round(cli, cmds, rdir))
            first = len(tracer.spans)
            with tracer.installed():
                traced.append(_run_round(cli, cmds, rdir, tracer))
            spans = tracer.records(first)
            layer = tracing.layer_metrics(spans)
            layer["cli.output_bytes"] = traced[-1]["output_bytes"]
            per_round.append(layer)
            total = sum(sp["self_s"] for sp in spans)
            if abs(total - layer["trace.wall_s"]) > 1e-9 * layer["trace.wall_s"]:
                fails.append(f"round {len(traced)}: span self times add up to {total!r} s,"
                             f" its wall time is {layer['trace.wall_s']!r} s")
            span_lines.extend(json.dumps({"round": len(traced), **sp}) for sp in spans)

        _repeat(pair, args.seconds)
        (outdir / "spans.jsonl").write_text("\n".join(span_lines) + "\n", encoding="utf-8")
        metrics = _median_metrics(per_round)
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.wall_s"]
                                                 / metrics["trace.untraced_wall_s"] - 1.0)
        rounds = untraced + traced
        fails = _check(checks, name, wl.params, ref, rounds) + fails
        units = dict(tracing.METRICS)
        record["per_round"] = per_round
    else:
        setup = _measure_setup(wl)
        rounds = []
        _repeat(lambda: rounds.append(_run_round(cli, cmds, rdir)), args.seconds)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": statistics.median(r["wall_s"] for r in rounds),
                   "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                   "peak_rss_mb": peak_kb / 1024.0}
        fails = _check(checks, name, wl.params, ref, rounds)
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        record["setup_s"] = setup

    record["rounds"] = [{k: v for k, v in r.items() if k != "outputs"} for r in rounds]
    record["failures"] = fails
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                        encoding="utf-8")
    for msg in fails:
        print(f"bench {name}: check failed: {msg}", file=sys.stderr)
    result = {"correct": not fails,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
