"""The names the benchmark in bench/ reaches into must exist in depin.

The traced benchmark rebinds every function that bench/tracing.py lists
in WRAPPED, looked up by name; the checks, the set-up timing and the
tracer's self-test reach a few more as depin.<module>.<name>.  A rename or removal in src/depin would break those runs without
failing any other test, and so would a SmoothingReport field that the smooth
check reads.
"""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import depin

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist():
    tracing = _load_tracing()
    missing = []
    for module, names, _group in tracing.WRAPPED:
        mod = importlib.import_module(f"depin.{module}")
        missing += [f"depin.{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert not missing


def test_other_benchmark_names_exist():
    import depin.cli

    for name in ("disorder_law", "sample_disorder", "spawn_seed"):
        assert callable(getattr(depin, name, None)), name
    assert callable(getattr(depin.cli, "parse_kernel_spec", None))


def test_dotted_names_in_bench_exist():
    # e.g. the self-test reads depin.estimator.log_partition_pinning
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        for module, name in re.findall(r"\bdepin\.(\w+)\.(\w+)", path.read_text()):
            mod = importlib.import_module(f"depin.{module}")
            if not hasattr(mod, name):
                missing.append(f"{path.name}: depin.{module}.{name}")
    assert not missing


def test_smooth_check_reads_report_fields():
    # check_smooth reads smooth.json, which is SmoothingReport.to_dict() plus
    # "config": each data["..."] key it reads must be a report field
    tree = ast.parse((BENCH / "checks.py").read_text())
    check = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "check_smooth")
    keys = {node.slice.value for node in ast.walk(check)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "data" and isinstance(node.slice, ast.Constant)}
    fields = {f.name for f in dataclasses.fields(depin.analysis.SmoothingReport)}
    assert keys and keys <= fields, sorted(keys - fields)


def test_extras_bind_the_parameters_they_read():
    # each function of _EXTRAS runs once under the tracer; the tracer binds
    # its arguments by name (arguments["model"], ["n"]) and reads the result
    import depin.cli  # noqa: F401  (the tracer rebinds depin.cli.run too)

    tracing = _load_tracing()
    law = depin.disorder_law("gaussian")
    geo = depin.geometric_kernel(0.5, n_max=8)
    pin = depin.ModelSpec("pinning", 1.0, geo)
    cop = depin.ModelSpec("copolymer", 1.0, depin.srw_kernel(4))
    calls = {
        "sample_disorder": lambda: depin.sample_disorder(law, 16, 1),
        "log_partition_pinning": lambda: depin.log_partition_pinning(
            pin, depin.sample_disorder(law, 16, 1), 16, 0.0),
        "log_partition_copolymer": lambda: depin.log_partition_copolymer(
            cop, depin.sample_disorder(law, 16, 1), 16, 0.5),
        "log_partition_constrained": lambda: depin.log_partition_constrained(
            pin, depin.sample_disorder(law, 16, 1), 16),
        "locate_hc": lambda: depin.locate_hc(depin.ModelSpec("pinning", 0.0, geo), law,
                                             [16, 32], 1, 1, 0.1),
    }
    assert set(calls) == set(tracing._EXTRAS)
    tracer = tracing.Tracer()
    with tracer.installed():
        for call in calls.values():
            call()
    seen = {rec["name"] for rec in tracer.records()
            if set(rec) & {"draws", "cells", "probes"}}
    assert seen == set(calls)


def test_estimator_calls_the_traced_recursion(monkeypatch):
    # the tracer rebinds module names; an estimate that reached its
    # recursion by any other path would leave the engine layer untimed
    monkeypatch.setenv("DEPIN_THREADS", "1")
    tracing = _load_tracing()
    law = depin.disorder_law("gaussian")
    geo = depin.geometric_kernel(0.5, n_max=8)
    models = {"pinning": (depin.ModelSpec("pinning", 1.0, geo), -0.2),
              "copolymer": (depin.ModelSpec("copolymer", 1.0, depin.srw_kernel(8)), 0.3)}
    for kind, (model, h) in models.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            depin.estimate_free_energy(model, law, [h], [16], 2, 1)
        names = [rec["name"] for rec in tracer.records()]
        assert f"log_partition_{kind}" in names, (kind, names)


def test_fields_and_speculation_keep_their_spans(monkeypatch):
    # a 3-field estimate and a speculating bisection still reach the
    # recursion through its traced name, with model and n bound; the
    # probes figure counts the probes the result reports
    monkeypatch.setenv("DEPIN_THREADS", "1")
    tracing = _load_tracing()
    law = depin.disorder_law("gaussian")
    geo = depin.geometric_kernel(0.5, n_max=8)
    cop = depin.srw_kernel(8)
    fields = {"pinning": (geo, [-0.4, 0.1, -0.2]), "copolymer": (cop, [0.3, 0.6, 0.1])}
    for kind, (kern, hs) in fields.items():
        tracer = tracing.Tracer()
        with tracer.installed():
            depin.estimate_free_energy(depin.ModelSpec(kind, 1.0, kern),
                                       law, hs, [16, 32], 2, 1)
        spans = [rec for rec in tracer.records() if rec["name"] == f"log_partition_{kind}"]
        assert spans and all(rec["cells"] > 0 for rec in spans), kind
    tracer = tracing.Tracer()
    with tracer.installed():
        fit = depin.locate_hc(depin.ModelSpec("pinning", 0.0, geo), law, [64, 128], 1, 1,
                              1e-3)
    recs = tracer.records()
    hc = [rec for rec in recs if rec["name"] == "locate_hc"]
    builds = [rec for rec in recs if rec["name"] == "log_partition_pinning"]
    assert len(hc) == 1 and hc[0]["probes"] == len(fit.points)
    assert builds and all(rec["cells"] > 0 for rec in builds)
    assert len(builds) < len(fit.points)
