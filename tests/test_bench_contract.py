"""The names the benchmark in bench/ reaches into must exist in depin.

The traced benchmark rebinds every function that bench/tracing.py lists
in WRAPPED, looked up by name; the checks and the set-up timing call a few
more.  A rename or removal in src/depin would break those runs without
failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import depin

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
