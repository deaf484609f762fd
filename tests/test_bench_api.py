"""The benchmark's tracer looks the package's functions up by name, so a
renamed or deleted entry point fails here rather than only in a benchmark run."""

import importlib.util
from pathlib import Path

import hdexplain
from hdexplain import stein

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_the_package():
    tracing = load_tracing()
    names = tracing.FUNCTIONS["stein"]
    before = {name: getattr(stein, name) for name in names}
    exported = {name: getattr(hdexplain, name) for name in names}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert stein.stein_gram is not before["stein_gram"]
    finally:
        tracer.uninstall()
    assert {name: getattr(stein, name) for name in names} == before
    assert {name: getattr(hdexplain, name) for name in names} == exported
    assert callable(stein.kernel_eval_count)
