"""The benchmark's tracer looks the package's functions up by name, so a
renamed or deleted entry point fails here rather than only in a benchmark run.
One round of a benchmark workload also runs here, under the benchmark's own
output checks."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_traced_benchmark_run_reports_every_per_layer_metric():
    # a short traced run of the smallest workload; it writes only under bench/out/
    root = TRACING.parents[1]
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), "--workload", "moons-eval",
                           "--seed", "0", "--seconds", "0.3", "--trace", "1"],
                          cwd=root, stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(set(declared) - set(result["metrics"])) == []
    # explain's Stein values go through the profile span the tracer times
    assert result["metrics"]["stein.profile_ms"]["value"] > 0


@pytest.fixture()
def bench_workloads():
    """``bench/workloads.py``, imported as the benchmark imports it: with
    ``bench/`` on ``sys.path``, which is restored afterwards."""
    bench = str(TRACING.parent)
    before_path, before_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, bench)
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:] = before_path
        for name in ("workloads", "reference", "tracing"):
            if name not in before_modules:
                sys.modules.pop(name, None)


def test_one_image_cli_round_passes_the_benchmark_checks(bench_workloads, tmp_path):
    # the IDX and model readers under the benchmark's own output checks
    wl = bench_workloads
    workload = wl.WORKLOADS["image-cli"]
    inputs = workload.setup(0, tmp_path)
    reference = wl.Reference(inputs)
    assert reference.setup_error(inputs) is None
    (tmp_path / "resetup").mkdir()
    runner = wl.Runner(workload, inputs, reference, tmp_path / "resetup")
    runner.round(0)
    assert runner.problems == []
    assert (runner.attempted, runner.failed, runner.wrong) == (49, 0, 0)


def test_one_moons_ksd_op_passes_the_benchmark_check(bench_workloads, tmp_path):
    # the KSD operation of a moons-eval round, under the benchmark's own check
    wl = bench_workloads
    workload = wl.WORKLOADS["moons-eval"]
    inputs = workload.setup(0, tmp_path)
    reference = wl.Reference(inputs)
    runner = wl.Runner(workload, inputs, reference, tmp_path / "resetup")
    runner.op("ksd", lambda: wl.hx.ksd_shift_experiment(inputs.model, inputs.ksd_dataset, wl.SHIFTS,
                                                        inputs.configs["raw"].kernel),
              runner.check_ksd)
    assert runner.problems == []
    assert (runner.attempted, runner.failed, runner.wrong) == (1, 0, 0)


def test_one_moons_eval_round_passes_the_benchmark_checks(bench_workloads, tmp_path):
    # training, the hit-rate protocol and the label-flip experiment, through
    # the moons set-up, evaluate and debug operations, under the benchmark's own checks
    wl = bench_workloads
    workload = wl.WORKLOADS["moons-eval"]
    inputs = workload.setup(0, tmp_path)
    reference = wl.Reference(inputs)
    assert reference.setup_error(inputs) is None
    (tmp_path / "resetup").mkdir()
    runner = wl.Runner(workload, inputs, reference, tmp_path / "resetup")
    runner.round(0)
    assert runner.problems == []
    assert (runner.attempted, runner.failed, runner.wrong) == (170, 0, 0)
