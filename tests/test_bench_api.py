"""The benchmark's tracer looks the package's functions up by name, so a
renamed or deleted entry point fails here rather than only in a benchmark run.
One round of a benchmark workload also runs here, under the benchmark's own
output checks."""

import importlib.util
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdexplain
from hdexplain import cli, stein

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


def test_cli_calls_the_names_the_tracer_times(tmp_path, capsys):
    """``stein.serialize_ms`` and ``stein.gamma_ms`` are medians of the
    ``ScoreCache.serialize`` span in ``hdexplain cache`` and the
    ``median_heuristic_gamma`` span in ``hdexplain explain``; a command that
    stops calling them leaves the benchmark's traced run with no span."""
    tracing = load_tracing()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"source": "synthetic:two_moons", "n": 60},
                                  "model": {"epochs": 2}, "explainer": {"gamma": None}, "seed": 1}))
    model, cache = str(tmp_path / "model.bin"), str(tmp_path / "cache.bin")
    assert cli.main(["train", "--config", str(config), "--out", model]) == 0
    for argv, name in ((["cache", "--model", model, "--out", cache], "stein.serialize"),
                       (["explain", "--model", model, "--cache", cache, "--index", "3"],
                        "stein.median_heuristic_gamma")):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main([*argv, "--config", str(config)]) == 0
        finally:
            tracer.uninstall()
        calls = sum(span[tracing.NAME] == name for span in tracer.spans)
        assert calls == 1, f"hdexplain {argv[0]} made {calls} {name} spans, not 1"
    capsys.readouterr()


def test_evaluate_hashes_no_model_and_explain_hashes_one(tmp_path, capsys):
    """Under the benchmark's tracer, one image-shaped ``hdexplain evaluate``
    makes no ``nnet.fingerprint`` span of either kind (a fresh or a cached
    hash), and one ``hdexplain explain`` still makes one fresh span: its
    cache file is checked against the model it loads."""
    tracing = load_tracing()
    rng = np.random.default_rng(5)
    n, side = 60, 28
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", n, side, side)
                       + rng.integers(0, 256, size=n * side * side, dtype=np.uint8).tobytes())
    labels.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", n)
                       + (np.arange(n) % 10).astype(np.uint8).tobytes())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"source": f"idx:{images},{labels}"}, "model": {"epochs": 2},
        "experiment": {"augmentation": "noise", "trials": 1, "sample_size": 10,
                       "methods": ["hd-explain", "hd-explain-star", "tracin-last", "rep-sim"]},
        "seed": 1}))
    model, cache = str(tmp_path / "model.bin"), str(tmp_path / "cache.bin")
    assert cli.main(["train", "--config", str(config), "--out", model]) == 0
    assert cli.main(["cache", "--config", str(config), "--model", model, "--out", cache]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, argv in (("op.evaluate", ["evaluate", "--out", str(tmp_path / "report.csv")]),
                         ("op.cli_explain", ["explain", "--model", model, "--cache", cache, "--index", "3"])):
            with tracer.span(op):
                assert cli.main([*argv, "--config", str(config)]) == 0
    finally:
        tracer.uninstall()
    spans = tracing.SpanIndex(tracer.spans)
    # the tracer names a hash "fresh" only on a model from load_model; evaluate trains its own
    hashes = ("nnet.fingerprint", "nnet.fingerprint.cached")
    assert [len(spans.under("op.evaluate", name)) for name in hashes] == [0, 0]
    assert len(spans.under("op.cli_explain", "nnet.fingerprint")) == 1
    # evaluate ran every method, and the two Stein ones scored their training points
    assert len(spans.under("op.evaluate", "evalharness.hit_rate_experiment")) == 4
    assert len(spans.under("op.evaluate", "stein.make_stein_points")) == 2
    capsys.readouterr()


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
