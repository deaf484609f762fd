import csv
import json
import os
import struct

import pytest

from hdexplain.cli import main


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def quick_config(tmp_path):
    return write_config(tmp_path, {
        "dataset": {"source": "synthetic:two_moons", "n": 60, "noise_std": 0.1},
        "model": {"epochs": 15},
        "explainer": {"top_k": 3},
        "seed": 1,
    })


@pytest.fixture()
def trained_artifacts(tmp_path, quick_config, capsys):
    model_path = str(tmp_path / "model.bin")
    cache_path = str(tmp_path / "cache.bin")
    assert run("train", "--config", quick_config, "--out", model_path) == 0
    assert run("cache", "--config", quick_config, "--model", model_path, "--out", cache_path) == 0
    capsys.readouterr()
    return quick_config, model_path, cache_path


class TestTrainCommand:
    def test_writes_model_with_magic(self, tmp_path, quick_config, capsys):
        model_path = tmp_path / "model.bin"
        assert run("train", "--config", quick_config, "--out", str(model_path)) == 0
        assert model_path.read_bytes()[:4] == b"HDXM"
        out = capsys.readouterr().out
        assert "train_accuracy" in out

    def test_deterministic_artifacts(self, tmp_path, quick_config):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run("train", "--config", quick_config, "--out", str(a)) == 0
        assert run("train", "--config", quick_config, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unreadable_dataset_path(self, tmp_path, capsys):
        config = write_config(tmp_path, {"dataset": {"source": "csv:/no/such/file.csv"}})
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 3
        assert "/no/such/file.csv" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        config = write_config(tmp_path, {"dataset": {"sauce": "typo"}})
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 2


class TestCacheCommand:
    def test_reports_dimensions(self, tmp_path, quick_config, capsys):
        model_path = str(tmp_path / "model.bin")
        run("train", "--config", quick_config, "--out", model_path)
        capsys.readouterr()
        assert run("cache", "--config", quick_config, "--model", model_path,
                   "--out", str(tmp_path / "c.bin")) == 0
        out = capsys.readouterr().out
        assert "n: 60" in out and "D: 4" in out and "model_fingerprint" in out

    def test_rerun_byte_identical(self, tmp_path, trained_artifacts):
        config, model_path, cache_path = trained_artifacts
        again = str(tmp_path / "cache2.bin")
        assert run("cache", "--config", config, "--model", model_path, "--out", again) == 0
        assert open(cache_path, "rb").read() == open(again, "rb").read()

    def test_missing_model(self, tmp_path, quick_config):
        assert run("cache", "--config", quick_config, "--model", str(tmp_path / "none.bin"),
                   "--out", str(tmp_path / "c.bin")) == 3


class TestExplainCommand:
    def test_top_k_entries(self, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        assert run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
                   "--point", "0.5,0.25", "--top-k", "3", "--format", "structured") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["topk"]) == 3

    def test_wrong_arity_is_usage_error(self, trained_artifacts):
        config, model_path, cache_path = trained_artifacts
        assert run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
                   "--point", "0.5") == 2

    def test_table_and_structured_agree(self, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
            "--point", "0.1,0.2", "--format", "structured")
        doc = json.loads(capsys.readouterr().out)
        run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
            "--point", "0.1,0.2", "--format", "table")
        table = capsys.readouterr().out
        for entry in doc["topk"]:
            assert str(entry["train_index"]) in table
            assert f"{entry['kernel_value']:.10g}" in table

    def test_stale_cache_diagnostic(self, tmp_path, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        other_model = str(tmp_path / "other.bin")
        assert run("train", "--config", config, "--seed", "99", "--out", other_model) == 0
        capsys.readouterr()
        assert run("explain", "--config", config, "--model", other_model, "--cache", cache_path,
                   "--point", "0.1,0.2") == 3
        assert "stale cache" in capsys.readouterr().err

    def test_non_finite_cache_is_a_format_error(self, tmp_path, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        data = bytearray(open(cache_path, "rb").read())
        dim = struct.unpack("<Q", data[25:33])[0]
        record = 2 * 8 * dim + 4
        offset = 33 + 5 * record  # z[5, 0]
        data[offset:offset + 8] = struct.pack("<d", float("nan"))
        bad_path = tmp_path / "nan_cache.bin"
        bad_path.write_bytes(bytes(data))
        assert run("explain", "--config", config, "--model", model_path, "--cache", str(bad_path),
                   "--index", "3") == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_ranking_is_an_arithmetic_error(self, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        assert run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
                   "--point", "1e155,1e155") == 4
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert "nan" not in captured.out

    def test_dataset_index_input(self, tmp_path, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        # a narrow explicit bandwidth makes the training point its own best match
        local = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 60, "noise_std": 0.1},
            "model": {"epochs": 15},
            "explainer": {"top_k": 3, "gamma": 500.0},
            "seed": 1,
        }, name="local.json")
        assert run("explain", "--config", local, "--model", model_path, "--cache", cache_path,
                   "--index", "4", "--format", "structured") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["topk"][0]["train_index"] == 4


class TestEvaluateCommand:
    def test_two_methods_six_rows(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 40, "noise_std": 0.1},
            "model": {"epochs": 10},
            "experiment": {"trials": 2, "sample_size": 5,
                           "methods": ["hd-explain", "tracin-last"]},
            "seed": 0,
        })
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path)) == 0
        rows = list(csv.DictReader(open(out_path)))
        assert len(rows) == 6
        assert {row["method"] for row in rows} == {"hd-explain", "tracin-last"}
        assert {row["k"] for row in rows} == {"1", "3", "5"}
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["command"] == "evaluate"

    def test_star_rows_do_not_depend_on_other_methods(self, tmp_path):
        # each variant's median-heuristic bandwidth comes from its own cache
        def star_rows(methods, name):
            config = write_config(tmp_path, {
                "experiment": {"augmentation": "noise", "trials": 3, "sample_size": 30,
                               "methods": methods},
                "seed": 0,
            }, name=f"{name}.json")
            out_path = tmp_path / f"{name}.csv"
            assert run("evaluate", "--config", config, "--out", str(out_path)) == 0
            return [{k: row[k] for k in ("k", "hit_rate", "coverage")}
                    for row in csv.DictReader(open(out_path)) if row["method"] == "hd-explain-star"]

        alone = star_rows(["hd-explain-star"], "alone")
        assert len(alone) == 3
        assert star_rows(["hd-explain", "hd-explain-star"], "together") == alone

    def test_unknown_method_fails_without_partial_report(self, tmp_path):
        config = write_config(tmp_path, {
            "experiment": {"methods": ["hd-explain", "bogus"]},
        })
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path)) == 2
        assert not out_path.exists()
        assert not os.path.exists(str(out_path) + ".tmp")


class TestDebugCommand:
    def test_manifest_reports_flips(self, tmp_path):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 1000, "noise_std": 0.1},
            "model": {"epochs": 10},
            "experiment": {"flip_fraction": 0.05},
            "seed": 1,
        })
        out_path = tmp_path / "debug.csv"
        assert run("debug", "--config", config, "--out", str(out_path)) == 0
        manifest = json.loads((tmp_path / "debug.csv.manifest.json").read_text())
        assert manifest["flips"] == 50
        rows = list(csv.DictReader(open(out_path)))
        assert [int(row["m"]) for row in rows] == [25, 50, 100]


class TestKsdShiftCommand:
    def test_rows_and_zero_first(self, tmp_path):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 50, "noise_std": 0.1},
            "model": {"epochs": 10},
            "experiment": {"shifts": [0, 0.25, 0.5]},
            "seed": 2,
        })
        out_path = tmp_path / "shift.csv"
        assert run("ksd-shift", "--config", config, "--out", str(out_path)) == 0
        rows = list(csv.DictReader(open(out_path)))
        assert len(rows) == 3
        assert float(rows[0]["shift"]) == 0.0


class TestCommonBehavior:
    def test_usage_error_exit_code(self):
        assert run("no-such-command") == 2

    def test_rectangles_source(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:rectangles", "n": 45},
            "model": {"epochs": 10},
        })
        assert run("train", "--config", config, "--out", str(tmp_path / "r.bin")) == 0

    def test_csv_source_round_trip(self, tmp_path, capsys):
        from hdexplain.data import gen_two_moons, save_csv

        csv_path = tmp_path / "data.csv"
        save_csv(gen_two_moons(40, 0.1, seed=3), csv_path)
        config = write_config(tmp_path, {
            "dataset": {"source": f"csv:{csv_path}"},
            "model": {"epochs": 5},
        })
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 0

    def test_seed_flag_overrides_config(self, tmp_path, quick_config):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run("train", "--config", quick_config, "--out", str(a))
        run("train", "--config", quick_config, "--seed", "77", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()
