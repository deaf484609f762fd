import csv
import errno
import json
import os
import struct
import warnings

import pytest

from hdexplain import evalharness, nnet
from hdexplain.cli import RunConfig, main, train_config_from
from hdexplain.data import Dataset, gen_two_moons, save_csv, standardize
from hdexplain.evalharness import (
    METHOD_VARIANTS,
    hit_rate_experiment,
    ksd_shift_experiment,
    label_flip_debug_experiment,
)
from hdexplain.explain import ExplainerConfig, build_cache
from hdexplain.nnet import MLPClassifier, TrainConfig, load_model, train
from hdexplain.stein import (
    IMQKernel,
    RBFKernel,
    ScoreCache,
    load_cache,
    make_stein_points,
    median_heuristic_gamma,
    save_cache,
)


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_rows_match_csv(stdout, csv_path, count):
    """The structured stdout is one JSON document whose rows are the CSV's rows."""
    def number(text):
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                pass
        return text

    doc = json.loads(stdout)
    assert doc["out"] == str(csv_path)
    with open(csv_path, newline="") as fh:
        table = [{k: number(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    assert len(table) == count
    assert doc["rows"] == table


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

    def test_non_finite_csv_cell_is_a_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,b,label\n0.0,1.0,0\n1.0,nan,1\n2.0,0.5,1\n")
        config = write_config(tmp_path, {"dataset": {"source": f"csv:{csv_path}"}})
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 3
        assert "non-finite value nan at line 3, column 'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("file", ["images", "labels"])
    def test_oversized_idx_header_is_a_data_error(self, tmp_path, capsys, file):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        shape = (2**20, 2**10, 2**10) if file == "images" else (2, 2, 2)
        count = 2**32 - 1 if file == "labels" else 2
        images.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", *shape) + bytes(8))
        labels.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", count) + bytes([0, 1]))
        config = write_config(tmp_path, {"dataset": {"source": f"idx:{images},{labels}"}})
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 3
        assert "truncated IDX file" in capsys.readouterr().err

    def test_zero_idx_image_dimension_is_a_data_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", 2, 0, 3))
        labels.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", 2) + bytes([0, 1]))
        config = write_config(tmp_path, {"dataset": {"source": f"idx:{images},{labels}"}})
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 3
        assert "IDX images of 0 x 3 pixels" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "empty file, missing header row"),
        ("a,b,label\n0.0,1.0,0\n1.0,2.0\n", "line 3 has 2 cells, expected 3"),
        ("a,b,label\n0.0,1.0,0\n1.0,2.0,one\n", "non-integer label 'one' at line 3"),
        ("a,b,label\n", "no data rows"),
        ("label\n0\n1\n", "no feature columns besides 'label'"),
    ], ids=["empty", "ragged", "label", "no-rows", "no-features"])
    def test_malformed_csv_is_a_data_error(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(text)
        config = write_config(tmp_path, {"dataset": {"source": f"csv:{csv_path}"}})
        out_path = tmp_path / "m.bin"
        assert run("train", "--config", config, "--out", str(out_path)) == 3
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    def test_standardize_trains_on_the_standardized_dataset(self, tmp_path):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 60, "standardize": True},
            "model": {"epochs": 5},
            "seed": 2,
        })
        out_path = tmp_path / "m.bin"
        assert run("train", "--config", config, "--out", str(out_path)) == 0
        want = train(standardize(gen_two_moons(60, 0.1, seed=2)), TrainConfig(epochs=5, seed=2))
        assert out_path.read_bytes() == want.serialize()

    def test_validation_split_reports_its_accuracy(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 60},
            "model": {"epochs": 5, "validation_fraction": 0.25},
        })
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin"),
                   "--format", "structured") == 0
        accuracy = json.loads(capsys.readouterr().out)["validation_accuracy"]
        assert 0.0 <= accuracy <= 1.0

    def test_unknown_config_key_rejected(self, tmp_path):
        config = write_config(tmp_path, {"dataset": {"sauce": "typo"}})
        assert run("train", "--config", config, "--out", str(tmp_path / "m.bin")) == 2

    def test_unwritable_out_is_a_data_error(self, tmp_path, quick_config, capsys):
        out = str(tmp_path / "missing" / "m.bin")
        assert run("train", "--config", quick_config, "--out", out) == 3
        err = capsys.readouterr().err
        assert out in err and ".tmp" not in err

    def test_failed_rename_leaves_no_temporary(self, tmp_path, quick_config):
        out = tmp_path / "taken"
        out.mkdir()  # a directory cannot be replaced by the model file
        assert run("train", "--config", quick_config, "--out", str(out)) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_structured_stdout_is_one_document(self, tmp_path, quick_config, capsys):
        assert run("train", "--config", quick_config, "--out", str(tmp_path / "m.bin"),
                   "--format", "structured") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["out"] == str(tmp_path / "m.bin")
        assert doc["layer_dims"][0] == 2 and 0.0 <= doc["train_accuracy"] <= 1.0


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

    @pytest.mark.parametrize("variant", ["raw", "last-layer"])
    def test_file_is_the_serialized_cache(self, tmp_path, trained_artifacts, variant):
        config, model_path, _ = trained_artifacts
        out = tmp_path / "c.bin"
        assert run("cache", "--config", config, "--model", model_path, "--variant", variant,
                   "--out", str(out)) == 0
        moons = gen_two_moons(60, 0.1, seed=1)  # the configured dataset
        assert out.read_bytes() == build_cache(load_model(model_path), moons, variant).serialize()

    def test_refused_preallocation_writes_the_same_bytes(self, tmp_path, trained_artifacts,
                                                         monkeypatch):
        config, model_path, cache_path = trained_artifacts
        calls = []

        def refuse(fd, offset, length):
            calls.append(length)
            raise OSError(errno.EOPNOTSUPP, "Operation not supported")

        monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        again = tmp_path / "cache2.bin"
        assert run("cache", "--config", config, "--model", model_path, "--out", str(again)) == 0
        assert calls == [os.path.getsize(cache_path)]
        assert again.read_bytes() == open(cache_path, "rb").read()

    def test_structured_stdout_is_one_document(self, tmp_path, trained_artifacts, capsys):
        config, model_path, _ = trained_artifacts
        out = str(tmp_path / "c.bin")
        assert run("cache", "--config", config, "--model", model_path, "--out", out,
                   "--variant", "last-layer", "--format", "structured") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["out"] == out and doc["n"] == 60
        assert len(doc["model_fingerprint"]) == 16

    def test_missing_model(self, tmp_path, quick_config):
        assert run("cache", "--config", quick_config, "--model", str(tmp_path / "none.bin"),
                   "--out", str(tmp_path / "c.bin")) == 3

    def test_unknown_variant_is_a_usage_error(self, tmp_path, trained_artifacts, capsys):
        config, model_path, _ = trained_artifacts
        out = tmp_path / "c.bin"
        bad = write_config(tmp_path, {"explainer": {"variant": "middle"}}, "bad.json")
        assert run("cache", "--config", bad, "--model", model_path, "--out", str(out)) == 2
        assert "unknown variant 'middle'; expected 'raw' or 'last-layer'" in capsys.readouterr().err
        assert run("cache", "--config", config, "--model", model_path, "--variant", "middle",
                   "--out", str(out)) == 2
        assert "invalid choice: 'middle'" in capsys.readouterr().err
        assert not out.exists()


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

    def test_non_numeric_point_is_a_usage_error(self, trained_artifacts, capsys):
        config, model, cache = trained_artifacts
        assert run("explain", "--config", config, "--model", model, "--cache", cache,
                   "--point", "1,abc") == 2
        assert "point must be a comma-separated list of numbers" in capsys.readouterr().err

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

    @pytest.mark.parametrize("index", [-1, 60])
    def test_index_out_of_range_is_a_usage_error(self, trained_artifacts, capsys, index):
        config, model_path, cache_path = trained_artifacts
        assert run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
                   "--index", str(index)) == 2
        captured = capsys.readouterr()
        assert f"--index {index} out of range [0, 60)" in captured.err and captured.out == ""

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

    def test_cache_label_outside_the_model_classes_is_a_format_error(self, tmp_path,
                                                                    trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        cache = load_cache(cache_path)
        labels = cache.labels.copy()
        labels[4] = 7  # the model has 2 classes
        bad_path = tmp_path / "label_cache.bin"
        save_cache(ScoreCache(cache.model_fingerprint, cache.variant, cache.z, cache.scores, labels),
                   bad_path)
        assert run("explain", "--config", config, "--model", model_path, "--cache", str(bad_path),
                   "--point", "0.1,0.2") == 3
        captured = capsys.readouterr()
        assert "outside the model's classes [0, 2)" in captured.err and captured.out == ""

    def test_cache_of_another_width_is_a_format_error(self, tmp_path, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        cache = load_cache(cache_path)
        bad_path = tmp_path / "narrow_cache.bin"
        save_cache(ScoreCache(cache.model_fingerprint, cache.variant, cache.z[:, 1:],
                              cache.scores[:, 1:], cache.labels), bad_path)
        assert run("explain", "--config", config, "--model", model_path, "--cache", str(bad_path),
                   "--point", "0.1,0.2") == 3
        captured = capsys.readouterr()
        assert "cache rows have D=3" in captured.err and captured.out == ""

    @pytest.mark.parametrize("dims, values, message", [
        ([2, 3, 2], [float("nan")] + [0.0] * 16, "model parameters must be finite"),
        ([2], [], "layer_dims needs at least input and output sizes"),
        ([2, 0, 2], [0.0, 0.0], "layer dimensions must be an integer of at least 1, got 0"),
    ])
    def test_invalid_model_contents_are_a_format_error(self, tmp_path, trained_artifacts, capsys,
                                                       dims, values, message):
        config, model_path, cache_path = trained_artifacts
        bad_path = tmp_path / "bad_model.bin"
        bad_path.write_bytes(b"HDXM" + struct.pack(f"<II{len(dims)}I{len(values)}d", 1, len(dims),
                                                   *dims, *values))
        assert run("explain", "--config", config, "--model", str(bad_path), "--cache", cache_path,
                   "--index", "3") == 3
        captured = capsys.readouterr()
        assert f"invalid model contents: {message}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("case, message", [("empty", "truncated before header"),
                                               ("truncated", "expected"),
                                               ("directory", "cannot read cache file"),
                                               ("missing", "cannot read cache file")])
    def test_unreadable_cache_is_a_format_error(self, tmp_path, trained_artifacts, capsys, case,
                                                message):
        config, model_path, cache_path = trained_artifacts
        bad_path = tmp_path / "bad_cache.bin"
        if case == "empty":
            bad_path.write_bytes(b"")
        elif case == "truncated":
            bad_path.write_bytes(open(cache_path, "rb").read()[:-1])
        elif case == "directory":
            bad_path.mkdir()
        assert run("explain", "--config", config, "--model", model_path, "--cache", str(bad_path),
                   "--point", "0.1,0.2") == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_is_a_usage_error(self, tmp_path, trained_artifacts, capsys, gamma):
        config, model_path, cache_path = trained_artifacts
        doc = json.loads(open(config).read())
        doc["explainer"]["gamma"] = gamma  # json writes NaN and Infinity, and reads them back
        bad = write_config(tmp_path, doc, name="bad_gamma.json")
        assert ("NaN" if gamma != gamma else "Infinity") in open(bad).read()
        assert run("explain", "--config", bad, "--model", model_path, "--cache", cache_path,
                   "--point", "0.1,0.2") == 2
        captured = capsys.readouterr()
        assert "config.explainer.gamma must be a finite number" in captured.err
        assert captured.out == ""

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

    def test_point_and_index_are_exclusive(self, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        base = ("explain", "--config", config, "--model", model_path, "--cache", cache_path)
        assert run(*base, "--point", "0.5,0.5", "--index", "3") == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert run(*base) == 2

    def test_unwritable_out_is_a_data_error(self, tmp_path, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        out = str(tmp_path / "missing" / "e.json")
        assert run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
                   "--point", "0.5,0.5", "--out", out) == 3
        captured = capsys.readouterr()
        assert out in captured.err and ".tmp" not in captured.err
        assert captured.out == ""  # no ranking from a failed command

    def test_structured_stdout_is_one_document(self, tmp_path, trained_artifacts, capsys):
        config, model_path, cache_path = trained_artifacts
        out = tmp_path / "e.json"
        assert run("explain", "--config", config, "--model", model_path, "--cache", cache_path,
                   "--index", "5", "--format", "structured", "--out", str(out)) == 0
        doc = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert {k: v for k, v in doc.items() if k != "elapsed_ms"} == \
            {k: v for k, v in saved.items() if k != "elapsed_ms"}

    @pytest.mark.parametrize("case", ["size", "labels", "features"])
    def test_index_into_another_dataset_is_rejected(self, tmp_path, trained_artifacts, capsys, case):
        config, model_path, cache_path = trained_artifacts
        moons = gen_two_moons(60, 0.1, seed=1)  # the cache's dataset
        if case == "labels":
            relabeled = tmp_path / "relabeled.csv"
            save_csv(Dataset(moons.features, 1 - moons.labels, 2), relabeled)
            dataset, seed = {"source": f"csv:{relabeled}"}, 1
        else:
            # two moons labels depend only on n: seed 2 at n = 60 moves only the features
            dataset, seed = {"source": "synthetic:two_moons", "n": 200 if case == "size" else 60}, 2
        other = write_config(tmp_path, {"dataset": dataset, "seed": seed}, name="other.json")
        assert run("explain", "--config", other, "--model", model_path, "--cache", cache_path,
                   "--index", "40") == 3
        assert "not the one the cache was built from" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, code", [(1, 0), (2, 3)])
    def test_last_layer_index_checks_the_features(self, tmp_path, trained_artifacts, capsys,
                                                   seed, code):
        # the cache's dataset (seed 1), or one of the same size and labels whose
        # features differ (seed 2): only the representations can tell them apart
        config, model_path, _ = trained_artifacts
        cache_path = str(tmp_path / "last.bin")
        assert run("cache", "--config", config, "--model", model_path, "--variant", "last-layer",
                   "--out", cache_path) == 0
        capsys.readouterr()
        other = write_config(tmp_path, {"dataset": {"source": "synthetic:two_moons", "n": 60,
                                                    "noise_std": 0.1}, "seed": seed}, name="other.json")
        assert run("explain", "--config", other, "--model", model_path, "--cache", cache_path,
                   "--index", "40") == code
        err = capsys.readouterr().err
        assert ("not the one the cache was built from" in err) == (code == 3)


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


    def test_structured_rows_match_the_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 40, "noise_std": 0.1},
            "model": {"epochs": 5},
            "experiment": {"trials": 2, "sample_size": 5, "methods": ["hd-explain-star", "rep-sim"]},
        })
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path), "--format", "structured") == 0
        assert_rows_match_csv(capsys.readouterr().out, out_path, 6)

    def test_repeated_method_is_a_usage_error(self, tmp_path, capsys):
        # a repeat would write two rows per (method, k)
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 40, "noise_std": 0.1},
            "model": {"epochs": 5},
            "experiment": {"trials": 2, "sample_size": 5, "methods": ["rep-sim", "rep-sim"]},
        })
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path)) == 2
        assert "each method once" in capsys.readouterr().err
        assert not out_path.exists()

    def test_no_methods_is_a_usage_error(self, tmp_path):
        config = write_config(tmp_path, {"experiment": {"methods": []}})
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path)) == 2
        assert not out_path.exists()


    @pytest.mark.parametrize("gamma", [None, 2.0])
    def test_rows_equal_the_library_protocol(self, tmp_path, gamma):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 60, "noise_std": 0.1},
            "model": {"epochs": 5},
            "explainer": {"gamma": gamma},
            "experiment": {"trials": 2, "sample_size": 10, "methods": list(METHOD_VARIANTS)},
            "seed": 4,
        })
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path)) == 0
        got = [(r["method"], int(r["k"]), float(r["hit_rate"]), float(r["coverage"]), int(r["trials"]))
               for r in csv.DictReader(open(out_path))]
        data = gen_two_moons(60, 0.1, seed=4)
        model = train(data, TrainConfig(epochs=5, seed=4))
        want = []
        for method, variant in METHOD_VARIANTS.items():
            if variant is None:
                kernel = None
            elif gamma is None:  # the median heuristic over the method's own cache
                kernel = RBFKernel(median_heuristic_gamma(build_cache(model, data, variant).z))
            else:
                kernel = RBFKernel(gamma)
            report = hit_rate_experiment(model, data, "noise", 2, 10, ExplainerConfig(kernel=kernel),
                                         4, method=method)
            want.extend((method, k, report.hit_rate[k], report.coverage[k], report.trials)
                        for k in sorted(report.hit_rate))
        assert got == want

    @pytest.mark.parametrize("augmentation, message", [
        ("rotate", "unknown augmentation 'rotate'"),
        ("hflip", "horizontal flip needs a dataset with image_shape"),
    ])
    def test_bad_augmentation_is_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                          augmentation, message):
        config = write_config(tmp_path, {"experiment": {"augmentation": augmentation}})
        calls = []
        monkeypatch.setattr("hdexplain.cli.train", lambda *a, **k: calls.append(a))
        out_path = tmp_path / "report.csv"
        assert run("evaluate", "--config", config, "--out", str(out_path)) == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not out_path.exists()


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


    def test_structured_rows_match_the_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 200, "noise_std": 0.1},
            "model": {"epochs": 5},
            "seed": 3,
        })
        out_path = tmp_path / "debug.csv"
        assert run("debug", "--config", config, "--out", str(out_path), "--format", "structured") == 0
        assert_rows_match_csv(capsys.readouterr().out, out_path, 3)

    @pytest.mark.parametrize("explainer, kernel", [
        ({"kernel": "imq", "imq_c": 0.5, "imq_beta": -0.25}, IMQKernel(c=0.5, beta=-0.25)),
        ({"kernel": "rbf", "gamma": 2.0}, RBFKernel(2.0)),
    ], ids=["imq", "rbf-gamma"])
    def test_explicit_kernel_ranks_like_the_library(self, tmp_path, explainer, kernel):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 200, "noise_std": 0.1},
            "model": {"epochs": 5},
            "explainer": explainer,
            "seed": 3,
        })
        out_path = tmp_path / "debug.csv"
        assert run("debug", "--config", config, "--out", str(out_path)) == 0
        want = label_flip_debug_experiment(gen_two_moons(200, 0.1, seed=3), 0.05,
                                           TrainConfig(epochs=5, seed=3), kernel, 3)
        rows = list(csv.DictReader(open(out_path)))
        assert [(int(r["m"]), float(r["precision"]), float(r["recall"])) for r in rows] == want.points
        manifest = json.loads((tmp_path / "debug.csv.manifest.json").read_text())
        assert manifest["flipped_indices"] == want.flipped_indices


    def test_default_kernel_is_a_unit_rbf(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 200, "noise_std": 0.1},
            "model": {"epochs": 5},
            "seed": 3,
        })
        out_path = tmp_path / "debug.csv"
        assert run("debug", "--config", config, "--out", str(out_path)) == 0
        args = (gen_two_moons(200, 0.1, seed=3), 0.05, TrainConfig(epochs=5, seed=3))
        caches = []
        inner = evalharness.build_cache
        with monkeypatch.context() as patch:  # keep the cache the experiment builds
            patch.setattr(evalharness, "build_cache", lambda *a, **k: caches.append(inner(*a, **k)) or caches[-1])
            label_flip_debug_experiment(*args, None, 3)
        want = label_flip_debug_experiment(*args, RBFKernel(1.0), 3)
        # every RBF bandwidth ranks by the score norm: the median heuristic gives the same report
        median = label_flip_debug_experiment(*args, RBFKernel(median_heuristic_gamma(caches[0].z)), 3)
        assert (median.ranking, median.points) == (want.ranking, want.points)
        rows = list(csv.DictReader(open(out_path)))
        assert [(int(r["m"]), float(r["precision"]), float(r["recall"])) for r in rows] == want.points
        manifest = json.loads((tmp_path / "debug.csv.manifest.json").read_text())
        assert manifest["flipped_indices"] == want.flipped_indices


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


    def test_structured_rows_match_the_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 50, "noise_std": 0.1},
            "model": {"epochs": 5},
            "experiment": {"shifts": [0.25, 1]},
        })
        out_path = tmp_path / "shift.csv"
        assert run("ksd-shift", "--config", config, "--out", str(out_path), "--format", "structured") == 0
        assert_rows_match_csv(capsys.readouterr().out, out_path, 3)

    def test_overflowing_shift_exits_4_without_a_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 50, "noise_std": 0.1},
            "model": {"epochs": 5},
            "experiment": {"shifts": [1e300]},
        })
        out_path = tmp_path / "shift.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("ksd-shift", "--config", config, "--out", str(out_path)) == 4
        assert "not finite" in capsys.readouterr().err
        assert not out_path.exists()

    def test_vector_shift_is_rejected_before_training(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, {"experiment": {"shifts": [[0.1, 0.2]]}})
        monkeypatch.setattr("hdexplain.cli.train", lambda *a, **k: pytest.fail("trained"))
        out_path = tmp_path / "shift.csv"
        assert run("ksd-shift", "--config", config, "--out", str(out_path)) == 2
        assert not out_path.exists()


    @pytest.mark.parametrize("gamma", [None, 2.0])
    def test_rows_equal_the_library_experiment(self, tmp_path, gamma):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 50, "noise_std": 0.1},
            "model": {"epochs": 5},
            "explainer": {"gamma": gamma},
            "seed": 2,
        })
        out_path = tmp_path / "shift.csv"
        assert run("ksd-shift", "--config", config, "--out", str(out_path)) == 0
        data = gen_two_moons(50, 0.1, seed=2)
        model = train(data, TrainConfig(epochs=5, seed=2))
        if gamma is None:
            gamma = median_heuristic_gamma(make_stein_points(model, data.features, data.labels)[0])
        want = ksd_shift_experiment(model, data, [0.0, 0.25, 0.5], RBFKernel(gamma))
        rows = list(csv.DictReader(open(out_path)))
        assert [(float(r["shift"]), float(r["ksd_vstat"])) for r in rows] == want

    def test_scores_the_dataset_once_per_shift(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, {
            "dataset": {"source": "synthetic:two_moons", "n": 50, "noise_std": 0.1},
            "model": {"epochs": 5},
        })
        calls = []
        score = MLPClassifier.score
        monkeypatch.setattr(MLPClassifier, "score", lambda *a, **k: calls.append(1) or score(*a, **k))
        assert run("ksd-shift", "--config", config, "--out", str(tmp_path / "shift.csv")) == 0
        assert len(calls) == len(RunConfig().experiment.shifts) == 3


class TestConfigTypes:
    @pytest.mark.parametrize("doc", [
        {"dataset": {"n": "60"}},
        {"model": {"hidden_dims": 5}},
        {"model": {"hidden_dims": [8, 8.5]}},
        {"model": {"epochs": 2.5}},
        {"explainer": {"top_k": "3"}},
        {"explainer": {"gamma": "0.5"}},
        {"dataset": {"standardize": 1}},
        {"experiment": {"shifts": [[0.1, 0.2]]}},
        {"experiment": {"methods": "hd-explain"}},
        {"seed": True},
        {"model": []},
        [],
    ], ids=lambda doc: json.dumps(doc, separators=(",", ":")))
    def test_mistyped_value_is_a_usage_error(self, tmp_path, doc, capsys):
        config = write_config(tmp_path, doc)
        out_path = tmp_path / "m.bin"
        assert run("train", "--config", config, "--out", str(out_path)) == 2
        assert "error:" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("command, doc, key", [
        ("train", {"dataset": {"noise_std": float("nan")}}, "config.dataset.noise_std"),
        ("ksd-shift", {"experiment": {"shifts": [0.5, float("nan")]}}, "config.experiment.shifts[1]"),
        ("train", {"model": {"learning_rate": float("inf")}}, "config.model.learning_rate"),
        ("train", {"explainer": {"gamma": -float("inf")}}, "config.explainer.gamma"),
    ], ids=["noise_std-nan", "shifts-nan", "learning_rate-inf", "gamma-minus-inf"])
    def test_non_finite_float_is_a_usage_error(self, tmp_path, capsys, command, doc, key):
        # json reads NaN and Infinity; without the check these runs exit 4 after training
        config = write_config(tmp_path, doc)
        out_path = tmp_path / "out"
        assert run(command, "--config", config, "--out", str(out_path)) == 2
        assert f"error: {key} must be a finite number" in capsys.readouterr().err
        assert not out_path.exists()

    def test_int_float_and_null_where_declared(self, tmp_path):
        from hdexplain.cli import load_run_config

        doc = {"dataset": {"noise_std": 0}, "model": {"hidden_dims": None},
               "explainer": {"gamma": 2}, "experiment": {"shifts": [0, 1.5]}}
        cfg = load_run_config(write_config(tmp_path, doc))
        assert cfg.dataset.noise_std == 0 and cfg.explainer.gamma == 2
        assert cfg.model.hidden_dims is None and cfg.experiment.shifts == [0, 1.5]

    @pytest.mark.parametrize("command, doc, flags, message", [
        ("train", {"model": {"hidden_dims": [0]}}, [],
         "hidden_dims entries must be an integer of at least 1, got 0"),
        ("debug", {"model": {"hidden_dims": [-1]}}, [],
         "hidden_dims entries must be an integer of at least 1, got -1"),
        ("explain", None, ["--index", "3", "--top-k", "0"], "top_k must be an integer of at least 1, got 0"),
        ("explain", None, ["--point", "0.1,0.2", "--top-k", "0"],
         "top_k must be an integer of at least 1, got 0"),
    ], ids=["train-hidden_dims-0", "debug-hidden_dims-minus-1", "explain-index-top_k-0",
            "explain-point-top_k-0"])
    def test_bad_count_is_a_usage_error_before_any_forward_pass(self, trained_artifacts, tmp_path,
                                                                 capsys, monkeypatch, command, doc,
                                                                 flags, message):
        config, model_path, _ = trained_artifacts
        if doc is None:
            # a last-layer cache: --index then checks the point's representation, a forward pass
            cache_path = str(tmp_path / "last_layer.bin")
            assert run("cache", "--config", config, "--model", model_path, "--variant", "last-layer",
                       "--out", cache_path) == 0
            flags = ["--model", model_path, "--cache", cache_path, *flags]
        else:
            config = write_config(tmp_path, doc, "bad.json")
        passes = []
        real = nnet._forward_into
        monkeypatch.setattr(nnet, "_forward_into", lambda *a: passes.append(1) or real(*a))
        out_path = tmp_path / "out"
        assert run(command, "--config", config, *flags, "--out", str(out_path)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert passes == [] and not out_path.exists()

    def test_model_defaults_are_the_library_defaults(self):
        assert train_config_from(RunConfig()) == TrainConfig(seed=0)
        explainer = RunConfig().explainer
        default = ExplainerConfig(kernel=None)
        assert (explainer.variant, explainer.top_k) == (default.variant, default.top_k)

    def test_defaults_round_trip(self, tmp_path):
        from dataclasses import asdict

        from hdexplain.cli import RunConfig, load_run_config

        assert load_run_config(write_config(tmp_path, asdict(RunConfig()))) == RunConfig()


class TestCommonBehavior:
    def test_usage_error_exit_code(self):
        assert run("no-such-command") == 2

    def test_no_config_runs_on_the_defaults(self, tmp_path, capsys):
        from dataclasses import asdict

        bare, configured = tmp_path / "bare.bin", tmp_path / "configured.bin"
        assert run("train", "--out", str(bare)) == 0
        defaults = write_config(tmp_path, asdict(RunConfig()))
        assert run("train", "--config", defaults, "--out", str(configured)) == 0
        assert bare.read_bytes() == configured.read_bytes()
        assert load_model(bare).layer_dims == [2, 32, 32, 2]

    @pytest.mark.parametrize("source, message", [
        ("synthetic:spirals", "unknown dataset source 'synthetic:spirals'"),
        ("idx:images.idx", "idx dataset spec must be idx:<images_path>,<labels_path>"),
    ])
    def test_bad_dataset_source_is_a_usage_error(self, tmp_path, capsys, source, message):
        config = write_config(tmp_path, {"dataset": {"source": source}})
        out_path = tmp_path / "m.bin"
        assert run("train", "--config", config, "--out", str(out_path)) == 2
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("case, message", [
        ("missing", "cannot read config file"),
        ("invalid", "is not valid JSON"),
    ])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys, case, message):
        path = tmp_path / "config.json"
        if case == "invalid":
            path.write_text('{"seed": 1,}')
        out_path = tmp_path / "m.bin"
        assert run("train", "--config", str(path), "--out", str(out_path)) == 2
        assert message in capsys.readouterr().err
        assert not out_path.exists()

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
