"""Command-line surface: train, cache, explain, evaluate, debug, ksd-shift.

All commands read one JSON config document (``--config``) whose keys and
value types are validated strictly; command-line flags override file values.
Artifacts are validated on read and written atomically. Exit codes: 0
success, 2 usage error, 3 data/format error (and a closed stdout), 4
runtime/numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from . import evalharness
from .data import Dataset, gen_rectangles, gen_two_moons, load_csv, load_idx, standardize
from .errors import (
    DataLoadError,
    ModelFormatError,
    StaleCacheError,
    TrainingError,
)
from .explain import ExplainerConfig, _check_cache, build_cache, explain, explanation_to_json
from .nnet import TrainConfig, load_model, train
from .stein import (_VARIANTS, RBFKernel, _write_atomic, kernel_by_name, load_cache, median_heuristic_gamma,
                    save_cache)

__all__ = ["RunConfig", "main"]


class UsageError(Exception):
    """Bad flags or config values."""


@dataclass
class DatasetConfig:
    source: str = "synthetic:two_moons"  # synthetic:two_moons | synthetic:rectangles | csv:<path> | idx:<imgs>,<labels>
    n: int = 500
    noise_std: float = 0.1
    label_column: str = "label"
    standardize: bool = False


@dataclass
class ModelConfig:
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    momentum: float = TrainConfig.momentum
    l2_weight_decay: float = TrainConfig.l2_weight_decay
    validation_fraction: float = TrainConfig.validation_fraction
    hidden_dims: list[int] | None = TrainConfig.hidden_dims  # None: (32, 32), or (128, 64) for images


@dataclass
class ExplainerSpec:
    variant: str = ExplainerConfig.variant  # raw | last-layer
    kernel: str = "rbf"  # linear | rbf | imq
    gamma: float | None = None  # None: median heuristic over the points a command scores; debug: 1
    imq_c: float = 1.0
    imq_beta: float = -0.5
    top_k: int = ExplainerConfig.top_k


@dataclass
class ExperimentConfig:
    augmentation: str = "noise"  # noise | hflip | identity
    trials: int = 30
    sample_size: int = 100
    flip_fraction: float = 0.05
    shifts: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.5])
    methods: list[str] = field(default_factory=lambda: ["hd-explain"])


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    explainer: ExplainerSpec = field(default_factory=ExplainerSpec)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    seed: int = 0


@functools.cache
def _field_types(cls) -> dict:
    # once per class: get_type_hints evaluates the string annotations on every call
    return typing.get_type_hints(cls)


def _build(tp, value, where: str):
    """``value`` checked against the declared type ``tp``; objects become dataclasses."""
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise UsageError(f"{where} must be an object")
        hints = _field_types(tp)
        unknown = set(value) - set(hints)
        if unknown:
            raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")
        return tp(**{key: _build(hints[key], v, f"{where}.{key}") for key, v in value.items()})
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _build(args[0], value, where)
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise UsageError(f"{where} must be a list, got {value!r}")
        return [_build(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise UsageError(f"{where} must be {tp.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
        raise UsageError(f"{where} must be a finite number, got {value!r}")
    return value


def load_run_config(path=None) -> RunConfig:
    """Load a RunConfig from a JSON file; missing keys keep their defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    return _build(RunConfig, doc, "config")


def dataset_from_config(cfg: RunConfig) -> Dataset:
    src = cfg.dataset.source
    if src == "synthetic:two_moons":
        ds = gen_two_moons(cfg.dataset.n, cfg.dataset.noise_std, cfg.seed)
    elif src == "synthetic:rectangles":
        ds = gen_rectangles(cfg.dataset.n, cfg.seed)
    elif src.startswith("csv:"):
        ds = load_csv(src[len("csv:"):], cfg.dataset.label_column)
    elif src.startswith("idx:"):
        spec = src[len("idx:"):]
        if "," not in spec:
            raise UsageError("idx dataset spec must be idx:<images_path>,<labels_path>")
        images_path, labels_path = spec.split(",", 1)
        ds = load_idx(images_path, labels_path)
    else:
        raise UsageError(f"unknown dataset source {src!r}")
    if cfg.dataset.standardize:
        ds = standardize(ds)
    return ds


def train_config_from(cfg: RunConfig) -> TrainConfig:
    """The model section, whose fields are TrainConfig's but ``seed``, and the run seed."""
    return TrainConfig(seed=cfg.seed, **asdict(cfg.model))


def kernel_from_config(cfg: RunConfig):
    """The configured kernel, or None for ``rbf`` with ``gamma: null``: each
    command then fits a median-heuristic RBF to the points it scores."""
    spec = cfg.explainer
    if spec.kernel == "rbf" and spec.gamma is None:
        return None
    return kernel_by_name(spec.kernel, gamma=spec.gamma, c=spec.imq_c, beta=spec.imq_beta)


@contextlib.contextmanager
def _writing(path):
    """A failed write of ``path`` is a data error (exit 3)."""
    try:
        yield
    except OSError as exc:
        raise DataLoadError(f"cannot write {path}: {exc.strerror}") from exc


def _atomic_write_bytes(path, data) -> None:
    with _writing(path):
        _write_atomic(path, data)


def _emit(args, summary: dict) -> None:
    """Print a command summary as key/value lines or one JSON document."""
    if getattr(args, "format", "table") == "structured":
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")


def _report(args, cfg: RunConfig, rows: list[dict], table: list[str], **extra) -> int:
    """Write the CSV of ``rows`` and its manifest, then print the rows or the table."""
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write_bytes(args.out, text.getvalue().encode("utf-8"))
    manifest = {**asdict(cfg), "command": args.command, **extra}
    _atomic_write_bytes(args.out + ".manifest.json",
                        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    if args.format == "structured":
        print(json.dumps({"out": args.out, "rows": rows}, indent=2))
    else:
        print("\n".join([*table, f"report -> {args.out}"]))
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    dataset = dataset_from_config(cfg)
    model = train(dataset, train_config_from(cfg))
    _atomic_write_bytes(args.out, model.serialize())
    summary = {
        "out": args.out,
        "layer_dims": model.layer_dims,
        "train_accuracy": round(model.train_accuracy, 6),
    }
    if model.validation_accuracy is not None:
        summary["validation_accuracy"] = round(model.validation_accuracy, 6)
    _emit(args, summary)
    return 0


def cmd_cache(args, cfg: RunConfig) -> int:
    variant = args.variant or cfg.explainer.variant
    model = load_model(args.model)
    dataset = dataset_from_config(cfg)
    cache = build_cache(model, dataset, variant)
    with _writing(args.out):
        save_cache(cache, args.out)  # streamed: no image of the file in memory
    _emit(args, {
        "out": args.out,
        "n": cache.n,
        "D": cache.dim,
        "model_fingerprint": f"{cache.model_fingerprint:016x}",
    })
    return 0


def _parse_point(text: str, expected_dim: int) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"point must be a comma-separated list of numbers: {exc}") from exc
    if len(values) != expected_dim:
        raise UsageError(f"point has {len(values)} features, model expects {expected_dim}")
    return np.asarray(values)


def cmd_explain(args, cfg: RunConfig) -> int:
    model = load_model(args.model)
    cache = load_cache(args.cache)
    # a stale or mismatched cache fails before the bandwidth fit and the dataset load
    _check_cache(model, cache)
    top_k = args.top_k if args.top_k is not None else cfg.explainer.top_k
    kernel = kernel_from_config(cfg)
    if kernel is None:
        kernel = RBFKernel(median_heuristic_gamma(cache.z))
    config = ExplainerConfig(kernel=kernel, variant=cache.variant, top_k=top_k)
    if args.point is not None:
        x_test = _parse_point(args.point, model.input_dim)
    else:
        dataset = dataset_from_config(cfg)
        if not 0 <= args.index < dataset.n:
            raise UsageError(f"--index {args.index} out of range [0, {dataset.n})")
        x_test = dataset.features[args.index]
        # the cache header names no dataset: check what the records can show. A
        # last-layer row starts with the model's representation of its point,
        # from a batch forward pass; a 1-row pass takes other BLAS kernels and
        # differs in the last bits only, far below 1e-9 for tanh activations
        # bounded by 1.
        own, tol = (x_test, 0.0) if cache.variant == "raw" else (model.representation(x_test), 1e-9)
        if (dataset.n != cache.n or not np.array_equal(dataset.labels, cache.labels)
                or not np.allclose(cache.z[args.index, :own.size], own, rtol=0.0, atol=tol)):
            raise DataLoadError(f"the configured dataset (n={dataset.n}) is not the one the cache was "
                                f"built from (n={cache.n}): its size, labels or features differ")
    result = explain(model, cache, x_test, config)
    if args.format == "structured":
        text = explanation_to_json(result)
    else:
        lines = [
            f"predicted_label: {result.predicted_label}",
            "predicted_proba: " + " ".join(f"{p:.6f}" for p in result.predicted_proba),
            f"{'rank':>4}  {'train_index':>11}  {'kernel_value':>18}  {'train_label':>11}",
        ]
        for rank, (idx, value, label) in enumerate(result.ranked, start=1):
            lines.append(f"{rank:>4}  {idx:>11}  {value:>18.10g}  {label:>11}")
        lines.append(f"elapsed_ms: {result.elapsed * 1000.0:.3f}")
        text = "\n".join(lines)
    if args.out:
        _atomic_write_bytes(args.out, (explanation_to_json(result) + "\n").encode("utf-8"))
    print(text)
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    methods = cfg.experiment.methods
    if not methods or len(set(methods)) < len(methods) or set(methods) - set(evalharness.METHOD_VARIANTS):
        raise UsageError(f"experiment.methods {methods} must name a non-empty subset of "
                         f"{list(evalharness.METHOD_VARIANTS)}, each method once")

    dataset = dataset_from_config(cfg)
    evalharness._check_augmentation(dataset, cfg.experiment.augmentation)
    model = train(dataset, train_config_from(cfg))
    config = ExplainerConfig(kernel=kernel_from_config(cfg), top_k=cfg.explainer.top_k)
    rows, table = [], []
    for method in methods:
        report = evalharness.hit_rate_experiment(
            model, dataset, cfg.experiment.augmentation, cfg.experiment.trials,
            cfg.experiment.sample_size, config, cfg.seed, method=method,
        )
        rows.extend(report.csv_rows())
        table.extend(f"{method}: hit@{k}={report.hit_rate[k]:.4f} coverage@{k}={report.coverage[k]:.4f}"
                     for k in sorted(report.hit_rate))
        table.append(f"{method}: mean_ms={report.mean_ms:.3f} ci95_ms={report.ci95_ms:.3f}")
    return _report(args, cfg, rows, table)


def cmd_debug(args, cfg: RunConfig) -> int:
    dataset = dataset_from_config(cfg)
    report = evalharness.label_flip_debug_experiment(
        dataset, cfg.experiment.flip_fraction, train_config_from(cfg), kernel_from_config(cfg), cfg.seed)
    rows = [
        {"method": report.method, "m": m, "precision": p, "recall": r,
         "flips": report.flip_count, "n": dataset.n, "seed": cfg.seed}
        for m, p, r in report.points
    ]
    table = [f"precision@{m}={p:.4f} recall@{m}={r:.4f}" for m, p, r in report.points]
    return _report(args, cfg, rows, table, flips=report.flip_count,
                   flipped_indices=report.flipped_indices)


def cmd_ksd_shift(args, cfg: RunConfig) -> int:
    dataset = dataset_from_config(cfg)
    model = train(dataset, train_config_from(cfg))
    results = evalharness.ksd_shift_experiment(model, dataset, cfg.experiment.shifts,
                                               kernel_from_config(cfg))
    rows = [{"shift": float(s), "ksd_vstat": v} for s, v in results]
    table = [f"shift={row['shift']:g} ksd_vstat={row['ksd_vstat']:.6g}" for row in rows]
    return _report(args, cfg, rows, table)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdexplain",
        description="Explain classifier predictions by ranking training points with a Stein kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=default_out, help=f"output path (default {default_out})")
        p.add_argument("--format", choices=["table", "structured"], default="table",
                       help="stdout presentation")

    p = sub.add_parser("train", help="train a classifier and write the model binary")
    common(p, "model.bin")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cache", help="precompute scored training points for a model")
    common(p, "cache.bin")
    p.add_argument("--model", required=True, help="model binary to score with")
    p.add_argument("--variant", choices=_VARIANTS, help="override the config variant")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("explain", help="rank training points for one test input")
    common(p, None)
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--point", help="inline features, comma separated")
    query.add_argument("--index", type=int, help="explain the dataset point at this index")
    p.add_argument("--top-k", type=int, dest="top_k")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="run the hit-rate/coverage/timing experiment")
    common(p, "report.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("debug", help="label-flip self-influence debugging experiment")
    common(p, "debug.csv")
    p.set_defaults(func=cmd_debug)

    p = sub.add_parser("ksd-shift", help="KSD of the training set under feature shifts")
    common(p, "ksd_shift.csv")
    p.set_defaults(func=cmd_ksd_shift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        code = args.func(args, cfg)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): drop the unwritten rest, so the
        # interpreter's final flush does not fail again
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataLoadError, ModelFormatError, StaleCacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TrainingError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
