"""Command-line surface: train, cache, explain, evaluate, debug, ksd-shift.

All commands read one JSON config document (``--config``) whose keys are
validated strictly; command-line flags override file values. Artifacts are
validated on read and written atomically. Exit codes: 0 success, 2 usage
error, 3 data/format error, 4 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import evalharness
from .data import Dataset, gen_rectangles, gen_two_moons, load_csv, load_idx, standardize
from .errors import (
    DataLoadError,
    ModelFormatError,
    StaleCacheError,
    TrainingError,
)
from .explain import ExplainerConfig, build_cache, explain, explanation_to_json
from .nnet import TrainConfig, load_model, train
from .stein import ScoreCache, kernel_by_name, load_cache, median_heuristic_gamma

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
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 0.1
    momentum: float = 0.9
    l2_weight_decay: float = 1e-3
    validation_fraction: float = 0.0
    hidden_dims: list[int] | None = None  # default: (32, 32), or (128, 64) for images


@dataclass
class ExplainerSpec:
    variant: str = "raw"  # raw | last-layer
    kernel: str = "rbf"  # linear | rbf | imq
    gamma: float | None = None  # None: median heuristic over the cache
    imq_c: float = 1.0
    imq_beta: float = -0.5
    top_k: int = 3


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


_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "explainer": ExplainerSpec,
    "experiment": ExperimentConfig,
}


def _build_section(cls, values: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown config keys in {cls.__name__}: {sorted(unknown)}")
    return cls(**values)


def load_run_config(path=None) -> RunConfig:
    """Load a RunConfig from a JSON file; missing sections keep their defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise UsageError(f"config section {name!r} must be an object")
        kwargs[name] = _build_section(cls, section)
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise UsageError("config key 'seed' must be an integer")
    return RunConfig(seed=seed, **kwargs)


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
    m = cfg.model
    return TrainConfig(
        epochs=m.epochs,
        batch_size=m.batch_size,
        learning_rate=m.learning_rate,
        momentum=m.momentum,
        seed=cfg.seed,
        l2_weight_decay=m.l2_weight_decay,
        validation_fraction=m.validation_fraction,
    )


def kernel_from_config(cfg: RunConfig, cache: ScoreCache):
    spec = cfg.explainer
    gamma = spec.gamma
    if spec.kernel == "rbf" and gamma is None:
        gamma = median_heuristic_gamma(cache.z)
    return kernel_by_name(spec.kernel, gamma=gamma, c=spec.imq_c, beta=spec.imq_beta)


def _atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _emit(args, summary: dict) -> None:
    """Print a command summary as key/value lines or one JSON document."""
    if getattr(args, "format", "table") == "structured":
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    dataset = dataset_from_config(cfg)
    model = train(dataset, train_config_from(cfg), hidden_dims=cfg.model.hidden_dims)
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


def cmd_cache(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    variant = args.variant or cfg.explainer.variant
    model = load_model(args.model)
    dataset = dataset_from_config(cfg)
    cache = build_cache(model, dataset, variant)
    _atomic_write_bytes(args.out, cache.serialize())
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


def cmd_explain(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    model = load_model(args.model)
    cache = load_cache(args.cache)
    if args.point is not None:
        x_test = _parse_point(args.point, model.input_dim)
    elif args.index is not None:
        dataset = dataset_from_config(cfg)
        if not 0 <= args.index < dataset.n:
            raise UsageError(f"--index {args.index} out of range [0, {dataset.n})")
        x_test = dataset.features[args.index]
    else:
        raise UsageError("explain needs --point or --index")
    top_k = args.top_k if args.top_k is not None else cfg.explainer.top_k
    kernel = kernel_from_config(cfg, cache)
    config = ExplainerConfig(kernel=kernel, variant=cache.variant, top_k=top_k)
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
    print(text)
    if args.out:
        _atomic_write_bytes(args.out, (explanation_to_json(result) + "\n").encode("utf-8"))
    return 0


def _manifest(cfg: RunConfig, extra: dict) -> dict:
    doc = asdict(cfg)
    doc.update(extra)
    return doc


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    methods = cfg.experiment.methods
    unknown = [m for m in methods if m not in evalharness.METHODS]
    if unknown:
        raise UsageError(f"unknown methods {unknown}; expected subset of {list(evalharness.METHODS)}")

    dataset = dataset_from_config(cfg)
    model = train(dataset, train_config_from(cfg), hidden_dims=cfg.model.hidden_dims)
    # each Stein variant ranks with a kernel fitted to its own cache
    caches, kernels = {}, {}
    for method in methods:
        variant = evalharness.METHOD_VARIANTS[method]
        if variant and variant not in caches:
            caches[variant] = build_cache(model, dataset, variant)
            kernels[variant] = kernel_from_config(cfg, caches[variant])

    rows = []
    reports = []
    for method in methods:
        variant = evalharness.METHOD_VARIANTS[method]
        config = ExplainerConfig(kernel=kernels.get(variant), top_k=cfg.explainer.top_k)
        report = evalharness.hit_rate_experiment(
            model, caches.get(variant), dataset, cfg.experiment.augmentation,
            cfg.experiment.trials, cfg.experiment.sample_size, config, cfg.seed,
            method=method,
        )
        reports.append(report)
        rows.extend(report.csv_rows())
    fieldnames = ["method", "k", "hit_rate", "coverage", "mean_ms", "ci95_ms", "trials", "seed"]
    evalharness.write_csv_report(args.out, fieldnames, rows, _manifest(cfg, {"command": "evaluate"}))
    if args.format == "structured":
        print(json.dumps({"out": args.out, "rows": rows}, indent=2))
    else:
        for report in reports:
            for k in sorted(report.hit_rate):
                print(f"{report.method}: hit@{k}={report.hit_rate[k]:.4f} "
                      f"coverage@{k}={report.coverage[k]:.4f}")
            print(f"{report.method}: mean_ms={report.mean_ms:.3f} ci95_ms={report.ci95_ms:.3f}")
        print(f"report -> {args.out}")
    return 0


def cmd_debug(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    dataset = dataset_from_config(cfg)
    if cfg.explainer.kernel == "rbf" and cfg.explainer.gamma is None:
        kernel = None  # median-heuristic RBF over the corrupted cache
    else:
        kernel = kernel_by_name(cfg.explainer.kernel, gamma=cfg.explainer.gamma,
                                c=cfg.explainer.imq_c, beta=cfg.explainer.imq_beta)
    report = evalharness.label_flip_debug_experiment(
        dataset, cfg.experiment.flip_fraction, train_config_from(cfg), kernel, cfg.seed,
        hidden_dims=cfg.model.hidden_dims,
    )
    rows = [
        {"method": report.method, "m": m, "precision": p, "recall": r,
         "flips": report.flip_count, "n": dataset.n, "seed": cfg.seed}
        for m, p, r in report.points
    ]
    manifest = _manifest(cfg, {
        "command": "debug",
        "flips": report.flip_count,
        "flipped_indices": report.flipped_indices,
    })
    evalharness.write_csv_report(args.out, ["method", "m", "precision", "recall", "flips", "n", "seed"],
                                 rows, manifest)
    if args.format == "structured":
        print(json.dumps({"out": args.out, "rows": rows}, indent=2))
    else:
        for m, p, r in report.points:
            print(f"precision@{m}={p:.4f} recall@{m}={r:.4f}")
        print(f"report -> {args.out}")
    return 0


def cmd_ksd_shift(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    dataset = dataset_from_config(cfg)
    model = train(dataset, train_config_from(cfg), hidden_dims=cfg.model.hidden_dims)
    cache = build_cache(model, dataset, "raw")
    kernel = kernel_from_config(cfg, cache)
    results = evalharness.ksd_shift_experiment(model, dataset, cfg.experiment.shifts, kernel)
    rows = [{"shift": float(s), "ksd_vstat": v} for s, v in results]
    evalharness.write_csv_report(args.out, ["shift", "ksd_vstat"], rows,
                                 _manifest(cfg, {"command": "ksd-shift"}))
    if args.format == "structured":
        print(json.dumps({"out": args.out, "rows": rows}, indent=2))
    else:
        for row in rows:
            print(f"shift={row['shift']:g} ksd_vstat={row['ksd_vstat']:.6g}")
        print(f"report -> {args.out}")
    return 0


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
    p.add_argument("--variant", choices=["raw", "last-layer"], help="override the config variant")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("explain", help="rank training points for one test input")
    common(p, None)
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--point", help="inline features, comma separated")
    p.add_argument("--index", type=int, help="explain the dataset point at this index")
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
        return args.func(args)
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
