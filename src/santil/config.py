"""Run configuration: JSON schema, validation, dataset and architecture resolution.

A config file is a single JSON object; unknown keys are rejected so typos
surface immediately, and ``_FIELD_CHECKS`` holds each field's one check, in
field order. ``architecture`` names one of ``layers.PRESETS``; a network
outside them is built in Python as an ``ArchitectureSpec``.
``RunConfig.from_dict(cfg.to_dict())`` round-trips to an equal config, which
reports rely on for their config echo.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import groupby
from pathlib import Path

from .data import CIFAR_VARIANTS, DATASET_FILES, Dataset, load_cifar, load_idx, synthetic_dataset
from .engine import STRATEGY_TABLE
from .layers import PRESETS, ArchitectureSpec, output_shape
from .tensor import ShapeError

ENV_DATA_ROOT = "SAN_TIL_DATA_ROOT"

STRATEGIES = tuple(STRATEGY_TABLE)
# config dataset name -> (the recipe whose files it reads, the sequence kind it makes)
_SOURCES = {
    "mnist": ("mnist", "split"),
    "fashion-mnist": ("fashion-mnist", "split"),
    "permuted-mnist": ("mnist", "permuted"),
    "cifar10": ("cifar10", "split"),
    "cifar100": ("cifar100", "split"),
}
DATASET_NAMES = (*_SOURCES, "synthetic")


def _is_int(value) -> bool:
    """An integer that is not a boolean (``True`` is an int to Python, not to a config)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float. JSON parses ``NaN`` and ``Infinity`` as floats;
    an int too large for a float counts as infinite."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _rule(ok, what: str):
    """A field check, (name, value) -> problems: ``<name>: must be <what>, got <value!r>`` unless ok."""
    return lambda name, value: [] if ok(value) else [f"{name}: must be {what}, got {value!r}"]


_POSITIVE_INT = _rule(lambda v: _is_int(v) and v >= 1, "a positive integer")
_AT_LEAST_TWO = _rule(lambda v: _is_int(v) and v >= 2, "an integer >= 2")

# a synthetic dataset's fields: default and check
_SYNTHETIC_FIELDS = {
    "num_classes": (4, _POSITIVE_INT),
    "per_class": (150, _AT_LEAST_TWO),
    "per_class_test": (50, _AT_LEAST_TWO),
    "shape": (
        [1, 8, 8],
        _rule(
            lambda v: isinstance(v, list) and len(v) == 3 and all(_is_int(d) and d >= 1 for d in v),
            "a list of 3 positive integers",
        ),
    ),
    "data_seed": (7, _rule(lambda v: _is_int(v) and v >= 0, "a non-negative integer")),
}


def _with_defaults(dataset):
    """A dataset name as a dataset object; a synthetic one with its omitted fields filled in."""
    dataset = {"name": dataset} if isinstance(dataset, str) else dataset
    if isinstance(dataset, dict) and dataset.get("name") == "synthetic":
        return {key: default for key, (default, _) in _SYNTHETIC_FIELDS.items()} | dataset
    return dataset


def _dataset_problems(name: str, dataset) -> list[str]:
    """It must name a dataset; a synthetic one takes ``_SYNTHETIC_FIELDS``, any other only ``name``."""
    if not isinstance(dataset, dict) or dataset.get("name") not in DATASET_NAMES:
        return [f"{name}: must name one of {list(DATASET_NAMES)}, got {dataset!r}"]
    synthetic = dataset["name"] == "synthetic"
    problems = [
        f"{name}.{key}: unknown field"
        for key in dataset
        if key != "name" and not (synthetic and key in _SYNTHETIC_FIELDS)
    ]
    if synthetic:
        for key, (_, check) in _SYNTHETIC_FIELDS.items():
            problems += check(f"{name}.{key}", dataset[key])
    return problems


def _architecture_problems(name: str, arch) -> list[str]:
    if isinstance(arch, str):
        return [] if arch in PRESETS else [f"{name}: unknown preset {arch!r}; presets are {sorted(PRESETS)}"]
    kind = type(arch).__name__  # named by type: an old layer-by-layer architecture's repr runs to a paragraph
    got = "null" if arch is None else f"an {kind}" if kind[0] in "aeiou" else f"a {kind}"
    return [f"{name}: must name a preset, got {got}; presets are {sorted(PRESETS)}"]


def _class_order_problems(name: str, order) -> list[str]:
    if isinstance(order, list):
        return [] if all(_is_int(v) for v in order) else [f"{name}: list entries must be integers"]
    return [] if order == "default" else [f"{name}: 'default' or a class-id list, got {order!r}"]


def repeat_problems(name: str, what: str, values) -> list[str]:
    """``<name>: each <what> may appear once; <repeats, sorted> repeated``, if any value repeats."""
    repeated = [v for v, same in groupby(sorted(values)) if len(list(same)) > 1]
    return [f"{name}: each {what} may appear once; {repeated} repeated"] if repeated else []


def _seeds_problems(name: str, seeds) -> list[str]:
    if not (isinstance(seeds, list) and seeds and all(_is_int(s) and s >= 0 for s in seeds)):
        return [f"{name}: must be a non-empty list of non-negative ints, got {seeds!r}"]
    return repeat_problems(name, "seed", seeds)


# one check per RunConfig field, in field order
_FIELD_CHECKS = {
    "strategy": _rule(lambda v: v in STRATEGIES, f"one of {list(STRATEGIES)}"),
    "dataset": _dataset_problems,
    "num_tasks": _POSITIVE_INT,
    "architecture": _architecture_problems,
    "class_order": _class_order_problems,
    "epochs": _POSITIVE_INT,
    "batch_size": _POSITIVE_INT,
    "lr": _rule(lambda v: _is_number(v) and v > 0, "a finite positive number"),
    "seeds": _seeds_problems,
    "ortho_alpha": _rule(lambda v: _is_number(v) and v >= 0, "a finite non-negative number"),
    "adjust_kernel": _rule(lambda v: _is_int(v) and v >= 1 and v % 2 == 1, "an odd positive integer"),
    "data_root": _rule(lambda v: v is None or isinstance(v, str), "a string path"),
    "out_dir": _rule(lambda v: isinstance(v, str), "a string path"),
}


def _default(f):
    """A dataclass field's default value; None for a required field."""
    if f.default_factory is not MISSING:
        return f.default_factory()
    return None if f.default is MISSING else f.default


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists field-level diagnostics.

    A ``ValueError``, so an API caller that passes a bad argument, such as a
    task order that is not a permutation, can catch either.
    """

    def __init__(self, problems):
        problems = list(problems)
        super().__init__("; ".join(problems))
        self.problems = problems


class DataFilesError(Exception):
    """Dataset files are missing from the data root; ``dataset`` names the
    fetch-data recipe that writes them."""

    def __init__(self, dataset: str, missing, data_root):
        self.dataset = dataset
        self.missing = [str(p) for p in missing]
        hint = f"run `santil fetch-data --dataset {dataset} --data-root {data_root}` to download them"
        super().__init__(
            f"missing {dataset} files: {', '.join(self.missing)} ({hint})"
        )


@dataclass
class RunConfig:
    strategy: str
    dataset: dict
    num_tasks: int
    architecture: str  # a PRESETS name
    class_order: object = "default"
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.001
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    ortho_alpha: float = 0.0
    adjust_kernel: int = 3
    data_root: str | None = None
    out_dir: str = "runs/out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
        problems = [f"{key}: unknown field" for key in raw if key not in cls.__dataclass_fields__]
        checked = {f.name: raw[f.name] if f.name in raw else _default(f) for f in fields(cls)}
        checked["dataset"] = _with_defaults(checked["dataset"])
        for name, value in checked.items():
            problems += _FIELD_CHECKS[name](name, value)
        permuted = not problems and sequence_kind(checked["dataset"]) == "permuted"  # once every field is valid
        if permuted and checked["class_order"] != "default":
            problems.append("class_order: not applicable to permuted tasks")
        if problems:
            raise ConfigError(problems)
        seeds = list(checked["seeds"])
        checked.update(lr=float(checked["lr"]), ortho_alpha=float(checked["ortho_alpha"]), seeds=seeds)
        return cls(**checked)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"]) from None
        except OSError as exc:  # a directory, or no permission to read
            raise ConfigError([f"config file {path} cannot be read: {exc.strerror}"]) from None
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"]) from None
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file {path} is not valid JSON: {exc}"]) from None
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return asdict(self)


def sequence_kind(dataset: dict) -> str:
    """The kind of task sequence a config's dataset makes, "split" or "permuted", known before it loads."""
    return _SOURCES.get(dataset["name"], (None, "split"))[1]


def resolve_data_root(data_root: str | None) -> Path:
    """The given directory, else ``$SAN_TIL_DATA_ROOT``, else ``./data``."""
    return Path(data_root or os.environ.get(ENV_DATA_ROOT) or "data")


# ---------------------------------------------------------------------------
# dataset resolution


def load_pools(config: RunConfig) -> tuple[Dataset, Dataset, dict[str, str]]:
    """(train pool, test pool, files) for the configured dataset.

    ``files`` maps each path read, train files then test files in
    ``DATASET_FILES`` order, to its sha256; it is empty for the synthetic corpus.
    """
    name = config.dataset["name"]
    root = resolve_data_root(config.data_root)
    if name == "synthetic":
        opts = config.dataset
        train = synthetic_dataset(
            opts["num_classes"], opts["per_class"], opts["shape"], seed=opts["data_seed"]
        )
        test = synthetic_dataset(
            opts["num_classes"],
            opts["per_class_test"],
            opts["shape"],
            seed=opts["data_seed"] + 1,
            pattern_seed=opts["data_seed"],
        )
        return train, test, {}
    recipe = _SOURCES[name][0]  # a validated config names a dataset santil knows
    layout = DATASET_FILES[recipe]
    directory = root / layout.directory
    cifar = recipe in CIFAR_VARIANTS

    def located(file: str) -> Path:
        # fetch-data stores unpacked files, but an IDX .gz drop-in also loads
        path, gz = directory / file, directory / (file + ".gz")
        return gz if not (cifar or path.exists()) and gz.exists() else path

    train, test = [located(f) for f in layout.train], [located(f) for f in layout.test]
    missing = [p for p in train + test if not p.exists()]
    if missing:
        raise DataFilesError(recipe, missing, root)
    files = {}  # the loaders hash the bytes they parse
    if cifar:
        return load_cifar(train, recipe, files), load_cifar(test, recipe, files), files
    return load_idx(*train, files), load_idx(*test, files), files


# ---------------------------------------------------------------------------
# architecture resolution

def resolve_architecture(config: RunConfig, input_shape: tuple[int, int, int], *task_classes: int) -> ArchitectureSpec:
    """The config's preset, built for these images with a classifier as wide as the widest task.

    The class counts are those of the tasks in training order; the preset's
    ``base_classes`` is the largest of them, so every task fits the head.
    The ShapeError a preset raises when it does not fit the images (``tiny``
    on 1x7x7, say) becomes a config error naming the part. With the
    orthogonality penalty on, the adjustment output must flatten to a perfect
    square, since the penalty views each sample's features as a square matrix.
    """
    try:
        spec = PRESETS[config.architecture](
            input_shape=input_shape,
            base_classes=max(task_classes),
            adjust_kernel=config.adjust_kernel,
        )
    except ShapeError as exc:  # "backbone: layer 2: ..."
        raise ConfigError([f"architecture.{exc}"]) from None
    width = math.prod(output_shape(spec.adjustment, output_shape(spec.backbone, spec.input_shape)))
    if config.ortho_alpha > 0 and math.isqrt(width) ** 2 != width:
        raise ConfigError(
            [
                f"ortho_alpha: the adjustment output flattens to {width} features, "
                "not a perfect square, so the orthogonality penalty cannot view it as a square matrix"
            ]
        )
    return spec
