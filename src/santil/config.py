"""Run configuration: JSON schema, validation, dataset and architecture resolution.

A config file is a single JSON object; unknown keys are rejected so typos
surface immediately. ``RunConfig.from_dict(cfg.to_dict())`` round-trips to
an equal config, which reports rely on for their config echo.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .data import Dataset, load_cifar, load_idx, synthetic_dataset
from .engine import StrategyKind
from .layers import (
    PRESETS,
    ArchitectureSpec,
    Conv,
    Dense,
    Flatten,
    MaxPool,
    Relu,
    output_shape,
)

ENV_DATA_ROOT = "SAN_TIL_DATA_ROOT"

STRATEGIES = tuple(kind.value for kind in StrategyKind)
DATASET_NAMES = ("mnist", "fashion-mnist", "permuted-mnist", "cifar10", "cifar100", "synthetic")
SELECTION_MODES = ("best-val", "last")

_SYNTHETIC_DEFAULTS = {
    "num_classes": 4,
    "per_class": 150,
    "per_class_test": 50,
    "shape": [1, 8, 8],
    "data_seed": 7,
}


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


# what a synthetic dataset's fields must be: a test, and how to say it
_SYNTHETIC_FIELDS = {
    "num_classes": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "per_class": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "per_class_test": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "shape": (
        lambda v: isinstance(v, list) and len(v) == 3 and all(_is_int(d) and d >= 1 for d in v),
        "a list of 3 positive integers",
    ),
    "data_seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
}


def _dataset_problems(dataset: dict) -> list[str]:
    """What is wrong with a named dataset object: a synthetic dataset takes
    the ``_SYNTHETIC_DEFAULTS`` keys, any other dataset no key but ``name``."""
    synthetic = dataset["name"] == "synthetic"
    problems = [
        f"dataset.{key}: unknown field"
        for key in dataset
        if key != "name" and not (synthetic and key in _SYNTHETIC_DEFAULTS)
    ]
    if synthetic:
        for key, (ok, what) in _SYNTHETIC_FIELDS.items():
            if not ok(dataset[key]):
                problems.append(f"dataset.{key}: must be {what}, got {dataset[key]!r}")
    return problems


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
    """Dataset files are missing from the data root."""

    def __init__(self, dataset: str, missing):
        self.dataset = dataset
        self.missing = [str(p) for p in missing]
        hint = f"run `santil fetch-data --dataset {dataset}` to download them"
        super().__init__(
            f"missing {dataset} files: {', '.join(self.missing)} ({hint})"
        )


@dataclass
class RunConfig:
    strategy: str
    dataset: dict
    num_tasks: int
    architecture: object  # preset name or inline spec dict
    class_order: object = "default"
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.001
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    checkpoint_selection: str = "best-val"
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

        if checked["strategy"] not in STRATEGIES:
            problems.append(f"strategy: must be one of {list(STRATEGIES)}, got {checked['strategy']!r}")

        dataset = checked["dataset"]
        if isinstance(dataset, str):
            dataset = {"name": dataset}
        if not isinstance(dataset, dict) or dataset.get("name") not in DATASET_NAMES:
            problems.append(
                f"dataset: must name one of {list(DATASET_NAMES)}, got {dataset!r}"
            )
        else:
            if dataset["name"] == "synthetic":
                dataset = {**_SYNTHETIC_DEFAULTS, **dataset}
            problems += _dataset_problems(dataset)
        checked["dataset"] = dataset

        if not _is_int(checked["num_tasks"]) or checked["num_tasks"] < 1:
            problems.append(f"num_tasks: must be a positive integer, got {checked['num_tasks']!r}")

        architecture = checked["architecture"]
        if isinstance(architecture, str):
            if architecture not in PRESETS:
                problems.append(
                    f"architecture: unknown preset {architecture!r}; presets are {sorted(PRESETS)}"
                )
        elif isinstance(architecture, dict):
            for part in ("backbone", "adjustment", "classifier"):
                if part not in architecture:
                    problems.append(f"architecture.{part}: required for inline specs")
        else:
            problems.append("architecture: must be a preset name or an inline spec object")

        class_order = checked["class_order"]
        if isinstance(class_order, list):
            if not all(_is_int(v) for v in class_order):
                problems.append("class_order: list entries must be integers")
        elif class_order != "default":
            problems.append(f"class_order: 'default' or a class-id list, got {class_order!r}")

        for name in ("epochs", "batch_size"):
            if not _is_int(checked[name]) or checked[name] < 1:
                problems.append(f"{name}: must be a positive integer, got {checked[name]!r}")
        if not _is_number(checked["lr"]) or checked["lr"] <= 0:
            problems.append(f"lr: must be a finite positive number, got {checked['lr']!r}")

        seeds = checked["seeds"]
        if (
            not isinstance(seeds, list)
            or not seeds
            or not all(_is_int(s) and s >= 0 for s in seeds)
        ):
            problems.append(f"seeds: must be a non-empty list of non-negative ints, got {seeds!r}")
        else:
            repeated = sorted({s for s in seeds if seeds.count(s) > 1})
            if repeated:
                problems.append(f"seeds: each seed may appear once; {repeated} repeated")

        if checked["checkpoint_selection"] not in SELECTION_MODES:
            problems.append(
                f"checkpoint_selection: must be one of {list(SELECTION_MODES)}, "
                f"got {checked['checkpoint_selection']!r}"
            )
        if not _is_number(checked["ortho_alpha"]) or checked["ortho_alpha"] < 0:
            problems.append(
                f"ortho_alpha: must be a finite non-negative number, got {checked['ortho_alpha']!r}"
            )
        kernel = checked["adjust_kernel"]
        if not _is_int(kernel) or kernel < 1 or kernel % 2 == 0:
            problems.append(f"adjust_kernel: must be an odd positive integer, got {kernel!r}")
        if checked["data_root"] is not None and not isinstance(checked["data_root"], str):
            problems.append(f"data_root: must be a string path, got {checked['data_root']!r}")
        if not isinstance(checked["out_dir"], str):
            problems.append(f"out_dir: must be a string path, got {checked['out_dir']!r}")

        if problems:
            raise ConfigError(problems)
        checked.update(lr=float(checked["lr"]), ortho_alpha=float(checked["ortho_alpha"]), seeds=list(seeds))
        return cls(**checked)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"]) from None
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from None
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_data_root(data_root: str | None) -> Path:
    """The given directory, else ``$SAN_TIL_DATA_ROOT``, else ``./data``."""
    return Path(data_root or os.environ.get(ENV_DATA_ROOT) or "data")


# ---------------------------------------------------------------------------
# dataset resolution

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _idx_path(directory: Path, stem: str) -> Path:
    # fetch-data stores unpacked files, but a .gz drop-in also loads
    plain = directory / stem
    return plain if plain.exists() else directory / (stem + ".gz")


def _load_idx_pools(directory: Path, dataset_name: str) -> tuple[Dataset, Dataset]:
    paths = {key: _idx_path(directory, stem) for key, stem in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not p.exists()]
    if missing:
        raise DataFilesError(dataset_name, missing)
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test


def load_pools(config: RunConfig) -> tuple[Dataset, Dataset, str]:
    """(train pool, test pool, sequence kind) for the configured dataset."""
    name = config.dataset["name"]
    root = resolve_data_root(config.data_root)
    if name in ("mnist", "permuted-mnist"):
        train, test = _load_idx_pools(root / "mnist", "mnist")
        return train, test, ("permuted" if name == "permuted-mnist" else "split")
    if name == "fashion-mnist":
        train, test = _load_idx_pools(root / "fashion-mnist", "fashion-mnist")
        return train, test, "split"
    if name == "cifar10":
        directory = root / "cifar-10-batches-bin"
        train_paths = [directory / f"data_batch_{i}.bin" for i in range(1, 6)]
        test_paths = [directory / "test_batch.bin"]
        missing = [p for p in train_paths + test_paths if not p.exists()]
        if missing:
            raise DataFilesError("cifar10", missing)
        return load_cifar(train_paths, "cifar10"), load_cifar(test_paths, "cifar10"), "split"
    if name == "cifar100":
        directory = root / "cifar-100-binary"
        train_path, test_path = directory / "train.bin", directory / "test.bin"
        missing = [p for p in (train_path, test_path) if not p.exists()]
        if missing:
            raise DataFilesError("cifar100", missing)
        return load_cifar([train_path], "cifar100"), load_cifar([test_path], "cifar100"), "split"
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
        return train, test, "split"
    raise ConfigError([f"dataset: unsupported name {name!r}"])


# ---------------------------------------------------------------------------
# architecture resolution

_LAYER_KINDS = {"conv": Conv, "maxpool": MaxPool, "relu": Relu, "linear": Dense, "flatten": Flatten}


def _layer_from_dict(entry: dict, where: str):
    """A layer spec; omitted fields take the spec's defaults, given ones are ints.

    A linear layer's ``out_features`` may also be the ``"base"`` placeholder.
    Booleans, floats and strings are rejected rather than coerced, so 4.7 or
    ``true`` cannot silently become 4 or 1.
    """
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError([f"{where}: each layer needs a 'kind' field, got {entry!r}"])
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ConfigError([f"{where}: unknown layer kind {kind!r}; kinds are {sorted(_LAYER_KINDS)}"])
    spec = _LAYER_KINDS[kind]
    names = {f.name for f in fields(spec)}
    unknown = sorted(set(entry) - names - {"kind"})
    if unknown:
        raise ConfigError([f"{where}: {kind} layer has unknown field(s) {unknown}; fields are {sorted(names)}"])
    given = {key: value for key, value in entry.items() if key != "kind"}
    for key, value in given.items():
        if (kind, value) == ("linear", "base"):
            continue
        if not _is_int(value):
            raise ConfigError([f"{where}: {kind} layer field {key!r} must be an integer, got {value!r}"])
    try:
        return spec(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"{where}: bad {kind} layer {entry!r} ({exc})"]) from None


def resolve_architecture(
    config: RunConfig, input_shape: tuple[int, int, int], first_task_classes: int
) -> ArchitectureSpec:
    """Concrete ArchitectureSpec with the classifier width pinned to task 1.

    With the orthogonality penalty on, the adjustment output must flatten to
    a perfect square, since the penalty views each sample's features as a
    square matrix.
    """
    spec = _spec(config, input_shape, first_task_classes)
    if config.ortho_alpha > 0:
        width = math.prod(output_shape(spec.backbone + spec.adjustment, spec.input_shape))
        if math.isqrt(width) ** 2 != width:
            raise ConfigError(
                [
                    f"ortho_alpha: the adjustment output flattens to {width} features, "
                    "not a perfect square, so the orthogonality penalty cannot view it as a square matrix"
                ]
            )
    return spec


def _spec(config: RunConfig, input_shape: tuple[int, int, int], first_task_classes: int) -> ArchitectureSpec:
    if isinstance(config.architecture, str):
        spec = PRESETS[config.architecture](
            input_shape=input_shape,
            base_classes=first_task_classes,
            adjust_kernel=config.adjust_kernel,
        )
        spec.validate()
        return spec

    raw = config.architecture
    parts = {}
    for part in ("backbone", "adjustment", "classifier"):
        layers = raw.get(part, [])
        if not isinstance(layers, list):
            raise ConfigError([f"architecture.{part}: must be a list of layers"])
        parts[part] = tuple(_layer_from_dict(e, f"architecture.{part}") for e in layers)
    classifier = parts["classifier"]
    if not classifier or not isinstance(classifier[-1], Dense):
        raise ConfigError(["architecture.classifier: must end with a linear layer"])
    base = classifier[-1].out_features
    if base == "base":
        base = first_task_classes
        classifier = classifier[:-1] + (Dense(base),)
    elif base < first_task_classes:
        raise ConfigError(
            [
                f"architecture.classifier: width {base} is narrower than the "
                f"{first_task_classes} classes of task 1"
            ]
        )
    spec = ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=parts["backbone"],
        adjustment=parts["adjustment"],
        classifier=classifier,
        base_classes=base,
    )
    spec.validate()
    return spec
