"""Run configuration: JSON schema, validation, dataset and architecture resolution.

A config file is a single JSON object; unknown keys are rejected so typos
surface immediately. ``RunConfig.from_dict(cfg.to_dict())`` round-trips to
an equal config, which reports rely on for their config echo.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
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


class ConfigError(Exception):
    """Invalid configuration; ``problems`` lists field-level diagnostics."""

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
        problems: list[str] = []
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
        known = set(cls.__dataclass_fields__)
        for key in raw:
            if key not in known:
                problems.append(f"{key}: unknown field")

        def take(name, default=None):
            return raw.get(name, default)

        strategy = take("strategy")
        if strategy not in STRATEGIES:
            problems.append(f"strategy: must be one of {list(STRATEGIES)}, got {strategy!r}")

        dataset = take("dataset")
        if isinstance(dataset, str):
            dataset = {"name": dataset}
        if not isinstance(dataset, dict) or dataset.get("name") not in DATASET_NAMES:
            problems.append(
                f"dataset: must name one of {list(DATASET_NAMES)}, got {dataset!r}"
            )
            dataset = {"name": "synthetic"}
        elif dataset["name"] == "synthetic":
            merged = dict(_SYNTHETIC_DEFAULTS)
            merged.update(dataset)
            dataset = merged

        num_tasks = take("num_tasks")
        if not isinstance(num_tasks, int) or num_tasks < 1:
            problems.append(f"num_tasks: must be a positive integer, got {num_tasks!r}")
            num_tasks = 1

        architecture = take("architecture")
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

        class_order = take("class_order", "default")
        if isinstance(class_order, list):
            if not all(isinstance(c, int) for c in class_order):
                problems.append("class_order: list entries must be integers")
        elif class_order != "default":
            problems.append(f"class_order: 'default' or a class-id list, got {class_order!r}")

        epochs = take("epochs", 30)
        if not isinstance(epochs, int) or epochs < 1:
            problems.append(f"epochs: must be a positive integer, got {epochs!r}")
            epochs = 1
        batch_size = take("batch_size", 64)
        if not isinstance(batch_size, int) or batch_size < 1:
            problems.append(f"batch_size: must be a positive integer, got {batch_size!r}")
            batch_size = 1
        lr = take("lr", 0.001)
        if not isinstance(lr, (int, float)) or lr <= 0:
            problems.append(f"lr: must be a positive number, got {lr!r}")
            lr = 0.001

        seeds = take("seeds", [1, 2, 3])
        if (
            not isinstance(seeds, list)
            or not seeds
            or not all(isinstance(s, int) and s >= 0 for s in seeds)
        ):
            problems.append(f"seeds: must be a non-empty list of non-negative ints, got {seeds!r}")
            seeds = [1]

        selection = take("checkpoint_selection", "best-val")
        if selection not in SELECTION_MODES:
            problems.append(
                f"checkpoint_selection: must be one of {list(SELECTION_MODES)}, got {selection!r}"
            )
            selection = "best-val"

        ortho_alpha = take("ortho_alpha", 0.0)
        if not isinstance(ortho_alpha, (int, float)) or ortho_alpha < 0:
            problems.append(f"ortho_alpha: must be a non-negative number, got {ortho_alpha!r}")
            ortho_alpha = 0.0

        adjust_kernel = take("adjust_kernel", 3)
        if not isinstance(adjust_kernel, int) or adjust_kernel < 1 or adjust_kernel % 2 == 0:
            problems.append(f"adjust_kernel: must be an odd positive integer, got {adjust_kernel!r}")
            adjust_kernel = 3

        data_root = take("data_root")
        if data_root is not None and not isinstance(data_root, str):
            problems.append(f"data_root: must be a string path, got {data_root!r}")
            data_root = None
        out_dir = take("out_dir", "runs/out")
        if not isinstance(out_dir, str):
            problems.append(f"out_dir: must be a string path, got {out_dir!r}")
            out_dir = "runs/out"

        if problems:
            raise ConfigError(problems)
        return cls(
            strategy=strategy,
            dataset=dataset,
            num_tasks=num_tasks,
            architecture=architecture,
            class_order=class_order,
            epochs=epochs,
            batch_size=batch_size,
            lr=float(lr),
            seeds=list(seeds),
            checkpoint_selection=selection,
            ortho_alpha=float(ortho_alpha),
            adjust_kernel=adjust_kernel,
            data_root=data_root,
            out_dir=out_dir,
        )

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
        return {
            "strategy": self.strategy,
            "dataset": dict(self.dataset),
            "num_tasks": self.num_tasks,
            "architecture": self.architecture,
            "class_order": self.class_order,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "seeds": list(self.seeds),
            "checkpoint_selection": self.checkpoint_selection,
            "ortho_alpha": self.ortho_alpha,
            "adjust_kernel": self.adjust_kernel,
            "data_root": self.data_root,
            "out_dir": self.out_dir,
        }


def resolve_data_root(config: RunConfig) -> Path:
    root = config.data_root or os.environ.get(ENV_DATA_ROOT) or "data"
    return Path(root)


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
    root = resolve_data_root(config)
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

_LAYER_KINDS = {"conv", "maxpool", "relu", "linear", "flatten"}


def _layer_from_dict(entry: dict, where: str):
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError([f"{where}: each layer needs a 'kind' field, got {entry!r}"])
    kind = entry["kind"]
    try:
        if kind == "conv":
            return Conv(
                out_channels=int(entry["out_channels"]),
                kernel=int(entry.get("kernel", 3)),
                stride=int(entry.get("stride", 1)),
                padding=int(entry.get("padding", 1)),
            )
        if kind == "maxpool":
            return MaxPool(k=int(entry.get("k", 2)))
        if kind == "relu":
            return Relu()
        if kind == "flatten":
            return Flatten()
        if kind == "linear":
            return Dense(out_features=entry["out_features"])  # may be the "base" placeholder
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"{where}: bad {kind} layer {entry!r} ({exc})"]) from None
    raise ConfigError([f"{where}: unknown layer kind {kind!r}; kinds are {sorted(_LAYER_KINDS)}"])


def resolve_architecture(
    config: RunConfig, input_shape: tuple[int, int, int], first_task_classes: int
) -> ArchitectureSpec:
    """Concrete ArchitectureSpec with the classifier width pinned to task 1."""
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
    last = classifier[-1]
    if last.out_features == "base":
        base = first_task_classes
        classifier = classifier[:-1] + (Dense(base),)
    else:
        base = int(last.out_features)
        if base < first_task_classes:
            raise ConfigError(
                [
                    f"architecture.classifier: width {base} is narrower than the "
                    f"{first_task_classes} classes of task 1"
                ]
            )
        classifier = classifier[:-1] + (Dense(base),)
    spec = ArchitectureSpec(
        input_shape=tuple(input_shape),
        backbone=parts["backbone"],
        adjustment=parts["adjustment"],
        classifier=classifier,
        base_classes=base,
    )
    spec.validate()
    return spec
