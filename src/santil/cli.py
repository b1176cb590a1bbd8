"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 configuration error,
2 data error (missing/bad dataset files, failed fetch), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import harness
from .checkpoint import CheckpointMismatchError
from .config import ConfigError, DataFilesError, RunConfig, resolve_data_root
from .data import DatasetError
from .engine import TrainingDivergedError
from .fetch import REGISTRY, FetchError, fetch_dataset
from .gradcheck import gradient_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


def _int_list(option: str, text: str) -> list[int]:
    """The integers of a comma-separated option value; anything else is a config error."""
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError([f"{option}: expected comma-separated integers, got {text!r}"]) from None


def _load_config(args) -> RunConfig:
    """The config file with command-line overrides, validated as one config."""
    raw = RunConfig.from_json(args.config).to_dict()
    if args.seed is not None:
        raw["seeds"] = _int_list("--seed", args.seed)
    if args.data_root is not None:
        raw["data_root"] = args.data_root
    if args.out is not None:
        raw["out_dir"] = args.out
    if args.epochs is not None:
        raw["epochs"] = args.epochs
    if args.fast:
        raw["epochs"] = min(raw["epochs"], 5)
    return RunConfig.from_dict(raw)


def cmd_run(args) -> int:
    config = _load_config(args)
    harness.run(config, echo=print)
    return EXIT_OK


def cmd_sweep_size(args) -> int:
    config = _load_config(args)
    widths = _int_list("--widths", args.widths)
    if not widths:
        raise ConfigError(["--widths: at least one adjustment kernel width required"])
    harness.sweep_size(config, widths, echo=print)
    return EXIT_OK


def cmd_ablate_order(args) -> int:
    config = _load_config(args)
    orders = []
    for chunk in args.orders.split(";"):
        chunk = chunk.strip()
        if chunk:
            orders.append(_int_list("--orders", chunk))
    if not orders:
        raise ConfigError(["--orders: expected permutations like '0,1,2;2,1,0'"])
    harness.ablate_order(config, orders, echo=print)
    return EXIT_OK


def cmd_dump_embeddings(args) -> int:
    config = _load_config(args)
    harness.dump_embeddings(config, args.checkpoint, args.split, args.out_file, echo=print)
    return EXIT_OK


def cmd_fetch_data(args) -> int:
    root = resolve_data_root(args.data_root)
    fetch_dataset(args.dataset, root, skip_verify=args.skip_verify)
    print(f"{args.dataset} ready under {root}")
    return EXIT_OK


def cmd_grad_check(args) -> int:
    if args.instances < 1:
        raise ConfigError([f"--instances: must be at least 1, got {args.instances}"])
    errors = gradient_suite(instances=args.instances)
    worst = max(errors.values())
    width = max(map(len, errors))
    for name in sorted(errors):
        print(f"{name:{width}s} max rel err {errors[name]:.3e}")
    if worst > 1e-4:
        print(f"FAIL: worst relative error {worst:.3e} exceeds 1e-4", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"OK: worst relative error {worst:.3e}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", help="comma-separated seed list override")
    parser.add_argument("--data-root", help="dataset directory (default: $SAN_TIL_DATA_ROOT or ./data)")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--epochs", type=int, help="epochs-per-task override")
    parser.add_argument("--fast", action="store_true", help="reduced-epoch desk profile (5 epochs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="santil",
        description="Task-incremental learning runs with per-task adjustment networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train and evaluate one configuration")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-size", help="vary adjustment-network kernel size")
    _add_common(p)
    p.add_argument("--widths", required=True, help="comma-separated odd kernel sizes, e.g. 3,5,7")
    p.set_defaults(func=cmd_sweep_size)

    p = sub.add_parser("ablate-order", help="re-run with permuted task orders")
    _add_common(p)
    p.add_argument(
        "--orders", required=True, help="semicolon-separated permutations, e.g. '0,1,2,3,4;4,3,2,1,0'"
    )
    p.set_defaults(func=cmd_ablate_order)

    p = sub.add_parser("dump-embeddings", help="export pre-classifier embeddings as CSV")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint .npz from a previous run")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out-file", default="embeddings.csv")
    p.set_defaults(func=cmd_dump_embeddings)

    p = sub.add_parser("fetch-data", help="download and verify dataset files")
    p.add_argument("--dataset", required=True, choices=sorted(REGISTRY))
    p.add_argument("--data-root", help="target directory (default: $SAN_TIL_DATA_ROOT or ./data)")
    p.add_argument("--skip-verify", action="store_true", help="skip checksum verification")
    p.set_defaults(func=cmd_fetch_data)

    p = sub.add_parser("grad-check", help="finite-difference check of every operation")
    p.add_argument("--instances", type=int, default=5, help="random cases per op")
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointMismatchError as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFilesError, DatasetError, FetchError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - defensive
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
