"""Dataset download helper: fetch, verify SHA-256, unpack into the data root.

Core runs never touch the network; this module backs the explicit
`fetch-data` subcommand only. Checksums pinned below are verified after
download. Entries without a pin are recorded into <data_root>/checksums.json
on first fetch and verified against that manifest afterwards. Downloads,
unpacked files and the manifest are written to a temporary name and renamed
into place, so an interrupted fetch leaves no partial file to be trusted
(and pinned) by the next one.
"""

from __future__ import annotations

import gzip
import json
import shutil
import tarfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .data import DATASET_FILES, file_sha256
from .fileio import atomic_open


class FetchError(Exception):
    pass


class ChecksumError(FetchError):
    pass


@dataclass(frozen=True)
class RemoteFile:
    url: str
    filename: str
    sha256: str | None  # None: pin on first fetch via the local manifest
    unpack: str  # "gunzip" | "untar"
    target_dir: str


# IDX recipes: base URL and one pin per file of the layout, train then test
_IDX_SOURCES = {
    "mnist": (
        "https://ossci-datasets.s3.amazonaws.com/mnist/",
        (
            "440fcabf73cc546fa21475e81ea370265605f56be210a4024d2ca8f203523609",
            "3552534a0a558bbed6aed32b30c495cca23d567ec52cac8be1a0730e8010255c",
            "8d422c7b0a1c1c79245a5bcf07fe86e33eeafee792b84584aec276f5a2dbc4e6",
            "f7ae60f92e00ec6debd23a6088c31dbd2371eca3ffa0defaefb259924204aec6",
        ),
    ),
    "fashion-mnist": ("http://fashion-mnist.s3-website.eu-central-1.amazonaws.com/", (None,) * 4),
}
_CIFAR_BASE = "https://www.cs.toronto.edu/~kriz/"

REGISTRY: dict[str, list[RemoteFile]] = {
    recipe: [
        RemoteFile(base + stem + ".gz", stem + ".gz", pin, "gunzip", DATASET_FILES[recipe].directory)
        for stem, pin in zip(DATASET_FILES[recipe].train + DATASET_FILES[recipe].test, pins, strict=True)
    ]
    for recipe, (base, pins) in _IDX_SOURCES.items()
} | {
    # a CIFAR archive holds its layout directory, so it unpacks into the data root
    variant: [RemoteFile(_CIFAR_BASE + archive, archive, None, "untar", ".")]
    for variant, archive in (("cifar10", "cifar-10-binary.tar.gz"), ("cifar100", "cifar-100-binary.tar.gz"))
}


def _manifest_path(data_root: Path) -> Path:
    return data_root / "checksums.json"


def _load_manifest(data_root: Path) -> dict:
    path = _manifest_path(data_root)
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FetchError(f"checksum manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FetchError(f"checksum manifest {path} must be a JSON object, got {type(manifest).__name__}")
    return manifest


def _store_manifest(data_root: Path, manifest: dict) -> None:
    with atomic_open(_manifest_path(data_root)) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def verify_checksum(path: Path, remote: RemoteFile, data_root: Path, skip_verify: bool = False) -> str:
    digest = file_sha256(path)
    if skip_verify:
        return digest
    manifest = _load_manifest(data_root)
    expected = remote.sha256 or manifest.get(remote.filename)
    if expected is None:
        manifest[remote.filename] = digest
        _store_manifest(data_root, manifest)
        return digest
    if digest != expected:
        raise ChecksumError(
            f"{path.name}: sha256 {digest} does not match expected {expected}; "
            "if the upstream file legitimately changed, re-run with --skip-verify "
            f"or update {_manifest_path(data_root)}"
        )
    return digest


def _safe_extract_tar(archive: Path, dest: Path) -> None:
    """Extract every member under ``dest``, once all of them have been checked.

    Only regular files and directories that resolve inside ``dest`` are
    accepted; one link, device or escaping path refuses the whole archive
    before anything is written. Where tarfile has extraction filters
    (3.10.12+, 3.11.4+, 3.12+), the "data" filter is named: it drops
    setuid, setgid and group- or world-write bits, and 3.12+ warns when no
    filter is given.
    """
    root = dest.resolve()
    with tarfile.open(archive, "r:gz") as tar:
        members = tar.getmembers()
        for member in members:
            if not (member.isfile() or member.isdir()):
                raise FetchError(f"refusing to extract {member.name!r}: not a regular file or directory")
            if not (root / member.name).resolve().is_relative_to(root):
                raise FetchError(f"refusing to extract {member.name!r} outside {dest}")
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, members=members, **safe)


def unpack(archive: Path, remote: RemoteFile, data_root: Path) -> None:
    target_dir = data_root / remote.target_dir
    target_dir.mkdir(parents=True, exist_ok=True)
    if remote.unpack == "gunzip":
        out_path = target_dir / archive.name[: -len(".gz")]
        with gzip.open(archive, "rb") as src, atomic_open(out_path, "wb") as dst:
            shutil.copyfileobj(src, dst)
    elif remote.unpack == "untar":
        _safe_extract_tar(archive, target_dir)
    else:
        raise FetchError(f"unknown unpack mode {remote.unpack!r}")


def download(url: str, dest: Path) -> None:
    try:
        with urllib.request.urlopen(url) as response, atomic_open(dest, "wb") as fh:
            shutil.copyfileobj(response, fh)
    except Exception as exc:
        raise FetchError(f"download failed for {url}: {exc}") from exc


def fetch_dataset(dataset: str, data_root, skip_verify: bool = False) -> list[Path]:
    """Download, verify, and unpack one dataset; returns the archive paths."""
    if dataset not in REGISTRY:
        raise FetchError(f"no fetch recipe for {dataset!r}; recipes exist for {sorted(REGISTRY)}")
    data_root = Path(data_root)
    archive_dir = data_root / "archives"
    archive_dir.mkdir(parents=True, exist_ok=True)
    fetched = []
    for remote in REGISTRY[dataset]:
        archive = archive_dir / remote.filename
        if not archive.exists():
            print(f"fetching {remote.url}")
            download(remote.url, archive)
        digest = verify_checksum(archive, remote, data_root, skip_verify=skip_verify)
        print(f"  {archive.name} sha256={digest[:16]}... ok")
        unpack(archive, remote, data_root)
        fetched.append(archive)
    return fetched
