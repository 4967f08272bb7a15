"""GDT1 binary tensor files, and records: directories of them plus text pairs.

Array layout: magic bytes ``GDT1``, u8 dtype code (0 = float32, 1 = float64),
u8 rank (always 4), four little-endian u32 dims, then the raw little-endian
payload. Round trips are bit-exact.

A record is a directory of ``meta``, one ``key = value`` pair per line (``#``
comments and blank lines skipped), and one ``<name>.gdt`` per array; hidden
entries (``.name``) are not part of it. A checkpoint is a record (config;
arrays by module path), and so is a dataset (``d_max``, shared by every
sample; ``<i>.image`` and ``<i>.depth`` for samples i = 0..n-1). A write
fills a hidden sibling and swaps it in: a failed write leaves what was there,
and no file of an earlier write outlives a later one. It replaces only a
record or an empty directory, so a directory holding anything else is kept.
"""

from __future__ import annotations

import os
import shutil
import struct
import uuid
from pathlib import Path

import numpy as np

MAGIC = b"GDT1"
_HEADER = struct.Struct("<4sBB4I")

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class GdtError(ValueError):
    """A GDT1 file that cannot be written or read; the message names the file."""


def write_array(path: str | Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.ndim != 4:
        raise GdtError(f"{path}: GDT1 stores rank-4 tensors, got shape {arr.shape}")
    code = _DTYPE_TO_CODE.get(arr.dtype.newbyteorder("="))
    if code is None:
        raise GdtError(f"{path}: unsupported dtype {arr.dtype}")
    header = _HEADER.pack(MAGIC, code, 4, *arr.shape)
    payload = arr.astype(_CODE_TO_DTYPE[code], copy=False).tobytes()
    Path(path).write_bytes(header + payload)


def read_array(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise GdtError(f"{path}: file shorter than the magic")
    if raw[:4] != MAGIC:
        raise GdtError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < _HEADER.size:
        raise GdtError(f"{path}: incomplete header")
    _, code, rank, d0, d1, d2, d3 = _HEADER.unpack_from(raw)
    if rank != 4:
        raise GdtError(f"{path}: rank {rank} != 4")
    dtype = _CODE_TO_DTYPE.get(code)
    if dtype is None:
        raise GdtError(f"{path}: unknown dtype code {code}")
    shape = (d0, d1, d2, d3)
    expected_bytes = dtype.itemsize * d0 * d1 * d2 * d3
    payload = raw[_HEADER.size :]
    if len(payload) < expected_bytes:
        raise GdtError(f"{path}: payload has {len(payload)} bytes, expected {expected_bytes}")
    if len(payload) > expected_bytes:
        raise GdtError(f"{path}: {len(payload) - expected_bytes} trailing bytes")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="), copy=True)


META = "meta"


def _parse_meta(text: str, path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise GdtError(f"{path}, line {number}: expected 'key = value', got {raw!r}")
        if key in pairs:
            raise GdtError(f"{path}, line {number}: key {key!r} given twice")
        pairs[key] = value.strip()
    return pairs


def _meta_text(meta: dict[str, str], path: Path) -> str:
    text = "".join(f"{key} = {value}\n" for key, value in meta.items())
    if _parse_meta(text, path) != meta:
        raise GdtError(f"{path}: meta {meta!r} would not read back as written")
    return text


def write_record(directory: str | Path, meta: dict[str, str], arrays: dict[str, np.ndarray]) -> None:
    """Write one record to ``directory``, which must be absent, empty or a record: a
    ``meta`` file and otherwise only ``.gdt`` files, hidden entries aside. An array
    name may not be empty, start with ``.`` or hold a path separator."""
    directory = Path(directory)
    text = _meta_text(meta, directory / META)  # meta and names are checked before anything is staged
    for name in arrays:  # a hidden, nameless or nested .gdt file would not read back
        if not name or name.startswith(".") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
            raise GdtError(f"{directory / f'{name}.gdt'}: array name {name!r} would not read back as written")
    if directory.exists():
        if not directory.is_dir():
            raise FileExistsError(f"{directory} is not a GDT record (not a directory); not replacing it")
        entries = [e for e in directory.iterdir() if not e.name.startswith(".")]
        stray = sorted(e.name for e in entries if not e.is_file() or (e.name != META and e.suffix != ".gdt"))
        if stray or (entries and not (directory / META).is_file()):
            what = ", ".join(stray[:5]) or "no meta"
            raise FileExistsError(f"{directory} is not a GDT record ({what}); not replacing it")
    staging = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    retired = staging.with_name(staging.name + ".old")
    staging.mkdir(parents=True)
    try:
        for key, arr in arrays.items():
            write_array(staging / f"{key}.gdt", arr)
        (staging / META).write_text(text)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if directory.exists():
        directory.rename(retired)
    staging.rename(directory)
    shutil.rmtree(retired, ignore_errors=True)


def read_record(directory: str | Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The ``meta`` pairs and the arrays, by name, of the record at ``directory``."""
    path = Path(directory) / META
    if not path.is_file():
        raise FileNotFoundError(f"no record at {directory}: {path} is missing")
    meta = _parse_meta(path.read_text(), path)
    arrays = sorted(p for p in path.parent.iterdir() if p.suffix == ".gdt" and not p.name.startswith("."))
    stray = [p for p in arrays if not p.is_file()]
    if stray:
        raise GdtError(f"{stray[0]}: not a file; a record holds its arrays as .gdt files")
    return meta, {p.stem: read_array(p) for p in arrays}
