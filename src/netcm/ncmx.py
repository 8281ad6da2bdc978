"""NCMX binary matrix files.

Layout: magic bytes ``NCMX``, version u32 = 1, rows u64, cols u64, then
rows*cols complex entries as little-endian IEEE-754 f64 (real, imaginary)
pairs in row-major order.  All integers are little-endian.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"NCMX"
VERSION = 1

_HEADER = struct.Struct("<4sIQQ")


class NcmxError(ValueError):
    """Malformed or truncated NCMX data."""


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a ``.tmp`` sibling of ``path``, then rename it over ``path``,
    so no reader sees a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def write_matrix(path, matrix) -> None:
    """Write a complex matrix to ``path`` in NCMX format (atomically)."""
    m = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    write_atomic(path, _HEADER.pack(MAGIC, VERSION, *m.shape) + m.astype("<c16").tobytes())


def read_matrix(path) -> np.ndarray:
    """Read a complex matrix from an NCMX file; non-finite entries are rejected."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise NcmxError(f"{path}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise NcmxError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise NcmxError(f"{path}: unsupported version {version}")
    need = _HEADER.size + 16 * rows * cols
    if len(data) != need:
        raise NcmxError(f"{path}: expected {need} bytes, found {len(data)}")
    flat = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise NcmxError(f"{path}: matrix has non-finite (NaN or infinite) entries")
    return flat.astype(complex).reshape(rows, cols)
