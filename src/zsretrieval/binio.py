"""Binary block format shared by model matrices and corpus adjacency.

Layout: 16-byte header (8-byte magic, uint32 rows, uint32 cols, little
endian), raw payload bytes, trailing uint32 CRC32 of header + payload.

Matrices store ``rows x cols`` float32 values row-major. Sparse integer rows
are stored in CSR layout: the header's rows is the row count and its cols the
number of value arrays (1, or 2 when a parallel array such as co-occurrence
counts follows); the payload is ``rows + 1`` int64 offsets rising from 0 to
nnz, then each value array of nnz int64 entries.
"""
from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import ChecksumError, FormatError

_HEADER = struct.Struct("<8sII")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write to a temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_block(path: str | Path, magic: bytes, rows: int, cols: int, payload: bytes) -> None:
    if len(magic) != 8:
        raise ValueError("magic must be exactly 8 bytes")
    head = _HEADER.pack(magic, rows, cols)
    crc = zlib.crc32(head + payload) & 0xFFFFFFFF
    atomic_write_bytes(path, head + payload + struct.pack("<I", crc))


def read_block(path: str | Path, magic: bytes) -> tuple[int, int, bytes]:
    """Read and verify a block, returning (rows, cols, payload)."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size + 4:
        raise FormatError(f"{path}: truncated file ({len(data)} bytes)")
    got_magic, rows, cols = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise FormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != crc:
        raise ChecksumError(f"{path}: CRC32 mismatch")
    return rows, cols, data[_HEADER.size:-4]


def write_matrix(path: str | Path, magic: bytes, matrix: np.ndarray) -> None:
    """Row-major little-endian float32 matrix block."""
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    write_block(path, magic, mat.shape[0], mat.shape[1], mat.tobytes())


def read_matrix(path: str | Path, magic: bytes) -> np.ndarray:
    rows, cols, payload = read_block(path, magic)
    if len(payload) != rows * cols * 4:
        raise FormatError(f"{path}: payload size does not match {rows}x{cols} float32")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()


def write_int_lists(path: str | Path, magic: bytes, offsets: np.ndarray, values: np.ndarray,
                    extra: np.ndarray | None = None) -> None:
    """CSR rows: offsets, values and an optional array parallel to the values."""
    arrays = [offsets, values] if extra is None else [offsets, values, extra]
    if extra is not None and len(extra) != len(values):
        raise ValueError("extra values must parallel the main values")
    payload = b"".join(np.ascontiguousarray(a, dtype="<i8").tobytes() for a in arrays)
    write_block(path, magic, len(offsets) - 1, len(arrays) - 1, payload)


def read_int_lists(path: str | Path, magic: bytes, n_rows: int,
                   n_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Return (offsets, values, extra or None) of a CSR block of ``n_rows`` rows
    whose values index ``[0, n_cols)``; the layout is checked, not trusted."""
    rows, cols, payload = read_block(path, magic)
    off_bytes = (rows + 1) * 8
    if rows != n_rows:
        raise FormatError(f"{path}: {rows} rows, expected {n_rows}")
    if cols not in (1, 2) or len(payload) < off_bytes:
        raise FormatError(f"{path}: payload size mismatch")
    offsets = np.frombuffer(payload, dtype="<i8", count=rows + 1).astype(np.int64)
    nnz = int(offsets[-1])
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise FormatError(f"{path}: offsets do not rise from 0 to nnz")
    if len(payload) != off_bytes + nnz * 8 * cols:
        raise FormatError(f"{path}: payload size mismatch")
    arrays = [np.frombuffer(payload, dtype="<i8", count=nnz, offset=off_bytes + k * nnz * 8)
              .astype(np.int64) for k in range(cols)]
    if nnz and (arrays[0].min() < 0 or arrays[0].max() >= n_cols):
        raise FormatError(f"{path}: index outside [0, {n_cols})")
    return offsets, arrays[0], arrays[1] if cols == 2 else None
