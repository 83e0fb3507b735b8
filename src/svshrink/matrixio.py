"""Matrix file formats: comma-separated text and a raw binary layout.

CSV: one matrix row per line, ``,`` separated, ``#``-prefixed lines ignored.
Binary: magic ``SSMX``, then ``n`` and ``m`` as little-endian u64, then the
``n * m`` entries as little-endian f64 in row-major order.  The package
reads both and writes CSV; any tool that follows the byte layout can write
SSMX.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DomainError

BINARY_MAGIC = b"SSMX"
_HEADER = struct.Struct("<4sQQ")


def read_matrix_csv(path) -> np.ndarray:
    # loadtxt warns before it returns an empty array, so a file without a
    # data row is turned away first.
    if not _has_data_row(path):
        raise DomainError(f"matrix CSV {path} contains no data rows")
    try:
        matrix = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, dtype=float)
    except ValueError as exc:
        raise DomainError(f"could not parse matrix CSV {path}: {exc}") from exc
    if not np.all(np.isfinite(matrix)):
        raise DomainError(f"matrix CSV {path} contains non-finite entries")
    return matrix


def _has_data_row(path) -> bool:
    """Whether a line of the file holds more than a comment and its line
    ending: loadtxt skips exactly the other lines, and parses a line of
    blanks as a row."""
    with open(path, "rb") as fh:
        return any(line.split(b"#", 1)[0].rstrip(b"\r\n") for line in fh)


def write_matrix_csv(path, matrix: np.ndarray, header: str | None = None) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    comments = f"# {header}\n" if header else ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(comments)
        np.savetxt(fh, matrix, delimiter=",", fmt="%.17g")


def read_matrix_binary(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DomainError(f"{path} is too short to be an SSMX matrix file")
    magic, n, m = _HEADER.unpack_from(data)
    if magic != BINARY_MAGIC:
        raise DomainError(f"{path} does not start with the SSMX magic")
    expected = _HEADER.size + 8 * n * m
    if len(data) != expected:
        raise DomainError(f"{path} has {len(data)} bytes, expected {expected} for a {n}x{m} matrix")
    entries = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return entries.reshape(n, m).astype(float)


def read_matrix(path) -> np.ndarray:
    """Dispatch on the SSMX magic, falling back to CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == BINARY_MAGIC:
        return read_matrix_binary(path)
    return read_matrix_csv(path)
