"""Bit-exact binary snapshot format for spectral states.

Layout (all little-endian):
  8 bytes   magic "CBFSNAP1"
  uint32    dim
  uint32    n_points
  float64   period, time, r, mu, alpha, beta
  then dim row-major complex128 coefficient arrays, one per component.

The reader raises :class:`SnapshotFormatError` for every malformed file, and
checks the size the header declares against the file before it reads on.
"""

import os
import struct

import numpy as np

from .errors import (CbfError, InvalidFieldError, SnapshotFormatError,
                     SymmetryError)
from .fields import SpectralField, require_hermitian
from .grid import TorusGrid
from .operators import CbfParams

MAGIC = b"CBFSNAP1"
_HEADER = struct.Struct("<II6d")


def write_snapshot_file(path, field: SpectralField, time: float,
                        params: CbfParams):
    grid = field.grid
    if not field.is_vector:
        raise SnapshotFormatError("snapshots store full vector fields")
    header = _HEADER.pack(grid.dim, grid.n_points, grid.period, time,
                          params.r, params.mu, params.alpha, params.beta)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(field.coeffs.astype("<c16")).tobytes())


def read_snapshot_file(path):
    """Returns (SpectralField, time, CbfParams)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r} in {path}")
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise SnapshotFormatError(f"truncated header in {path}")
        dim, n_points, period, time, r, mu, alpha, beta = _HEADER.unpack(raw)
        if not np.all(np.isfinite([period, time, r, mu, alpha, beta])):
            raise SnapshotFormatError(f"non-finite header value in {path}")
        try:
            grid = TorusGrid(dim=dim, n_points=n_points, period=period)
            params = CbfParams(mu=mu, alpha=alpha, beta=beta, r=r)
        except CbfError as err:
            raise SnapshotFormatError(f"header out of domain in {path}: {err}") from None
        n_bytes = 16 * dim * n_points ** dim
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < n_bytes:
            raise SnapshotFormatError(f"truncated coefficients in {path}")
        if remaining > n_bytes:
            raise SnapshotFormatError(f"trailing bytes in {path}")
        raw_coeffs = fh.read(n_bytes)
    coeffs = np.frombuffer(raw_coeffs, dtype="<c16").reshape((dim,) + grid.shape)
    try:
        field = SpectralField(grid, coeffs.astype(complex))
        require_hermitian(field)
    except (InvalidFieldError, SymmetryError) as err:
        raise SnapshotFormatError(f"bad coefficients in {path}: {err}") from None
    return field, time, params
