"""Periodic computational domain: geometry and storage layout.

A :class:`TorusGrid` fixes the dimension, per-axis resolution and period of
the torus, the sample and half-spectrum shapes (the half that ``rfftn``
keeps: last-axis modes 0..N/2), the volumes and the grid-point quadrature,
the grid coordinates and the 1-D integer mode index of an axis.  The
compact mode boxes, which build their modes from their rows and own every
spectral multiplier, are built once per grid value by ``fields.mode_box``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentsError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the d-dimensional torus (R/LZ)^d.

    Parameters
    ----------
    dim : 2 or 3
    n_points : even number of points per axis, >= 8
    period : box length L (default 2*pi)
    """

    dim: int = 2
    n_points: int = 64
    period: float = TWO_PI

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise InvalidArgumentsError(f"dim must be 2 or 3, got {self.dim}")
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise InvalidArgumentsError(
                f"n_points must be even and >= 8, got {self.n_points}")
        try:  # a period of 0 divides by zero, a large one overflows
            ok = all(0.0 < s < np.inf for s in (
                self.volume, self.cell_volume, np.pi * self.n_points / self.period))
        except ArithmeticError:
            ok = False
        if not ok:
            raise InvalidArgumentsError(
                "period must give a finite, positive volume, cell volume and "
                f"largest wavenumber, got {self.period}")

    @property
    def shape(self):
        return (self.n_points,) * self.dim

    @property
    def volume(self):
        return self.period ** self.dim

    @property
    def cell_volume(self):
        return (self.period / self.n_points) ** self.dim

    def integral(self, values):
        """Grid-point quadrature of ``values``: their sum times the cell volume."""
        return float(np.sum(values) * self.cell_volume)

    @cached_property
    def axes(self):
        """Grid point coordinates along one axis (endpoint excluded)."""
        return np.arange(self.n_points) * (self.period / self.n_points)

    def meshgrid(self):
        """Coordinate arrays X_1..X_d with 'ij' indexing."""
        return np.meshgrid(*([self.axes] * self.dim), indexing="ij")

    @cached_property
    def modes(self):
        """Integer mode index along one axis in FFT order (Nyquist = -N/2)."""
        return np.rint(np.fft.fftfreq(self.n_points) * self.n_points).astype(int)

    @property
    def half_shape(self):
        """Shape of the half spectrum that ``rfftn`` keeps: last-axis modes
        0..N/2."""
        return self.shape[:-1] + (self.n_points // 2 + 1,)

    def compatible(self, other):
        """Same dimension, resolution and (finite, so exactly equal) period."""
        return self == other
