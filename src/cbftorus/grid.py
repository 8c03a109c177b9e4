"""Periodic computational domain and its wavenumber machinery.

A :class:`TorusGrid` fixes the dimension, per-axis resolution and period of
the torus and precomputes everything the spectral operators need, on the
half spectrum that spectral fields store (last-axis modes 0..N/2): integer
mode indices, derivative wavenumbers (with the unmatched Nyquist modes
zeroed so that ik*u_hat stays Hermitian-symmetric), the squared-wavenumber
multiplier of the Stokes operator and the Plancherel weights of the half's
columns; and it caches the compact mode boxes of ``fields.band_box``.
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

    @cached_property
    def mode_grids(self):
        """Integer mode index per axis on the half spectrum, broadcastable to
        :attr:`half_shape`: FFT order on the leading axes, 0..N/2 last."""
        last = np.arange(self.n_points // 2 + 1)
        return tuple(np.reshape(self.modes if a < self.dim - 1 else last,
                                [-1 if b == a else 1 for b in range(self.dim)])
                     for a in range(self.dim))

    @cached_property
    def wavenumbers(self):
        """Derivative wavenumbers 2*pi*m/L per axis, Nyquist entries zeroed."""
        out = []
        for m in self.mode_grids:
            k = m.astype(float) * (TWO_PI / self.period)
            k[np.abs(m) == self.n_points // 2] = 0.0
            out.append(k)
        return tuple(out)

    @cached_property
    def ik(self):
        """i*k per axis: the multipliers of spectral differentiation."""
        return tuple(1j * k for k in self.wavenumbers)

    @cached_property
    def k_squared(self):
        """|k|^2 multiplier built from the derivative wavenumbers."""
        out = np.zeros(self.half_shape)
        for k in self.wavenumbers:
            out = out + k * k
        return out

    @cached_property
    def inv_k_squared(self):
        """1/|k|^2, and 0 on the modes with k = 0."""
        k2 = self.k_squared
        return np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)

    @cached_property
    def mode_sq_norm(self):
        """sum_i m_i^2 per mode."""
        out = np.zeros(self.half_shape, dtype=int)
        for m in self.mode_grids:
            out = out + m * m
        return out

    @cached_property
    def plancherel_weights(self):
        """Weight of each half-spectrum column in a Plancherel sum over the
        full spectrum: 2 on columns 1..N/2-1, whose mirror images -m are not
        stored, and 1 on columns 0 and N/2, which are their own mirrors."""
        weights = np.full(self.n_points // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        return weights

    @cached_property
    def boxes(self):
        """Mode boxes by their arguments, built once each by
        ``fields.band_box``."""
        return {}

    def compatible(self, other):
        """Same dimension, resolution and (finite, so exactly equal) period."""
        return self == other
