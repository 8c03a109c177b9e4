"""Periodic computational domain and its wavenumber machinery.

A :class:`TorusGrid` fixes the dimension, per-axis resolution and period of
the torus and precomputes everything the spectral operators need: integer
mode indices, derivative wavenumbers (with the unmatched Nyquist mode zeroed
so that ik*u_hat stays Hermitian-symmetric), the squared-wavenumber
multiplier of the Stokes operator, and the 2/3-rule dealiasing mask.
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
        if not (self.period > 0 and np.isfinite(self.period)):
            raise InvalidArgumentsError(f"period must be positive, got {self.period}")

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

    def _broadcast_axis(self, values, axis):
        shape = [1] * self.dim
        shape[axis] = self.n_points
        return values.reshape(shape)

    @cached_property
    def mode_grids(self):
        """Integer mode index per axis, broadcastable to the field shape."""
        return tuple(self._broadcast_axis(self.modes, a) for a in range(self.dim))

    @cached_property
    def wavenumbers(self):
        """Derivative wavenumbers 2*pi*m/L per axis, Nyquist entry zeroed."""
        k = self.modes.astype(float) * (TWO_PI / self.period)
        k[self.n_points // 2] = 0.0
        return tuple(self._broadcast_axis(k, a) for a in range(self.dim))

    @cached_property
    def k_squared(self):
        """|k|^2 multiplier built from the derivative wavenumbers."""
        out = np.zeros(self.shape)
        for k in self.wavenumbers:
            out = out + k * k
        return out

    @cached_property
    def inv_k_squared(self):
        """1/|k|^2, and 0 on the modes with k = 0."""
        k2 = self.k_squared
        return np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)

    @cached_property
    def mode_inf_norm(self):
        """max_i |m_i| per grid mode (box radius of the index)."""
        out = np.zeros(self.shape, dtype=int)
        for m in self.mode_grids:
            out = np.maximum(out, np.abs(m))
        return out

    @cached_property
    def mode_sq_norm(self):
        """sum_i m_i^2 per grid mode."""
        out = np.zeros(self.shape, dtype=int)
        for m in self.mode_grids:
            out = out + m * m
        return out

    @cached_property
    def dealias_mask(self):
        """2/3-rule mask: True on modes with max_i |m_i| <= K = floor((N-1)/3).

        A product of two fields in this band has |m_i| <= 2K; its aliases land
        at |m_i| >= N - 2K > K, outside the band, because 3K < N.  The bound
        floor(N/3) breaks this when 3 divides N.
        """
        return self.mode_inf_norm <= (self.n_points - 1) // 3

    @cached_property
    def _reflect_index(self):
        """Index arrays realizing the m -> -m mod N map on each axis."""
        idx = (-np.arange(self.n_points)) % self.n_points
        return np.ix_(*([idx] * self.dim))

    def conj_reflect(self, coeffs):
        """conj(c(-k)) for a single-component coefficient array."""
        return np.conj(coeffs[self._reflect_index])

    def compatible(self, other):
        """Same dimension, resolution and (finite, so exactly equal) period."""
        return self == other
