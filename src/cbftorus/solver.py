"""Time integration of the Galerkin-truncated system with energy accounting.

Two IMEX schemes advance the spectral state: first-order Euler and
Crank-Nicolson/Adams-Bashforth-2.  The stiff diagonal part mu*|k|^2 + alpha
is treated implicitly (an exact division in Fourier space); advection and
damping are explicit.  Running integrals of the energy-budget terms are
accumulated with the trapezoidal rule every step, so diagnostics carry the
cumulative defect of the energy identity

    ||u(t)||^2 + 2 mu int ||grad u||^2 + 2 alpha int ||u||^2
              + 2 beta int ||u||_{r+1}^{r+1}  =  ||u0||^2 + 2 int <f, u>.

A state comes from :func:`initialize_state` or :func:`step` only, carries
its problem (params, solver config, forcing) and steps on its own box: the
modes that dealiasing and Galerkin truncation keep (``fields.band_box``).
The explicit term, the IMEX update, the forcing and the budget rates,
Plancherel sums that weight each column standing for its mirror image by 2,
work there.  A step symmetrizes column 0 and keeps the result, compact, as
the state; its ``u`` on the half is built on first read.  |u|^2 is formed
once per set of samples of u; the weight |u|^{r-1} from it gives both the
damping rate and the next step's damping term.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BlowUpError, InvalidArgumentsError, InvalidFieldError
from .fields import (ModeBox, SpectralField, _settled, band_box,
                     require_same_grid, symmetrize_columns)
from .operators import (DIV_FREE_TOL, CbfParams, Samples, grid_samples,
                        nonlinear_term)
from .spectral import (divergence_defect, leray_project, mode_pairing,
                       mode_power, project_coeffs, restrict_modes)

SCHEMES = ("imex_euler", "imex_cnab2")
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "imex_cnab2"
    galerkin_n: int = 0
    galerkin_shape: str = "box"
    dealias: bool = True
    diagnostics_every: int = 10
    snapshot_every: int = 0
    substeps: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidArgumentsError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise InvalidArgumentsError(f"t_end must be >= 0, got {self.t_end}")
        # Past 2**53 steps the clock t + dt rounds back to t before t_end.
        if not self.t_end / self.dt <= 2.0 ** 53:
            raise InvalidArgumentsError(f"t_end/dt = {self.t_end}/{self.dt}, "
                                        "the step count, is not finite or "
                                        "exceeds 2**53")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentsError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.diagnostics_every < 1:
            raise InvalidArgumentsError("diagnostics_every must be >= 1")
        if self.snapshot_every < 0:
            raise InvalidArgumentsError("snapshot_every must be >= 0")
        if self.substeps < 1:
            raise InvalidArgumentsError("substeps must be >= 1")
        if self.substeps > 1 and self.scheme != "imex_euler":
            raise InvalidArgumentsError(
                "substeps > 1 (nonlinear sub-cycling) needs scheme imex_euler")
        if self.galerkin_n < 0:
            raise InvalidArgumentsError(
                f"galerkin_n must be >= 0, got {self.galerkin_n}")
        if self.galerkin_shape not in ("box", "ball"):
            raise InvalidArgumentsError(
                "galerkin_shape must be box or ball, got "
                f"{self.galerkin_shape!r}")


class Forcing:
    """Right-hand side f(t) = profile(t) * P(base), with P the Leray
    projector: zero (no base), steady (no profile) or analytic.  The base is
    projected once, and gathered onto each mode box once."""

    def __init__(self, base: SpectralField = None, profile=None):
        self._base = None if base is None else leray_project(base)
        self._profile = profile
        self._gathered = {}  # mode box -> base gathered onto it

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def steady(cls, f: SpectralField):
        return cls(f)

    @classmethod
    def analytic(cls, base: SpectralField, profile):
        """Time-dependent forcing profile(t) * P(base) for a callable
        t -> float."""
        return cls(base, profile)

    @property
    def is_zero(self):
        return self._base is None

    def restricted(self, grid):
        """The same forcing with its base restricted to the modes of the
        coarser ``grid`` (``spectral.restrict_modes``)."""
        if self._base is None:
            return self
        return Forcing(restrict_modes(self._base, grid), self._profile)

    def at(self, t: float):
        """Projected forcing field at time t, or None when zero."""
        if self._base is None or self._profile is None:
            return self._base
        return self._base * float(self._profile(t))

    def box_coeffs(self, t: float, box):
        """Coefficients of f(t) on the mode ``box``, zero off its mask, or
        0.0 when f = 0; a base on another grid is a GridMismatchError."""
        if self._base is None:
            return 0.0
        if box not in self._gathered:
            require_same_grid(box, self._base)
            self._gathered[box] = box.masked(box.gather(self._base.coeffs))
        if self._profile is None:
            return self._gathered[box]
        return self._gathered[box] * float(self._profile(t))


@dataclass(frozen=True)
class BudgetRates:
    """Values of the energy-budget integrands at one instant, or their
    trapezoidal accumulations from t = 0 (a state's ``integrals``)."""

    dissipation: float = 0.0       # ||grad u||^2
    damping: float = 0.0           # ||u||_{r+1}^{r+1}
    forcing: float = 0.0           # <f, u>
    darcy: float = 0.0             # ||u||^2 (alpha term integrand)
    a_norm_sq: float = 0.0         # ||A u||^2 (extended only)
    weighted_grad_sq: float = 0.0  # int |u|^{r-1}|grad u|^2 (extended only)

    def advance(self, old, new, dt: float):
        half = 0.5 * dt
        return BudgetRates(*(getattr(self, name)
                             + half * (getattr(old, name) + getattr(new, name))
                             for name in self.__dataclass_fields__))


@dataclass(frozen=True)
class SimulationState:
    """State of one trajectory of ``params``, ``config`` and ``forcing``,
    made by :func:`initialize_state` and :func:`step` only: read-only
    ``coeffs`` on the mode ``box`` it steps on, ``samples`` of u with |u|^2
    and |u|^{r-1}, and ``prev_nonlinear``, the previous explicit term on the
    box.  ``u``, the Hermitian field on the half, is built on first read."""

    t: float
    coeffs: np.ndarray = field(repr=False, compare=False)
    box: ModeBox = field(repr=False, compare=False)
    samples: Samples = field(repr=False, compare=False)
    rates: BudgetRates
    energy0: float
    params: CbfParams = field(repr=False, compare=False)
    config: SolverConfig = field(repr=False, compare=False)
    forcing: Forcing = field(repr=False, compare=False)
    prev_nonlinear: np.ndarray = field(default=None, repr=False, compare=False)
    integrals: BudgetRates = field(default_factory=BudgetRates)
    extended: bool = False

    def expand(self) -> SpectralField:
        """The state as a new, exactly Hermitian field on the half spectrum."""
        return SpectralField(self.box.grid, self.box.expand(self.coeffs))

    u = cached_property(expand)  # built on first read, kept with the state


@dataclass(frozen=True)
class DiagnosticsSample:
    """One time slice of norms, budget terms, and the energy-identity defect."""

    t: float
    energy: float
    v_seminorm_sq: float
    v_norm_sq: float
    lr1_norm: float
    forcing_power: float
    energy_residual: float
    int_dissipation: float
    int_damping: float
    int_forcing: float
    a_norm_sq: float = None
    weighted_grad_sq: float = None
    int_a_norm_sq: float = None
    int_weighted_grad_sq: float = None

    BASE_COLUMNS = ("t", "energy", "v_seminorm_sq", "v_norm_sq", "lr1_norm",
                    "forcing_power", "energy_residual", "int_dissipation",
                    "int_damping", "int_forcing")
    EXTENDED_COLUMNS = ("a_norm_sq", "weighted_grad_sq",
                        "int_a_norm_sq", "int_weighted_grad_sq")


def _rates(c, box, t, forcing, samples, jac):
    """Evaluate the budget integrands at one instant for the coefficients
    ``c`` on the mode box: Plancherel sums over the box, and ``samples`` of
    u and, in the extended rates, ``jac`` of its Jacobian (None: not
    extended)."""
    grid = box.grid
    power = mode_power(c, box.volume_weights)
    k2 = box.k_squared
    damping_val = float((samples.weight * samples.sq).sum() * grid.cell_volume)
    forcing_val = (0.0 if forcing.is_zero else
                   mode_pairing(forcing.box_coeffs(t, box), c, box.volume_weights))
    a_sq = wgrad = 0.0
    if jac is not None:
        a_sq = float((k2 * k2 * power).sum())
        grad_sq = (jac * jac).sum(axis=(0, 1))
        wgrad = float((samples.weight * grad_sq).sum() * grid.cell_volume)
    return BudgetRates(float((k2 * power).sum()), damping_val, forcing_val,
                       float(power.sum()), a_sq, wgrad)


def initialize_state(ic: SpectralField, params: CbfParams, config: SolverConfig,
                     forcing: Forcing, extended: bool = False) -> SimulationState:
    """Project and restrict the initial condition, and prime the budget
    rates; the state is exactly Hermitian."""
    if divergence_defect(ic) > DIV_FREE_TOL:
        warnings.warn("initial condition is not divergence-free; projecting")
    box = band_box(ic.grid, config.dealias, config.galerkin_n,
                   config.galerkin_shape)
    c = _settle(box.masked(project_coeffs(box.gather(ic.coeffs), box.wavenumbers,
                                          box.inv_k_squared)), box)
    samples, jac = grid_samples(c, box, params.r, extended)
    rates = _rates(c, box, 0.0, forcing, samples, jac)
    return SimulationState(t=0.0, coeffs=c, box=box, samples=samples,
                           rates=rates, energy0=rates.darcy, extended=extended,
                           params=params, config=config, forcing=forcing)


def _settle(c, box):
    """``c`` symmetrized in place and held to the array contract of fields:
    finite, read-only coefficients on ``box``."""
    return _settled(symmetrize_columns(c, box.grid), complex, box.shape,
                    "coefficients")


@lru_cache(maxsize=8)
def _multiplier(box, params: CbfParams, a: float):
    """1 + a*lam on ``box``, lam = mu*|k|^2 + alpha: the implicit multiplier
    of an Euler step a = h and of Crank-Nicolson a = dt/2, and the explicit
    one of Crank-Nicolson a = -dt/2."""
    return 1.0 + a * (params.mu * box.k_squared + params.alpha)


def _check_cfl(u_sq, grid, dt: float):
    """Warn when dt*max|u|*k_max >= 1, given the samples of |u|^2."""
    max_speed = float(np.sqrt(np.max(u_sq)))
    k_max = np.pi * grid.n_points / grid.period
    if dt * max_speed * k_max >= 1.0:
        warnings.warn(
            f"CFL sanity violated: dt*max|u|*k_max = {dt * max_speed * k_max:.3g} >= 1")


def _check_damping(weight, params: CbfParams, h: float, limit: float):
    """Warn when h*beta*r*max|u|^{r-1}, the explicit damping's rate times the
    step, reaches the stability ``limit`` of the update that ran (2 for an
    Euler step of size h, 1 for Adams-Bashforth-2), given the samples of
    |u|^{r-1}."""
    stiffness = h * params.beta * params.r * float(np.max(weight))
    if stiffness >= limit:
        warnings.warn(f"explicit damping is stiff: h*beta*r*max|u|^(r-1) = "
                      f"{stiffness:.3g} >= {limit:g}")


def step(state: SimulationState) -> SimulationState:
    """Advance the state's trajectory one step, divergence-free by
    construction.  Raises :class:`BlowUpError` on overflow or runaway."""
    box, c = state.box, state.coeffs
    params, config, forcing = state.params, state.config, state.forcing
    grid = box.grid
    dt = config.dt

    # In place, in the operation order of (c + h*(f - nl)) / (1 + h*lam) and
    # ((1 - dt/2*lam)*c + dt*(f - (1.5*nl - 0.5*prev))) / (1 + dt/2*lam).
    samples = state.samples  # of u at the step's start
    if config.scheme == "imex_euler" or state.prev_nonlinear is None:
        n_sub = config.substeps if config.scheme == "imex_euler" else 1
        h, limit = dt / n_sub, 2.0
        for s in range(n_sub):
            nl, samples = nonlinear_term(c, box, params, config.dealias,
                                         samples=None if s else samples)
            new = np.subtract(forcing.box_coeffs(state.t + s * h, box), nl)
            np.multiply(h, new, out=new)
            np.add(c, new, out=new)
            c = np.divide(new, _multiplier(box, params, h), out=new)
        prev_nl = nl if config.scheme == "imex_cnab2" else None
    else:
        h, limit = dt, 1.0
        nl, samples = nonlinear_term(c, box, params, config.dealias,
                                     samples=samples)
        new = np.multiply(1.5, nl)
        new -= 0.5 * state.prev_nonlinear
        np.subtract(forcing.box_coeffs(state.t + 0.5 * dt, box), new, out=new)
        np.multiply(dt, new, out=new)
        np.add(_multiplier(box, params, -0.5 * dt) * c, new, out=new)
        c = np.divide(new, _multiplier(box, params, 0.5 * dt), out=new)
        prev_nl = nl

    try:
        c = _settle(c, box)
    except InvalidFieldError:
        raise BlowUpError("non-finite state", last_valid_time=state.t) from None
    _check_cfl(samples.sq, grid, dt)
    _check_damping(samples.weight, params, h, limit)
    new_t = state.t + dt
    samples, jac = grid_samples(c, box, params.r, state.extended)
    new_rates = _rates(c, box, new_t, forcing, samples, jac)
    if state.energy0 > 0 and new_rates.darcy > BLOWUP_FACTOR ** 2 * state.energy0:
        raise BlowUpError("energy runaway", last_valid_time=state.t)
    return SimulationState(
        t=new_t, coeffs=c, box=box, samples=samples, rates=new_rates,
        energy0=state.energy0, prev_nonlinear=prev_nl,
        integrals=state.integrals.advance(state.rates, new_rates, dt),
        extended=state.extended, params=params, config=config, forcing=forcing)


def sample_diagnostics(state: SimulationState) -> DiagnosticsSample:
    """Diagnostics row for the current state, including the cumulative defect."""
    params, r, ints = state.params, state.rates, state.integrals
    energy = r.darcy
    residual = (energy
                + 2.0 * params.mu * ints.dissipation
                + 2.0 * params.alpha * ints.darcy
                + 2.0 * params.beta * ints.damping
                - state.energy0 - 2.0 * ints.forcing)
    extended_values = {}
    if state.extended:
        extended_values = dict(a_norm_sq=r.a_norm_sq,
                               weighted_grad_sq=r.weighted_grad_sq,
                               int_a_norm_sq=ints.a_norm_sq,
                               int_weighted_grad_sq=ints.weighted_grad_sq)
    return DiagnosticsSample(
        t=state.t, energy=energy, v_seminorm_sq=r.dissipation,
        v_norm_sq=energy + r.dissipation, lr1_norm=r.damping,
        forcing_power=r.forcing, energy_residual=residual,
        int_dissipation=ints.dissipation, int_damping=ints.damping,
        int_forcing=ints.forcing, **extended_values)


def run(ic: SpectralField, params: CbfParams, config: SolverConfig,
        forcing: Forcing = None, extended: bool = False, snapshot=None):
    """Advance to t_end; returns (final state, diagnostics list).

    ``snapshot(t, field)``, when given and ``snapshot_every > 0``, gets a new
    field, kept by nobody else, at t = 0, every ``snapshot_every`` steps and
    the last step.  ``ic`` is dropped once the first state exists, so one
    passed as a call temporary is freed then.  Deterministic for fixed
    inputs.  On blow-up the partial diagnostics ride along on the raised
    :class:`BlowUpError`.
    """
    forcing = forcing if forcing is not None else Forcing.zero()
    state = initialize_state(ic, params, config, forcing, extended)
    del ic
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(config.dt, config.t_end):
        warnings.warn("t_end is not an integer number of steps; rounding")
    every = config.snapshot_every if snapshot is not None else 0
    diagnostics = [sample_diagnostics(state)]
    if every:
        snapshot(state.t, state.expand())
    for m in range(1, n_steps + 1):
        try:
            state = step(state)
        except BlowUpError as err:
            raise BlowUpError(str(err), err.last_valid_time,
                              diagnostics) from None
        if m % config.diagnostics_every == 0 or m == n_steps:
            diagnostics.append(sample_diagnostics(state))
        if every and (m % every == 0 or m == n_steps):
            snapshot(state.t, state.expand())
    return state, diagnostics

