"""Sectioned key-value run configuration (INI-style).

Every key carries a type, a default, and an optional domain constraint;
unknown sections or keys are rejected, and domain violations name the
offending ``section.key``.  ``dump_config(load_config(p))`` round-trips to an
identical effective configuration.
"""

import configparser
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (ConfigError, InvalidArgumentsError, InvalidExponentError,
                     InvalidFieldError)
from .families import (check_band_limit, kolmogorov, random_band_limited,
                       single_mode, taylor_green)
from .grid import TWO_PI, TorusGrid
from .operators import CbfParams
from .snapshot import read_snapshot_file
from .solver import Forcing, SolverConfig
from .verification import CHECKS, DEFAULT_TOL, interpolation_theta


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values; blank items drop."""
    return lambda text: tuple(kind(tok.strip()) for tok in str(text).split(",")
                              if tok.strip())


_int_list, _float_list, _str_list = _list_of(int), _list_of(float), _list_of(str)


def _bool(text):
    """A boolean in the INI reader's own spellings, in any letter case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(text).strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _rows(cls):
    """Schema rows of a parameter dataclass: its fields in order, each parsed
    by its type and defaulting to its default; the class checks the domain."""
    return {f.name: (_bool if f.type is bool else f.type, f.default, None)
            for f in fields(cls)}


# TorusGrid field -> [grid] key; the [params] and [solver] keys are the fields.
_GRID_KEYS = {"dim": "dim", "n_points": "n", "period": "l"}

# section -> key -> (parser, default, validator or None); the [grid],
# [params] and [solver] domains are checked by the objects they build.
SCHEMA = {
    "grid": {"dim": (int, 2, None), "n": (int, 64, None), "l": (float, TWO_PI, None)},
    "params": _rows(CbfParams),
    "solver": _rows(SolverConfig),
    "ic": {
        "family": (str, "taylor_green",
                   lambda v: v in ("taylor_green", "random", "single_mode",
                                   "snapshot")),
        "amplitude": (float, 1.0, None),
        "band_limit": (int, 8, None),
        "slope": (float, 2.0, None),
        "seed": (int, 7, _non_negative),
        "mode": (_int_list, (0, 1), None),
        "component": (int, 0, _non_negative),
        "phase": (float, 0.0, None),
        "snapshot": (str, "", None),
    },
    "forcing": {
        "kind": (str, "zero", lambda v: v in ("zero", "steady", "analytic")),
        "family": (str, "kolmogorov",
                   lambda v: v in ("taylor_green", "random", "kolmogorov")),
        "amplitude": (float, 1.0, None),
        "mode": (int, 1, None),
        "band_limit": (int, 4, None),
        "slope": (float, 2.0, None),
        "seed": (int, 11, _non_negative),
        "decay_rate": (float, 0.0, _non_negative),
        "snapshot": (str, "", None),
    },
    "output": {
        "directory": (str, "out", None),
        "extended_diagnostics": (_bool, False, None),
    },
    "verify": {
        "checks": (_str_list, ("all",), None),
        "seed": (int, 42, _non_negative),
        "samples": (int, 100, _positive),
        "n": (int, 32, None),
        "band_limit": (int, 8, None),
        "slope": (float, 2.0, None),
        "amplitude": (float, 1.0, _positive),
        "tolerance": (float, DEFAULT_TOL, _positive),
        "interpolation_exponents": (_float_list, (2.0, 4.0, 6.0), None),
        "perturbation": (float, 1e-3, _positive),
    },
    "convergence": {
        "dts": (_float_list, (), None),
        "ns": (_int_list, (), None),
        "metric": (str, "exact", lambda v: v in ("exact", "energy_residual")),
    },
}

@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration with defaults applied."""

    values: tuple  # nested ((section, ((key, value), ...)), ...)
    base_dir: str = "."

    def __getitem__(self, name):
        return dict(dict(self.values)[name])

    def grid(self) -> TorusGrid:
        g = self["grid"]
        return TorusGrid(**{f: g[key] for f, key in _GRID_KEYS.items()})

    def params(self) -> CbfParams:
        return CbfParams(**self["params"])

    def solver(self) -> SolverConfig:
        return SolverConfig(**self["solver"])

    def source(self, section):
        """What the [ic] or [forcing] field is drawn from: None for no
        forcing, "snapshot" for a snapshot file, else the family name."""
        spec = self[section]
        if section == "forcing":
            if spec["kind"] == "zero":
                return None
            if spec["snapshot"]:
                return "snapshot"
        return spec["family"]

    def check_bands(self, n_points):
        """The band rule of the random [ic] and [forcing] fields on N = n_points."""
        for section in ("ic", "forcing"):
            if self.source(section) == "random":
                check_band_limit(self[section]["band_limit"], n_points, section)

    def _resolve(self, path):
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    @np.errstate(over="ignore", invalid="ignore")
    def _field(self, grid, section):
        """The [ic] or [forcing] field on ``grid``, from its source; a family
        argument rejected, or a field that overflows, is a section error."""
        spec, name = self[section], self.source(section)
        if name == "snapshot":
            return self._snapshot_field(section, grid)
        try:
            if name == "taylor_green":
                return taylor_green(grid, amplitude=spec["amplitude"])
            if name == "random":
                return random_band_limited(grid, seed=spec["seed"],
                                           band_limit=spec["band_limit"],
                                           spectrum_slope=spec["slope"],
                                           amplitude=spec["amplitude"])
            if name == "single_mode":
                return single_mode(grid, mode=spec["mode"],
                                   component=spec["component"],
                                   amplitude=spec["amplitude"], phase=spec["phase"])
            # kolmogorov, a [forcing] family only: its mode is one integer
            return kolmogorov(grid, mode=spec["mode"], amplitude=spec["amplitude"])
        except (InvalidArgumentsError, InvalidFieldError) as err:
            raise ConfigError(f"{section}: {err}") from None

    def _snapshot_field(self, section, grid):
        """The [ic] or [forcing] snapshot's field, which must lie on ``grid``."""
        name = self[section]["snapshot"]
        path = self._resolve(name)
        if not name or not os.path.exists(path):
            raise ConfigError(f"{section}.snapshot: path not resolvable: {path!r}")
        field, _, _ = read_snapshot_file(path)
        if not field.grid.compatible(grid):
            raise ConfigError(f"{section}.snapshot grid does not match [grid]")
        return field

    def initial_condition(self, grid=None):
        return self._field(grid if grid is not None else self.grid(), "ic")

    def forcing(self, grid=None) -> Forcing:
        if self.source("forcing") is None:
            return Forcing()
        base = self._field(grid if grid is not None else self.grid(), "forcing")
        if self["forcing"]["kind"] == "steady":
            return Forcing(base)
        rate = self["forcing"]["decay_rate"]
        return Forcing(base, lambda t: np.exp(-rate * t))

    def problem(self, grid=None):
        """``(ic, params, solver config, forcing)`` on one grid, [grid] by
        default: the arguments of ``solver.run``, in its order."""
        grid = grid if grid is not None else self.grid()
        return (self.initial_condition(grid), self.params(), self.solver(),
                self.forcing(grid))


def _parse_value(section, key, parser, raw):
    try:
        value = parser(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({err})") from None
    if parser in (float, _float_list) and not np.all(np.isfinite(value)):
        raise ConfigError(f"{section}.{key}: {raw!r} is not finite")
    return value


def load_config(path) -> RunConfig:
    """Load, validate, and default-fill a configuration file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"parse error in {path}: {err}") from None
    except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return build_config(cp, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_text(text, base_dir=".") -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"parse error: {err}") from None
    return build_config(cp, base_dir=base_dir)


def check_value(section, key, value):
    """``value``, a config error unless it lies in the domain of ``section.key``."""
    validator = SCHEMA[section][key][2]
    if validator is not None and not validator(value):
        raise ConfigError(f"{section}.{key}: value {value!r} out of domain")
    return value


def build_config(cp: configparser.ConfigParser, base_dir=".") -> RunConfig:
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    values = []
    for section, keys in SCHEMA.items():
        entries = []
        for key, (parser, default, _) in keys.items():
            value = (_parse_value(section, key, parser, cp.get(section, key))
                     if cp.has_option(section, key) else default)
            entries.append((key, check_value(section, key, value)))
        values.append((section, tuple(entries)))
    config = RunConfig(values=tuple(values), base_dir=base_dir)
    _cross_validate(config)
    return config


def _cross_validate(config: RunConfig):
    for section in ("grid", "params", "solver"):
        try:
            getattr(config, section)()
        except (InvalidArgumentsError, InvalidExponentError) as err:
            field, _, rest = str(err).partition(" ")  # messages lead with it
            raise ConfigError(f"{section}.{_GRID_KEYS.get(field, field)} "
                              f"{rest}") from None
    exps = config["verify"]["interpolation_exponents"]
    if len(exps) != 3:
        raise ConfigError("verify.interpolation_exponents needs exactly 3 values")
    try:
        interpolation_theta(*exps)
    except InvalidArgumentsError as err:
        raise ConfigError(str(err)) from None
    # A snapshot is read at load, so a bad one fails before any output.
    for section in ("ic", "forcing"):
        if config.source(section) == "snapshot":
            config._snapshot_field(section, config.grid())
    verify = config["verify"]
    checks = verify["checks"]
    if not checks or len(set(checks)) < len(checks):
        raise ConfigError("verify.checks needs one or more distinct checks, "
                          f"got {', '.join(checks) or 'none'}")
    for name in checks:
        if name != "all" and name not in CHECKS:
            raise ConfigError(f"verify.checks: unknown check {name!r}")
    conv = config["convergence"]
    for key in ("dts", "ns"):  # a repeated size compares a run with itself
        if 0 < len(set(conv[key])) < 3:
            raise ConfigError(f"convergence.{key} needs at least 3 distinct entries")
    # Each entry that replaces [grid] n or [solver] dt must build its object.
    grid, solver = config.grid(), config.solver()
    for key, base, field, values in (("verify.n", grid, "n_points", [verify["n"]]),
                                     ("convergence.ns", grid, "n_points", conv["ns"]),
                                     ("convergence.dts", solver, "dt", conv["dts"])):
        try:
            for value in values:
                replace(base, **{field: value})
        except InvalidArgumentsError as err:
            raise ConfigError(f"{key}: {err}") from None
    # The [ic] and [forcing] fields draw on [grid], the sampler on [verify] n;
    # the verify perturbation and an N ladder's fields are checked by the cli.
    try:
        config.check_bands(config["grid"]["n"])
        check_band_limit(verify["band_limit"], verify["n"], "verify")
    except InvalidArgumentsError as err:
        raise ConfigError(str(err)) from None


def _format(value) -> str:
    """A config value as the text that parses back to it: a tuple's items
    joined by ", ", a bool in lower case, a float as its repr (its str)."""
    if isinstance(value, tuple):
        return ", ".join(map(_format, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def dump_config(config: RunConfig, path=None) -> str:
    lines = []
    for section, entries in config.values:
        lines.append(f"[{section}]")
        for key, value in entries:
            lines.append(f"{key} = {_format(value)}")
        lines.append("")
    text = "\n".join(lines)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
