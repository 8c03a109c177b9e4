"""Sectioned key-value run configuration (INI-style).

Every key carries a type, a default, and an optional domain constraint;
unknown sections or keys are rejected, and domain violations name the
offending ``section.key``.  ``dump_config(load_config(p))`` round-trips to an
identical effective configuration.
"""

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidArgumentsError, InvalidFieldError
from .families import kolmogorov, random_band_limited, single_mode, taylor_green
from .grid import TWO_PI, TorusGrid
from .operators import CbfParams
from .snapshot import read_snapshot_file
from .solver import Forcing, SolverConfig
from .verification import CHECKS


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _int_list(text):
    return tuple(int(tok) for tok in _tokens(text))


def _float_list(text):
    return tuple(float(tok) for tok in _tokens(text))


def _str_list(text):
    return tuple(_tokens(text))


def _tokens(text):
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


def _bool(text):
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> (parser, default, validator or None)
SCHEMA = {
    "grid": {
        "dim": (int, 2, lambda v: v in (2, 3)),
        "n": (int, 64, lambda v: v >= 8 and v % 2 == 0),
        "l": (float, TWO_PI, _positive),
    },
    "params": {
        "mu": (float, 1.0, _positive),
        "alpha": (float, 0.0, _non_negative),
        "beta": (float, 1.0, _non_negative),
        "r": (float, 3.0, lambda v: v >= 1),
    },
    "solver": {
        "dt": (float, 1e-3, _positive),
        "t_end": (float, 1.0, _non_negative),
        "scheme": (str, "imex_cnab2", lambda v: v in ("imex_euler", "imex_cnab2")),
        "galerkin_n": (int, 0, _non_negative),
        "galerkin_shape": (str, "box", lambda v: v in ("box", "ball")),
        "dealias": (_bool, True, None),
        "diagnostics_every": (int, 10, _positive),
        "snapshot_every": (int, 0, _non_negative),
        "substeps": (int, 1, _positive),
    },
    "ic": {
        "family": (str, "taylor_green",
                   lambda v: v in ("taylor_green", "random", "single_mode",
                                   "snapshot")),
        "amplitude": (float, 1.0, None),
        "band_limit": (int, 8, _positive),
        "slope": (float, 2.0, None),
        "seed": (int, 7, None),
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
        "band_limit": (int, 4, _positive),
        "slope": (float, 2.0, None),
        "seed": (int, 11, None),
        "decay_rate": (float, 0.0, _non_negative),
        "snapshot": (str, "", None),
    },
    "output": {
        "directory": (str, "out", None),
        "extended_diagnostics": (_bool, False, None),
    },
    "verify": {
        "checks": (_str_list, ("all",), None),
        "seed": (int, 42, None),
        "samples": (int, 100, _positive),
        "n": (int, 32, lambda v: v >= 8 and v % 2 == 0),
        "band_limit": (int, 8, _positive),
        "slope": (float, 2.0, None),
        "amplitude": (float, 1.0, _positive),
        "tolerance": (float, 1e-9, _positive),
        "interpolation_exponents": (_float_list, (2.0, 4.0, 6.0), None),
        "perturbation": (float, 1e-3, _positive),
    },
    "convergence": {
        "dts": (_float_list, (), None),
        "ns": (_int_list, (), None),
        "metric": (str, "taylor_green",
                   lambda v: v in ("taylor_green", "single_mode",
                                   "energy_residual")),
    },
}

_FORMATTERS = {
    int: lambda v: str(v),
    float: lambda v: repr(v),
    str: lambda v: v,
    _bool: lambda v: "true" if v else "false",
    _int_list: lambda v: ", ".join(str(x) for x in v),
    _float_list: lambda v: ", ".join(repr(x) for x in v),
    _str_list: lambda v: ", ".join(v),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration with defaults applied."""

    values: tuple  # nested ((section, ((key, value), ...)), ...)
    base_dir: str = "."

    def section(self, name):
        return dict(dict(self.values)[name])

    def __getitem__(self, name):
        return self.section(name)

    def grid(self) -> TorusGrid:
        g = self.section("grid")
        return TorusGrid(dim=g["dim"], n_points=g["n"], period=g["l"])

    def params(self) -> CbfParams:
        return CbfParams(**self.section("params"))

    def solver(self) -> SolverConfig:
        return SolverConfig(**self.section("solver"))

    def _resolve(self, path):
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    @np.errstate(over="ignore", invalid="ignore")
    def _family_field(self, grid, section):
        """The [ic] or [forcing] family field; an argument a family rejects,
        or a field that overflows its finiteness check, is a section error."""
        spec = self.section(section)
        name = spec["family"]
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
        path = self._resolve(self.section(section)["snapshot"])
        field, _, _ = read_snapshot_file(path)
        if not field.grid.compatible(grid):
            raise ConfigError(f"{section}.snapshot grid does not match [grid]")
        return field

    def initial_condition(self, grid=None):
        grid = grid if grid is not None else self.grid()
        spec = self.section("ic")
        if spec["family"] == "snapshot":
            return self._snapshot_field("ic", grid)
        return self._family_field(grid, "ic")

    def forcing(self, grid=None) -> Forcing:
        grid = grid if grid is not None else self.grid()
        spec = self.section("forcing")
        if spec["kind"] == "zero":
            return Forcing.zero()
        if spec["snapshot"]:
            base = self._snapshot_field("forcing", grid)
        else:
            base = self._family_field(grid, "forcing")
        if spec["kind"] == "steady":
            return Forcing.steady(base)
        rate = spec["decay_rate"]
        return Forcing.analytic(base, lambda t: np.exp(-rate * t))

    def dump(self) -> str:
        lines = []
        for section, entries in self.values:
            lines.append(f"[{section}]")
            for key, value in entries:
                parser = SCHEMA[section][key][0]
                lines.append(f"{key} = {_FORMATTERS[parser](value)}")
            lines.append("")
        return "\n".join(lines)


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
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"parse error in {path}: {err}") from None
    return build_config(cp, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_text(text, base_dir=".") -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"parse error: {err}") from None
    return build_config(cp, base_dir=base_dir)


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
        for key, (parser, default, validator) in keys.items():
            if cp.has_option(section, key):
                value = _parse_value(section, key, parser, cp.get(section, key))
            else:
                value = default
            if validator is not None and not validator(value):
                raise ConfigError(f"{section}.{key}: value {value!r} out of domain")
            entries.append((key, value))
        values.append((section, tuple(entries)))
    config = RunConfig(values=tuple(values), base_dir=base_dir)
    _cross_validate(config)
    return config


def _cross_validate(config: RunConfig):
    try:
        grid = config.grid()
        config.params()
        config.solver()
    except InvalidArgumentsError as err:
        raise ConfigError(str(err)) from None
    ic = config.section("ic")
    if ic["family"] == "snapshot":
        path = config._resolve(ic["snapshot"])
        if not ic["snapshot"] or not os.path.exists(path):
            raise ConfigError(f"ic.snapshot: path not resolvable: {path!r}")
    if ic["family"] == "random" and ic["band_limit"] > grid.n_points // 2:
        raise ConfigError("ic.band_limit exceeds grid Nyquist")
    forcing = config.section("forcing")
    if forcing["kind"] != "zero" and forcing["snapshot"]:
        path = config._resolve(forcing["snapshot"])
        if not os.path.exists(path):
            raise ConfigError(f"forcing.snapshot: path not resolvable: {path!r}")
    for name in config.section("verify")["checks"]:
        if name != "all" and name not in CHECKS:
            raise ConfigError(f"verify.checks: unknown check {name!r}")
    exps = config.section("verify")["interpolation_exponents"]
    if len(exps) != 3:
        raise ConfigError("verify.interpolation_exponents needs exactly 3 values")


def dump_config(config: RunConfig, path=None) -> str:
    text = config.dump()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
