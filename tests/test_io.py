"""Configuration, snapshot format, diagnostics files, and the CLI surface."""

import contextlib
import dataclasses
import inspect
import os
import re
import struct
import sys
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbftorus import cli, solver
from cbftorus import verification as verif
from cbftorus.config import (RunConfig, config_from_text, dump_config,
                             load_config)
from cbftorus.errors import (ConfigError, ContractViolationError,
                             SnapshotFormatError)
from cbftorus.families import random_band_limited
from cbftorus.fields import SpectralField, zero_field
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams
from cbftorus.snapshot import MAGIC, read_snapshot_file, write_snapshot_file
from cbftorus.solver import SolverConfig, run
from cbftorus.spectral import l2_norm
from cbftorus.verification import CheckReport

MINIMAL = """
[grid]
dim = 2
n = 32

[params]
mu = 0.5
beta = 1.0
r = 4.0
"""


# ---------------------------------------------------------------------------
# configuration


def test_minimal_config_gets_defaults():
    config = config_from_text(MINIMAL)
    solver = config.solver()
    assert solver.dt == 1e-3
    assert solver.scheme == "imex_cnab2"
    assert config["grid"]["n"] == 32
    assert config_from_text("")["grid"]["n"] == 64


def test_domain_violation_names_key():
    with pytest.raises(ConfigError, match="params.mu"):
        config_from_text("[params]\nmu = -1\n")
    with pytest.raises(ConfigError, match="solver.dt"):
        config_from_text("[solver]\ndt = 0\n")


@pytest.mark.parametrize("text,name", [
    ("[params]\nr = 0.5\n", "params.r"),  # an InvalidExponentError
    ("[grid]\nn = 7\n", "grid.n"),
    ("[grid]\nl = 0\n", "grid.l"),
    ("[solver]\ngalerkin_n = -1\n", "solver.galerkin_n"),
    ("[solver]\ngalerkin_shape = cube\n", "solver.galerkin_shape"),
    ("[solver]\nsubsteps = 2\n", "solver.substeps"),
    ("[solver]\ndiagnostics_every = 0\n", "solver.diagnostics_every"),
    ("[solver]\nsnapshot_every = -1\n", "solver.snapshot_every"),
])
def test_object_domain_errors_name_section_and_field(text, name):
    with pytest.raises(ConfigError, match=f"^{name} "):
        config_from_text(text)


def test_params_and_solver_keys_are_the_dataclass_fields():
    config = config_from_text("")
    for section, cls in (("params", CbfParams), ("solver", SolverConfig)):
        assert list(config[section]) == [f.name for f in dataclasses.fields(cls)]
    assert config.params() == CbfParams() and config.solver() == SolverConfig()


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError, match="unknown key params.viscosity"):
        config_from_text("[params]\nviscosity = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[turbulence\]"):
        config_from_text("[turbulence]\nles = yes\n")


def test_parse_error_reported(tmp_path):
    with pytest.raises(ConfigError, match="parse error"):
        config_from_text("[grid\nn = 32\n")
    path = _write(tmp_path, "unparsed.ini", "[grid\nn = 32\n")
    with pytest.raises(ConfigError, match="parse error in"):
        load_config(path)


def test_config_round_trip(tmp_path):
    config = config_from_text(MINIMAL)
    path = tmp_path / "effective.ini"
    dump_config(config, path)
    reloaded = load_config(path)
    assert reloaded.values == config.values
    assert dump_config(reloaded) == dump_config(config)


def test_dump_config_text_of_each_value_type():
    # One formatter decides by the value's type: a bool is lower case (not
    # the str of an int), a tuple is its items joined by ", ", a float is
    # its repr, anything else its str; an empty str leaves "key = ".
    config = config_from_text(MINIMAL + """
[solver]
dt = 0.002
dealias = off

[ic]
mode = 0, 1

[output]
extended_diagnostics = yes

[verify]
checks = trilinear, filter

[convergence]
dts = 4e-3, 0.002, 0.001
ns = 8, 12, 16
""")
    text = dump_config(config)
    assert ("[solver]\ndt = 0.002\nt_end = 1.0\nscheme = imex_cnab2\n"
            "galerkin_n = 0\ngalerkin_shape = box\ndealias = false\n"
            "diagnostics_every = 10\nsnapshot_every = 0\nsubsteps = 1\n\n") in text
    lines = text.splitlines()
    for line in ("l = 6.283185307179586", "n = 32", "r = 4.0", "mode = 0, 1",
                 "snapshot = ", "extended_diagnostics = true",
                 "checks = trilinear, filter", "dts = 0.004, 0.002, 0.001",
                 "ns = 8, 12, 16", "interpolation_exponents = 2.0, 4.0, 6.0"):
        assert line in lines
    assert lines.count("snapshot = ") == 2  # [ic] and [forcing]


def test_missing_snapshot_path_rejected(tmp_path):
    text = MINIMAL + "\n[ic]\nfamily = snapshot\nsnapshot = missing.snap\n"
    with pytest.raises(ConfigError, match="not resolvable"):
        config_from_text(text, base_dir=str(tmp_path))


def test_unknown_check_rejected():
    with pytest.raises(ConfigError, match="unknown check"):
        config_from_text("[verify]\nchecks = bogus\n")


@pytest.mark.parametrize("checks,n,band_limit,ok", [
    ("trilinear", 16, 9, False),  # above N/2 of [verify] n
    ("trilinear", 32, 9, True),  # [grid] n = 16 is not sampled
    ("all", 32, 8, True),
    # [grid] n bounds the band only when continuous_dependence runs, which
    # ``verify`` checks before its first check (see the CLI tests).
    ("all", 32, 9, True),
])
def test_verify_band_limit_checked_at_load(checks, n, band_limit, ok):
    text = (f"[grid]\nn = 16\n\n[verify]\nchecks = {checks}\nn = {n}\n"
            f"band_limit = {band_limit}\n")
    if ok:
        config_from_text(text)
        return
    with pytest.raises(ConfigError, match=r"^verify\.band_limit "):
        config_from_text(text)


def test_config_builders(tmp_path):
    text = MINIMAL + """
[ic]
family = random
seed = 3
band_limit = 6

[forcing]
kind = steady
family = kolmogorov
mode = 2
amplitude = 0.5
"""
    config = config_from_text(text)
    grid = config.grid()
    ic = config.initial_condition(grid)
    assert l2_norm(ic) == pytest.approx(1.0, rel=1e-12)
    f = config.forcing(grid).at(0.0)
    assert f is not None and l2_norm(f) > 0


@pytest.mark.parametrize("sections,ic,forcing", [
    ("", "taylor_green", None),
    ("[ic]\nfamily = random\n", "random", None),
    ("[ic]\nfamily = single_mode\n", "single_mode", None),
    ("[ic]\nfamily = snapshot\nsnapshot = f.snap\n", "snapshot", None),
    ("[forcing]\nkind = steady\n", "taylor_green", "kolmogorov"),
    ("[forcing]\nkind = analytic\nfamily = random\n", "taylor_green", "random"),
    ("[forcing]\nkind = steady\nsnapshot = f.snap\n", "taylor_green", "snapshot"),
    # a zero forcing draws on nothing, whatever its family and snapshot
    ("[forcing]\nfamily = random\nsnapshot = f.snap\n", "taylor_green", None),
], ids=["default", "random-ic", "single-mode-ic", "snapshot-ic", "steady-family",
        "analytic-random", "steady-snapshot", "zero-with-snapshot"])
def test_config_source_of_each_field(tmp_path, sections, ic, forcing):
    write_snapshot_file(tmp_path / "f.snap", random_band_limited(
        TorusGrid(dim=2, n_points=32), seed=3, band_limit=4), 0.0, CbfParams())
    config = config_from_text(MINIMAL + sections, base_dir=str(tmp_path))
    assert (config.source("ic"), config.source("forcing")) == (ic, forcing)


def test_kolmogorov_is_forcing_only(tmp_path):
    text = MINIMAL + "\n[ic]\nfamily = kolmogorov\n"
    with pytest.raises(ConfigError, match="ic.family"):
        config_from_text(text)
    cfg = _write(tmp_path, "kolmogorov_ic.ini", text)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_config_analytic_forcing_decays():
    text = MINIMAL + """
[forcing]
kind = analytic
family = kolmogorov
amplitude = 1.0
decay_rate = 2.0
"""
    config = config_from_text(text)
    forcing = config.forcing(config.grid())
    f0 = l2_norm(forcing.at(0.0))
    f1 = l2_norm(forcing.at(1.0))
    assert f1 == pytest.approx(np.exp(-2.0) * f0, rel=1e-12)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip_bitwise(tmp_path, grid32):
    field = random_band_limited(grid32, seed=33, band_limit=8)
    params = CbfParams(mu=0.3, alpha=0.1, beta=2.0, r=3.5)
    path = tmp_path / "state.snap"
    write_snapshot_file(path, field, 0.75, params)
    loaded, t, loaded_params = read_snapshot_file(path)
    assert t == 0.75
    assert loaded_params == params
    assert np.array_equal(loaded.coeffs, field.coeffs)
    assert loaded.grid.compatible(grid32)
    # write the loaded field again: byte-identical files
    path2 = tmp_path / "state2.snap"
    write_snapshot_file(path2, loaded, t, loaded_params)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_bad_magic_and_truncation(tmp_path, grid32):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_snapshot_file(path)
    field = random_band_limited(grid32, seed=34, band_limit=8)
    good = tmp_path / "good.snap"
    write_snapshot_file(good, field, 0.0, CbfParams())
    (tmp_path / "cut.snap").write_bytes(good.read_bytes()[:-17])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot_file(tmp_path / "cut.snap")
    # One component on a 2D grid: the format stores vector fields only.
    scalar = SpectralField(grid32, field.coeffs[:1])
    with pytest.raises(SnapshotFormatError, match="vector fields"):
        write_snapshot_file(tmp_path / "scalar.snap", scalar, 0.0, CbfParams())
    assert not (tmp_path / "scalar.snap").exists()


def _snapshot_bytes(tmp_path):
    field = random_band_limited(TorusGrid(dim=2, n_points=8), seed=36, band_limit=2)
    path = tmp_path / "small.snap"
    write_snapshot_file(path, field, 0.5, CbfParams())
    return path.read_bytes()


HUGE_HEADER = MAGIC + struct.pack("<II6d", 3, 2 ** 20, 2 * np.pi, 0.0, 3.0, 1.0,
                                  0.0, 1.0)


@st.composite
def corrupted_snapshots(draw, good):
    data = bytearray(good)
    kind = draw(st.sampled_from(["overwrite", "header", "truncate", "append"]))
    if kind == "overwrite":
        start = draw(st.integers(0, len(data) - 1))
        patch = draw(st.binary(min_size=1, max_size=32))
        data[start:start + len(patch)] = patch
    elif kind == "header":
        # replace one of the eight header fields (two uint32, six float64)
        i = draw(st.integers(0, 7))
        if i < 2:
            start, value = 8 + 4 * i, struct.pack("<I", draw(st.integers(0, 2 ** 32 - 1)))
        else:
            start, value = 16 + 8 * (i - 2), struct.pack("<d", draw(st.floats()))
        data[start:start + len(value)] = value
    elif kind == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    else:
        data += draw(st.binary(min_size=1, max_size=64))
    return bytes(data)


@pytest.fixture(scope="module")
def good_snapshot(tmp_path_factory):
    return _snapshot_bytes(tmp_path_factory.mktemp("good"))


# Every example writes a new file: truncating an existing one costs far more
# than creating one on some file systems.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_snapshot_reader_fuzz_raises_only_format_error(tmp_path, good_snapshot,
                                                       data):
    blob = data.draw(corrupted_snapshots(good_snapshot))
    path = tmp_path / "fuzz.snap"
    path.unlink(missing_ok=True)
    path.write_bytes(blob)
    try:
        field, t, params = read_snapshot_file(path)
    except SnapshotFormatError:
        return
    assert np.all(np.isfinite(field.coeffs)) and np.isfinite(t)


def test_snapshot_bad_values_rejected(tmp_path):
    good = _snapshot_bytes(tmp_path)
    header = 8 + struct.calcsize("<II6d")
    cases = {
        # 64 bytes that declare 3 * (2^20)^3 coefficients
        "truncated": HUGE_HEADER,
        "non-finite header": good[:16] + struct.pack("<d", np.nan) + good[24:],
        "out of domain": good[:8] + struct.pack("<I", 5) + good[12:],
        "bad coefficients": good[:header] + struct.pack("<d", np.inf) + good[header + 8:],
    }
    # one coefficient without its conjugate partner: not Hermitian
    broken = bytearray(good)
    broken[header + 16 * 9:header + 16 * 10] = struct.pack("<2d", 1.0, 0.0)
    cases["Hermitian"] = bytes(broken)
    # the same at 1e200, whose square overflows a plain coefficient norm
    broken[header + 16 * 9:header + 16 * 10] = struct.pack("<2d", 1e200, 0.0)
    cases["Hermitian symmetry"] = bytes(broken)
    for match, blob in cases.items():
        path = tmp_path / "bad.snap"
        path.write_bytes(blob)
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot_file(path)


def test_cli_malformed_snapshot_exit_code(tmp_path, capsys):
    (tmp_path / "huge.snap").write_bytes(HUGE_HEADER)
    cfg = _write(tmp_path, "snap.ini", "[grid]\ndim = 3\nn = 16\n"
                 "[ic]\nfamily = snapshot\nsnapshot = huge.snap\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "truncated" in capsys.readouterr().err


# (case, command): every command reads a snapshot when its config loads.
UNREADABLE = ([(case, "run") for case in (
    "config_missing", "config_directory", "config_not_utf8",
    "ic_snapshot_directory", "forcing_snapshot_directory")]
    + [(case, command) for command in ("verify", "convergence")
       for case in ("ic_snapshot_directory", "forcing_snapshot_directory")])


@pytest.mark.parametrize("case,command", UNREADABLE, ids=[
    case if command == "run" else f"{case}-{command}" for case, command in UNREADABLE])
def test_cli_unreadable_paths_exit_2(tmp_path, capsys, monkeypatch, case, command):
    (tmp_path / "adir").mkdir()
    cfg = str(tmp_path / "adir")
    # Settings that run, verify and convergence each accept, were the
    # snapshot readable: one check, and a dt ladder of the energy residual.
    accepted = ("[verify]\nchecks = trilinear\nsamples = 2\n"
                "[convergence]\ndts = 0.004, 0.002, 0.001\n"
                "metric = energy_residual\n")
    if case == "config_missing":
        cfg = str(tmp_path / "missing.ini")
    elif case == "config_not_utf8":
        cfg = str(tmp_path / "latin1.ini")
        with open(cfg, "wb") as fh:
            fh.write("[grid]\nn = 16 ; \u00e9\n".encode("latin-1"))
    elif case == "ic_snapshot_directory":
        cfg = _write(tmp_path, "ic.ini", "[grid]\nn = 16\n"
                     "[ic]\nfamily = snapshot\nsnapshot = adir\n" + accepted)
    elif case == "forcing_snapshot_directory":
        cfg = _write(tmp_path, "f.ini", "[grid]\nn = 16\n"
                     "[forcing]\nkind = steady\nsnapshot = adir\n" + accepted)
    monkeypatch.setattr(cli, "_run_one_check", _no_run)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "cannot read" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("section", ["ic", "forcing"])
def test_cli_missing_snapshot_exit_2_before_any_output(tmp_path, capsys, section):
    text = ("[grid]\nn = 16\n[ic]\nfamily = snapshot\nsnapshot = missing.snap\n"
            if section == "ic" else
            "[grid]\nn = 16\n[forcing]\nkind = steady\nsnapshot = missing.snap\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{section}.snapshot: path not resolvable" in err and not out.exists()


def test_cli_run_from_a_snapshot_of_an_earlier_run(tmp_path, capsys):
    # The t = 0 snapshot of one run is the [ic] of the next, which starts
    # at its energy; on another grid it is a config error at load.
    first = tmp_path / "first"
    assert cli.main(["run", "--config", _write(tmp_path, "a.ini", RUN_INI),
                     "--out", str(first)]) == 0
    text = RUN_INI.replace("family = random", "family = snapshot\nsnapshot = "
                           + str(first / "snap_000000.snap"))
    second = tmp_path / "second"
    assert cli.main(["run", "--config", _write(tmp_path, "b.ini", text),
                     "--out", str(second)]) == 0
    energies = [float((out / "diagnostics.tsv").read_text().splitlines()[1]
                      .split("\t")[1]) for out in (first, second)]
    assert energies[1] == pytest.approx(energies[0], rel=1e-14)
    capsys.readouterr()
    coarse = tmp_path / "coarse"
    assert cli.main(["run", "--config", _write(tmp_path, "c.ini", text.replace(
        "n = 32", "n = 16")), "--out", str(coarse)]) == 2
    err = capsys.readouterr().err
    assert "ic.snapshot grid does not match [grid]" in err and not coarse.exists()


# ---------------------------------------------------------------------------
# diagnostics files


BASE_COLUMNS = ["t", "energy", "v_seminorm_sq", "v_norm_sq", "lr1_norm",
                "forcing_power", "energy_residual", "int_dissipation",
                "int_damping", "int_forcing"]


def test_diagnostics_header_documented_order(tmp_path, grid32):
    ic = random_band_limited(grid32, seed=35, band_limit=6)
    config = SolverConfig(dt=1e-3, t_end=5e-3, diagnostics_every=1)
    _, diagnostics = run(ic, CbfParams(mu=0.5, beta=1.0, r=4.0), config)
    path = tmp_path / "diag.tsv"
    cli.write_diagnostics(diagnostics, path)
    header = path.read_text().splitlines()[0]
    assert header.split("\t") == BASE_COLUMNS


def test_extended_diagnostics_columns(tmp_path, grid32):
    ic = random_band_limited(grid32, seed=36, band_limit=6)
    config = SolverConfig(dt=1e-3, t_end=2e-3, diagnostics_every=1)
    _, diagnostics = run(ic, CbfParams(mu=0.5, beta=1.0, r=4.0), config,
                         extended=True)
    path = tmp_path / "diag.tsv"
    cli.write_diagnostics(diagnostics, path)
    header = path.read_text().splitlines()[0].split("\t")
    assert header == BASE_COLUMNS + ["a_norm_sq", "weighted_grad_sq",
                                     "int_a_norm_sq", "int_weighted_grad_sq"]


def test_empty_diagnostics_get_the_base_columns(tmp_path):
    # The fields with no default: a run that kept no row still names them.
    path = tmp_path / "diag.tsv"
    cli.write_diagnostics([], path)
    assert path.read_text() == "\t".join(BASE_COLUMNS) + "\n"


# ---------------------------------------------------------------------------
# CLI surface


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RUN_INI = """
[grid]
dim = 2
n = 32

[params]
mu = 0.1
beta = 1.0
r = 4.0

[solver]
dt = 0.002
t_end = 0.05
diagnostics_every = 5
snapshot_every = 10

[ic]
family = random
seed = 4
band_limit = 6
"""


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", RUN_INI)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.tsv"))
    assert os.path.exists(os.path.join(out, "config_effective.ini"))
    assert any(f.startswith("snap_") for f in os.listdir(out))
    captured = capsys.readouterr().out
    assert "final t" in captured and "max |energy_residual|" in captured
    # effective config reloads to the same values
    reloaded = load_config(os.path.join(out, "config_effective.ini"))
    assert reloaded.solver().dt == 0.002


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the "
                    "caller holds a call's arguments until it returns")
def test_cli_run_frees_the_initial_condition(tmp_path, monkeypatch):
    """cmd_run passes the initial condition as a call temporary and run drops
    it after the first state: no snapshot is written while it is alive."""
    refs, alive = [], []
    initial_condition = RunConfig.initial_condition
    write = cli.write_snapshot_file

    def tracked(self, grid=None):
        ic = initial_condition(self, grid)
        refs.append(weakref.ref(ic))
        return ic

    def checked(path, field, t, params):
        alive.append(refs[0]() is not None)
        write(path, field, t, params)

    monkeypatch.setattr(RunConfig, "initial_condition", tracked)
    monkeypatch.setattr(cli, "write_snapshot_file", checked)
    cfg = _write(tmp_path, "run.ini", RUN_INI)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert alive == [False] * 4  # t = 0, steps 10 and 20, step 25


def test_cli_run_extended_diagnostics_reproduce_from_effective_config(tmp_path):
    cfg = _write(tmp_path, "ext.ini", RUN_INI
                 + "\n[output]\nextended_diagnostics = true\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    effective = str(tmp_path / "a" / "config_effective.ini")
    assert cli.main(["run", "--config", effective,
                     "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "diagnostics.tsv").read_bytes()
    assert first.splitlines()[0].split(b"\t")[-1] == b"int_weighted_grad_sq"
    assert (tmp_path / "b" / "diagnostics.tsv").read_bytes() == first


def test_cli_run_has_no_extended_diagnostics_flag(tmp_path):
    cfg = _write(tmp_path, "run.ini", RUN_INI)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--extended-diagnostics"])
    assert exc.value.code == 2


def test_cli_run_t_end_zero_initial_sample_only(tmp_path):
    cfg = _write(tmp_path, "zero.ini",
                 RUN_INI.replace("t_end = 0.05", "t_end = 0.0"))
    out = str(tmp_path / "out0")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out0" / "diagnostics.tsv").read_text().splitlines()
    assert len(lines) == 2  # header + initial sample


def test_cli_run_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path, "run.ini", RUN_INI)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["run", "--config", cfg, "--out", out_b]) == 0
    bytes_a = (tmp_path / "a" / "diagnostics.tsv").read_bytes()
    bytes_b = (tmp_path / "b" / "diagnostics.tsv").read_bytes()
    assert bytes_a == bytes_b


def test_cli_run_deterministic_bytes_3d(tmp_path):
    cfg = _write(tmp_path, "run3d.ini",
                 RUN_INI.replace("dim = 2\nn = 32", "dim = 3\nn = 16"))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["run", "--config", cfg, "--out", out_b]) == 0
    bytes_a = (tmp_path / "a" / "diagnostics.tsv").read_bytes()
    bytes_b = (tmp_path / "b" / "diagnostics.tsv").read_bytes()
    assert bytes_a == bytes_b


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[params]\nmu = -1\n")
    assert cli.main(["run", "--config", cfg]) == 2
    assert "params.mu" in capsys.readouterr().err


@pytest.mark.parametrize("section,entries", [
    ("solver", "t_end = inf"),
    ("solver", "dt = 1e-320"),  # t_end/dt, the step count, overflows
    # Finite, but past 2**53 steps t + dt rounds back to t before t_end.
    ("solver", "dt = 1e-300"),
    ("ic", "family = single_mode\ncomponent = 5"),
    ("ic", "family = random\namplitude = nan"),
    ("ic", "family = single_mode\nmode = 0, 99"),  # would alias at N = 64
    ("ic", "family = single_mode\nmode = 0, 1, 2"),  # a 3D mode on a 2D grid
    ("forcing", "kind = steady\nfamily = kolmogorov\nmode = 40"),
    ("grid", "l = 1e300"),  # the volume overflows
    ("grid", "l = 1e-320"),  # the wavenumbers overflow
    # Taylor-Green is sampled on the grid: its transform overflows.
    ("forcing", "kind = steady\nfamily = taylor_green\namplitude = 1e308"),
    # A single mode: its coefficients are finite, its L2 norm is not.
    ("forcing", "kind = steady\nfamily = kolmogorov\namplitude = 1e308"),
    ("verify", "checks ="),  # a session that checks nothing
    ("verify", "checks = trilinear, trilinear"),
], ids=["t_end_inf", "dt_1e-320", "dt_1e-300", "component_5", "amplitude_nan",
        "mode_above_nyquist", "mode_length_3", "forcing_mode_above_nyquist",
        "period_1e300",
        "period_1e-320", "forcing_amplitude_1e308",
        "forcing_kolmogorov_amplitude_1e308", "checks_empty",
        "checks_repeated"])
def test_cli_malformed_values_exit_2(tmp_path, capsys, section, entries):
    grid = "[grid]\ndim = 2\nn = 64\n"
    text = (f"{grid}{entries}\n" if section == "grid"
            else f"{grid}\n[{section}]\n{entries}\n")
    with pytest.raises(ConfigError, match=section):
        config = config_from_text(text)
        config.initial_condition()
        config.forcing()
    cfg = _write(tmp_path, "bad.ini", text)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{section}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ic,forcing", [
    ("family = single_mode\namplitude = 0", "family = kolmogorov"),
    ("family = random\nseed = 4\nband_limit = 6",
     "family = kolmogorov\namplitude = 0"),
    ("family = snapshot\nsnapshot = zero.snap",
     "family = random\nsnapshot = zero.snap"),
], ids=["ic_amplitude_0", "forcing_amplitude_0", "zero_snapshots"])
def test_cli_run_zero_fields_exit_0(tmp_path, ic, forcing):
    """A zero [ic] or [forcing] field has a finite L2 norm: a forced run from
    rest, a forcing of amplitude 0 and zero snapshots all run."""
    grid = TorusGrid(dim=2, n_points=32)
    write_snapshot_file(str(tmp_path / "zero.snap"), zero_field(grid), 0.0,
                        CbfParams(mu=0.1, beta=1.0, r=4.0))
    text = (RUN_INI.replace("family = random\nseed = 4\nband_limit = 6", ic)
            + f"\n[forcing]\nkind = steady\n{forcing}\n")
    cfg = _write(tmp_path, "zero.ini", text)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "diagnostics.tsv").exists()


@pytest.mark.parametrize("section,entry,message", [
    ("grid", "n = abc", "grid.n: cannot parse 'abc'"),
    ("solver", "dealias = maybe",
     "solver.dealias: cannot parse 'maybe' (not a boolean: 'maybe')"),
], ids=["int", "bool"])
def test_cli_unparsable_value_exit_2_naming_its_key(tmp_path, capsys, section,
                                                    entry, message):
    out = tmp_path / "o"
    cfg = _write(tmp_path, "c.ini", f"[{section}]\n{entry}\n")
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()


def test_cli_blowup_exit_code(tmp_path, capsys):
    text = """
[grid]
n = 32

[params]
mu = 0.001
beta = 10.0
r = 5.0

[solver]
dt = 0.5
t_end = 5.0
scheme = imex_euler
diagnostics_every = 1

[ic]
family = random
seed = 4
band_limit = 4
amplitude = 1000.0
"""
    cfg = _write(tmp_path, "blow.ini", text)
    out = str(tmp_path / "blow_out")
    with pytest.warns(UserWarning):
        status = cli.main(["run", "--config", cfg, "--out", out])
    assert status == 3
    assert os.path.exists(os.path.join(out, "diagnostics.tsv"))


def test_cli_blowup_keeps_the_snapshots_before_it(tmp_path, capsys):
    """Snapshots are written as the run reaches them, so a run that blows up
    leaves every snapshot it took beside the partial diagnostics."""
    cfg = _write(tmp_path, "blow.ini", """
[grid]
dim = 2
n = 16

[params]
mu = 0.01
beta = 0.0
r = 4.0

[solver]
dt = 0.05
t_end = 5.0
scheme = imex_euler
dealias = false
snapshot_every = 1
diagnostics_every = 1

[ic]
family = random
band_limit = 5
amplitude = 200.0
""")
    out = tmp_path / "blow_out"
    with pytest.warns(UserWarning, match="CFL"):
        status = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert status == 3
    assert "energy runaway" in capsys.readouterr().err
    rows = (out / "diagnostics.tsv").read_text().splitlines()[1:]
    snaps = sorted(f for f in os.listdir(out) if f.startswith("snap_"))
    assert snaps == [f"snap_{i:06d}.snap" for i in range(4)]
    times = [read_snapshot_file(out / name)[1] for name in snaps]
    assert times == pytest.approx([0.0, 0.05, 0.10, 0.15], abs=1e-12)
    assert times == [float(row.split("\t")[0]) for row in rows]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflow_exits_as_blowup(tmp_path, capsys):
    text = """
[grid]
n = 16

[params]
r = 12.0

[ic]
family = random
band_limit = 4
amplitude = 1e30

[verify]
checks = apriori
"""
    # Every command names the cause, also where continuous_dependence would
    # perturb the initial condition; verify leaves no directory behind.
    for command, checks in (("run", "apriori"), ("verify", "apriori"),
                            ("verify", "continuous_dependence")):
        cfg = _write(tmp_path, "overflow.ini", text.replace("apriori", checks))
        out = tmp_path / f"overflow_{command}_{checks}"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
        assert ("blow-up at t = 0: non-finite energy budget"
                in capsys.readouterr().err)
        assert command == "run" or not out.exists()
    lines = (tmp_path / "overflow_run_apriori" / "diagnostics.tsv").read_text().splitlines()
    assert [line.split("\t") for line in lines] == [BASE_COLUMNS]


VERIFY_INI = """
[grid]
dim = 2
n = 32

[params]
mu = 1.0
beta = 1.0
r = 5.0

[solver]
dt = 0.001
t_end = 0.05
diagnostics_every = 10

[ic]
family = random
seed = 5
band_limit = 6

[verify]
checks = trilinear, interpolation, monotone_critical, continuous_dependence, apriori
samples = 10
"""


def test_check_parameters_are_session_inputs():
    # A session fills each parameter of a check with its input of that name,
    # and caps n_samples.  The lazy inputs (the [ic] problem, its extended
    # run) are properties of the class, so none is built here.
    session = cli._Session(config_from_text(VERIFY_INI))
    for name, row in verif.CHECKS.items():
        params = inspect.signature(row.run).parameters
        for key in params:
            assert hasattr(type(session), key) or key in vars(session), (name, key)
        assert row.cap is None or "n_samples" in params, name
    assert "diagnostics" not in vars(session)


def test_cli_verify_report_and_regime_skip(tmp_path, capsys):
    cfg = _write(tmp_path, "verify.ini", VERIFY_INI)
    out = str(tmp_path / "vout")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
    report = (tmp_path / "vout" / "verify_report.txt").read_text()
    assert "check trilinear" in report
    assert "REGIME-SKIP" in report  # monotone_critical needs r = 3
    assert "PASS" in report


def test_cli_verify_overflowing_amplitude_exit_2(tmp_path, capsys):
    """A [verify] amplitude whose samples overflow is an argument error: exit
    2, and no numpy RuntimeWarning (which fails any test here)."""
    cfg = _write(tmp_path, "amp.ini", """
[grid]
dim = 2
n = 16

[verify]
checks = trilinear, continuous_dependence
samples = 3
n = 16
band_limit = 4
amplitude = 1e308
""")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "[verify] amplitude" in capsys.readouterr().err


PERTURBATION_INI = """
[grid]
dim = 2
n = 16

[verify]
checks = continuous_dependence
samples = 3
n = 16
band_limit = 4
perturbation = {}
"""


def test_cli_verify_overflowing_perturbation_exit_2(tmp_path, capsys):
    """A [verify] perturbation that overflows the perturbed state at t = 0 is
    an argument error naming it and the check: exit 2, no RuntimeWarning."""
    cfg = _write(tmp_path, "pert.ini", PERTURBATION_INI.format("1e308"))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[verify] perturbation" in err and "continuous_dependence" in err


def test_cli_verify_perturbation_finite_at_start_blows_up_later(tmp_path):
    cfg = _write(tmp_path, "pert.ini", PERTURBATION_INI.format("1e20"))
    with pytest.warns(UserWarning) as record:
        status = cli.main(["verify", "--config", cfg,
                           "--out", str(tmp_path / "o")])
    assert status == 3
    # The blown-up step breaks both the CFL and the damping-stiffness limits.
    messages = " ".join(str(w.message) for w in record)
    assert "CFL" in messages and "stiff" in messages


def test_cli_verify_seed_override_changes_report(tmp_path):
    cfg = _write(tmp_path, "verify.ini", VERIFY_INI)
    out1, out2, out3 = (str(tmp_path / d) for d in ("v1", "v2", "v3"))
    cli.main(["verify", "--config", cfg, "--out", out1, "--seed", "1"])
    cli.main(["verify", "--config", cfg, "--out", out2, "--seed", "1"])
    cli.main(["verify", "--config", cfg, "--out", out3, "--seed", "2"])
    r1 = (tmp_path / "v1" / "verify_report.txt").read_text()
    r2 = (tmp_path / "v2" / "verify_report.txt").read_text()
    r3 = (tmp_path / "v3" / "verify_report.txt").read_text()
    assert r1 == r2  # deterministic under a fixed seed
    assert r1 != r3


def test_cli_verify_all_checks_smoke(tmp_path):
    text = """
[grid]
dim = 2
n = 32

[params]
mu = 1.0
beta = 1.0
r = 4.0

[solver]
dt = 0.002
t_end = 0.02
diagnostics_every = 5

[ic]
family = random
seed = 6
band_limit = 6

[verify]
checks = all
samples = 5
band_limit = 6
"""
    cfg = _write(tmp_path, "all.ini", text)
    out = str(tmp_path / "allout")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
    report = (tmp_path / "allout" / "verify_report.txt").read_text()
    # r = 4: the critical-case check is skipped, everything else runs
    assert report.count("REGIME-SKIP") == 1
    assert "check gronwall" in report and "check regularity" in report


# The beta = 0 (Navier-Stokes) config that CI runs through the console script.
NS_VERIFY_INI = """
[grid]
dim = 2
n = 16

[params]
mu = 0.5
beta = 0.0
r = 4.0

[solver]
dt = 0.002
t_end = 0.01
diagnostics_every = 5

[ic]
family = random
band_limit = 4

[verify]
checks = all
samples = 3
n = 16
band_limit = 4
"""


def test_cli_verify_navier_stokes_skips_beta_checks(tmp_path):
    cfg = _write(tmp_path, "ns.ini", NS_VERIFY_INI)
    assert cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "ns")]) == 0
    blocks = (tmp_path / "ns" / "verify_report.txt").read_text().split("\n\n")
    skipped = {b.splitlines()[0].split()[1] for b in blocks if "REGIME-SKIP" in b}
    # beta = 0: the shift rho and the rate rho* do not exist; r = 4 != 3
    assert skipped == {"monotone_shifted", "monotone_critical",
                       "advection_splitting", "continuous_dependence",
                       "regularity"}


# Configs whose theorem constants overflow a float.
OVERFLOW_VERIFY_INI = {
    "r3.001": NS_VERIFY_INI.replace("mu = 0.5", "mu = 0.1")
    .replace("beta = 0.0", "beta = 1.0").replace("r = 4.0", "r = 3.001"),
    "mu1e-160": NS_VERIFY_INI.replace("mu = 0.5", "mu = 1e-160")
    .replace("beta = 0.0", "beta = 1.0"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_VERIFY_INI))
def test_cli_verify_overflowing_constants_skip(tmp_path, capsys, case):
    """A shift, rate or constant that overflows a float is REGIME-SKIP with
    its reason, and the rest of the session runs and exits 0."""
    cfg = _write(tmp_path, "v.ini", OVERFLOW_VERIFY_INI[case])
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "verify_report.txt").read_text()
    for name in ("monotone_shifted", "advection_splitting",
                 "continuous_dependence", "regularity"):
        assert re.search(f"check {name}\n  status       REGIME-SKIP "
                         r"\(.* overflows a float at mu = ", report)
    assert report.count("check ") == len(verif.CHECKS)
    assert "FAIL" not in report


def test_cli_verify_huge_exponent_skips_dissipation_identity(tmp_path):
    # (r+1)^2 of the identity's forms overflows a float at r = 1e300.
    cfg = _write(tmp_path, "v.ini", NS_VERIFY_INI.replace("r = 4.0", "r = 1e300")
                 .replace("checks = all", "checks = dissipation_identity"))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "verify_report.txt").read_text()
    assert re.match(r"check dissipation_identity\n  status       REGIME-SKIP "
                    r"\(identity constant \(r\+1\)\^2 overflows a float at r = 1e\+300\)",
                    report)


def test_cli_verify_regime_edge_is_one_regime(tmp_path):
    # beta = 1/(2 mu) as computed, where 2*beta*mu rounds below 1: every
    # r = 3 check of one session reads the regime as CbfParams does.
    mu = 1.3522987986828883
    cfg = _write(tmp_path, "v.ini", NS_VERIFY_INI
                 .replace("mu = 0.5", f"mu = {mu!r}")
                 .replace("beta = 0.0", f"beta = {1.0 / (2.0 * mu)!r}")
                 .replace("r = 4.0", "r = 3.0").replace(
                     "checks = all", "checks = monotone_critical, "
                     "continuous_dependence, regularity"))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "verify_report.txt").read_text()
    assert re.findall(r"status       (\S+)", report) == [
        "EXPLORATORY", "REGIME-SKIP", "REGIME-SKIP"]


def test_cli_verify_regularity_below_r3_is_a_skip(tmp_path, monkeypatch):
    # The gradient bound exists for r > 3, or r = 3 with 2 beta mu >= 1:
    # at r = 2 the check is skipped before the [ic] run.
    monkeypatch.setattr(cli, "run", _no_run)
    cfg = _write(tmp_path, "v.ini", MINIMAL.replace("r = 4.0", "r = 2.0")
                 + "\n[verify]\nchecks = regularity\n")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert (tmp_path / "v" / "verify_report.txt").read_text() == (
        "check regularity\n  status       REGIME-SKIP (gradient bound needs "
        "r > 3, or r = 3 with 2*beta*mu >= 1)\n")


# Each config, and the checks it reports as REGIME-SKIP.
REGIME_SKIPS = {
    "beta0": (NS_VERIFY_INI, {"monotone_shifted", "monotone_critical",
                              "advection_splitting", "continuous_dependence",
                              "regularity"}),
    "r3_below_critical": (NS_VERIFY_INI.replace("beta = 0.0", "beta = 0.4")
                          .replace("r = 4.0", "r = 3.0"),
                          {"monotone_shifted", "advection_splitting",
                           "continuous_dependence", "regularity"}),
    # the shift rho and the rate rho* overflow a float; at mu = 1e-160 so
    # does local_2d's constant 27/(16 mu^3)
    "r3.001_overflow": (OVERFLOW_VERIFY_INI["r3.001"],
                        {"monotone_shifted", "monotone_critical",
                         "advection_splitting", "continuous_dependence",
                         "regularity"}),
    "mu1e-160_overflow": (OVERFLOW_VERIFY_INI["mu1e-160"],
                          {"monotone_shifted", "monotone_critical",
                           "advection_splitting", "local_2d",
                           "continuous_dependence", "regularity"}),
    "3d": (NS_VERIFY_INI.replace("dim = 2", "dim = 3")
           .replace("n = 16", "n = 12").replace("beta = 0.0", "beta = 1.0")
           .replace("band_limit = 4", "band_limit = 3"),
           {"monotone_critical", "local_2d"}),
}


def _count_calls(monkeypatch, calls, fn):
    """Count the calls of ``fn`` in ``calls``, through every reference to it
    in the cbftorus modules."""
    def counted(*args, **kwargs):
        calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "cbftorus" or name.startswith("cbftorus."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)


@pytest.mark.parametrize("case", sorted(REGIME_SKIPS))
def test_regime_skip_comes_before_any_draw_or_step(tmp_path, monkeypatch,
                                                   case):
    text, expected = REGIME_SKIPS[case]
    calls = {}
    _count_calls(monkeypatch, calls, solver.step)
    _count_calls(monkeypatch, calls, random_band_limited)
    skipped = {}
    for name in verif.CHECKS:
        calls.clear()
        config = config_from_text(text.replace("checks = all",
                                               f"checks = {name}"))
        cli.cmd_verify(config, out_dir=str(tmp_path / name))
        if "REGIME-SKIP" in (tmp_path / name / "verify_report.txt").read_text():
            skipped[name] = dict(calls)
    # each session runs one check: a skip may follow no step and no draw
    assert skipped == {name: {} for name in expected}


def test_cli_verify_one_trajectory_for_apriori_and_regularity(tmp_path,
                                                              monkeypatch):
    calls = []

    def counted_run(*args, **kwargs):
        calls.append(kwargs.get("extended"))
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", counted_run)
    cfg = _write(tmp_path, "verify.ini", VERIFY_INI.replace(
        "trilinear, interpolation, monotone_critical, continuous_dependence, "
        "apriori", "apriori, regularity"))
    assert cli.main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "v")]) == 0
    assert calls == [True]
    report = (tmp_path / "v" / "verify_report.txt").read_text()
    assert "check apriori" in report and "check regularity" in report
    # a second session runs its own trajectory
    assert cli.main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "w")]) == 0
    assert calls == [True, True]


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    failing = CheckReport("trilinear", 1, -1.0, 0)
    monkeypatch.setitem(cli.verif.CHECKS, "trilinear",
                        cli.verif.CHECKS["trilinear"]._replace(
                            run=lambda sampler, n_samples: failing))
    cfg = _write(tmp_path, "verify.ini", VERIFY_INI.replace(
        "trilinear, interpolation, monotone_critical", "trilinear"))
    assert cli.main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "vf")]) == 1


@pytest.mark.parametrize("exponents", ["4, 2, 6", "0.5, 2, 6", "2, 4"])
def test_bad_interpolation_exponents_exit_2_before_any_check(tmp_path,
                                                             monkeypatch,
                                                             exponents):
    ran = []
    run_one_check = cli._run_one_check
    monkeypatch.setattr(cli, "_run_one_check", lambda name, *args: (
        ran.append(name) or run_one_check(name, *args)))
    cfg = _write(tmp_path, "exps.ini", VERIFY_INI
                 + f"interpolation_exponents = {exponents}\n")
    assert cli.main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "v")]) == 2
    assert ran == [] and not (tmp_path / "v").exists()


@pytest.mark.parametrize("command", ["run", "verify", "convergence",
                                     "taylor-green"])
def test_cli_out_naming_a_file_exit_2(tmp_path, capsys, monkeypatch, command):
    """An --out that names a file exits 2 before the first step or check."""
    def no_work(*args, **kwargs):
        raise AssertionError("worked before making the output directory")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "_run_one_check", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [command, "--out", str(blocker)]
    if command != "taylor-green":
        text = {"run": RUN_INI, "verify": NS_VERIFY_INI, "convergence": CONV_INI}
        args += ["--config", _write(tmp_path, "c.ini", text[command])]
    assert cli.main(args) == 2
    assert "cannot make output directory" in capsys.readouterr().err


# The [ic] component is judged when the trajectory checks build the initial
# condition, after trilinear has run.
BAD_COMPONENT_VERIFY_INI = """
[grid]
dim = 2
n = 16

[solver]
dt = 0.01
t_end = 0.02

[ic]
family = single_mode
component = 5

[verify]
checks = trilinear, apriori
samples = 3
n = 16
band_limit = 4
"""


@pytest.mark.parametrize("existed", [False, True])
def test_cli_verify_error_removes_only_the_output_directory_it_made(
        tmp_path, capsys, existed):
    cfg = _write(tmp_path, "c.ini", BAD_COMPONENT_VERIFY_INI)
    out = tmp_path / "o"
    if existed:
        out.mkdir()
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "component must be in [0, 2)" in capsys.readouterr().err
    assert out.exists() == existed


@pytest.mark.parametrize("command,name", [
    ("run", "diagnostics.tsv"), ("verify", "verify_report.txt"),
    ("convergence", "convergence_dt.tsv"), ("taylor-green", "diagnostics.tsv")])
def test_cli_unwritable_output_file_exit_2(tmp_path, capsys, command, name):
    """An output file that cannot be written (here a directory stands at its
    path) is an error of exit 2 that names it, not a raw OSError."""
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    args = [command, "--out", str(out)]
    if command != "taylor-green":
        text = {"run": RUN_INI, "verify": NS_VERIFY_INI, "convergence": CONV_INI}
        args += ["--config", _write(tmp_path, "c.ini", text[command])]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_allocation_failure_exit_2(tmp_path, capsys, monkeypatch, command):
    # An array the config asks for that does not fit in memory is a config
    # error: one error line, exit 2 and no directory.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 116. TiB for an array")

    monkeypatch.setattr(RunConfig, "problem", too_large)
    monkeypatch.setattr(cli, "_run_one_check", too_large)
    text = {"run": RUN_INI, "verify": NS_VERIFY_INI}[command]
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 116. TiB for an array\n"
    assert not out.exists()


def test_cli_library_error_exit_1(tmp_path, capsys, monkeypatch):
    # A library error that is neither a config error nor a blow-up (here a
    # broken operator contract) ends in one error line and exit 1, the
    # status of a failed check, not in a traceback.
    def violated(*args, **kwargs):
        raise ContractViolationError("stokes operator requires a divergence-free field")

    monkeypatch.setattr(RunConfig, "problem", violated)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", _write(tmp_path, "c.ini", RUN_INI),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: stokes operator requires a divergence-free field\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "convergence"])
def test_cli_empty_output_directory_exit_2(tmp_path, capsys, command):
    text = {"run": RUN_INI, "convergence": CONV_INI}[command]
    cfg = _write(tmp_path, "c.ini", text + "\n[output]\ndirectory =\n")
    assert cli.main([command, "--config", cfg]) == 2
    assert "cannot make output directory ''" in capsys.readouterr().err


def test_cli_run_on_the_smallest_grid_ignores_the_verify_band(tmp_path):
    # [verify] band_limit defaults to 8, above N/2 of [grid] n = 8; only a
    # verify session that draws on [grid] is bound by it.
    cfg = _write(tmp_path, "n8.ini",
                 "[grid]\nn = 8\n\n[solver]\ndt = 0.01\nt_end = 0.02\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


# [grid] n = 8 with the default [verify] band_limit = 8, above its N/2.
N8_VERIFY_INI = """
[grid]
n = 8

[params]
mu = 0.5
beta = {beta}
r = 4.0

[solver]
dt = 0.002
t_end = 0.01

[ic]
family = random
band_limit = 4

[verify]
checks = {checks}
samples = 3
n = 16
"""


def test_cli_verify_band_above_grid_nyquist_exit_2_before_any_check(
        tmp_path, capsys):
    cfg = _write(tmp_path, "v.ini", N8_VERIFY_INI.format(beta=1.0, checks="all"))
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "verify.band_limit 8 exceeds N/2 = 4" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command,section,text", [
    ("run", "ic", "[ic]\nfamily = random\n"),
    ("run", "forcing", "[forcing]\nkind = steady\nfamily = random\n"),
    ("verify", "verify", "[verify]\nchecks = trilinear\n"),
], ids=["ic", "forcing", "verify"])
@pytest.mark.parametrize("band_limit,bound", [(17, "exceeds N/2 = 16"),
                                              (0, "is below 1")],
                         ids=["above", "below"])
def test_cli_band_limit_checked_at_load(tmp_path, capsys, command, section, text,
                                        band_limit, bound):
    # One band rule for every random field, 1 <= band_limit <= N/2 of the
    # grid it is drawn on ([grid] n = 32 here, [verify] n = 32 by default),
    # checked at load: exit 2 naming the key, and no output directory.
    text = MINIMAL + f"\n{text}band_limit = {band_limit}\n"
    message = f"{section}.band_limit {band_limit} {bound}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_text(text)
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("command,text,args,key", [
    ("run", "[ic]\nfamily = random\nseed = -3\n", [], "ic.seed"),
    ("run", "[forcing]\nkind = steady\nfamily = random\nseed = -2\n", [],
     "forcing.seed"),
    ("verify", "[verify]\nchecks = trilinear\nseed = -4\n", [], "verify.seed"),
    ("verify", "[verify]\nchecks = trilinear\n", ["--seed", "-7"],
     "verify.seed"),
], ids=["ic", "forcing", "verify", "verify_flag"])
def test_cli_negative_seed_exit_2_before_any_output(tmp_path, capsys, command,
                                                    text, args, key):
    # A seed is a non-negative integer, the domain of numpy's generators:
    # exit 2 naming the key, and no output directory.
    out = tmp_path / "o"
    cfg = _write(tmp_path, "c.ini", MINIMAL + "\n" + text)
    assert cli.main([command, "--config", cfg, "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and not out.exists()


def test_cli_verify_band_above_grid_nyquist_skipped_check_runs(tmp_path,
                                                               capsys):
    # beta = 0: continuous_dependence is a REGIME-SKIP and draws nothing.
    cfg = _write(tmp_path, "v.ini", N8_VERIFY_INI.format(
        beta=0.0, checks="continuous_dependence"))
    assert cli.main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
    assert "REGIME-SKIP" in capsys.readouterr().out


def test_cli_verify_empty_output_directory_prints_only(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "v.ini", NS_VERIFY_INI.replace(
        "checks = all", "checks = gronwall") + "\n[output]\ndirectory =\n")
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "check gronwall" in capsys.readouterr().out
    assert os.listdir(tmp_path) == ["v.ini"]


CONV_INI = """
[grid]
n = 32

[params]
mu = 0.2
beta = 0.0
r = 3.0

[solver]
t_end = 0.1
scheme = imex_euler

[ic]
family = single_mode
mode = 0, 1
component = 0

[convergence]
dts = 0.004, 0.002, 0.001
metric = exact
"""


def test_cli_convergence_single_mode_first_order(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.ini", CONV_INI)
    out = str(tmp_path / "cout")
    assert cli.main(["convergence", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "cout" / "convergence_dt.tsv").read_text().splitlines()
    assert rows[0] == "dt\terror\torder"
    orders = [float(line.split("\t")[2]) for line in rows[2:]]
    assert all(0.9 < p < 1.1 for p in orders)


@pytest.mark.parametrize("command", ["run", "verify", "convergence"])
def test_old_closed_form_metric_names_exit_2_at_load(tmp_path, capsys, command):
    # The two closed-form metrics are one, exact; their old names lie
    # outside the domain under every command, before any directory.
    for metric in ("taylor_green", "single_mode"):
        text = CONV_INI.replace("metric = exact", f"metric = {metric}")
        out = tmp_path / metric
        assert cli.main([command, "--config", _write(tmp_path, "c.ini", text),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"convergence.metric: value {metric!r} out of domain" in err
        assert not out.exists()


@pytest.mark.parametrize("metric,ic", [
    ("exact", "family = taylor_green"),
    ("exact", "family = single_mode\nmode = 0, 1"),
])
def test_cli_convergence_metric_checked_before_any_step(tmp_path, monkeypatch,
                                                        metric, ic):
    def no_run(*args, **kwargs):
        raise AssertionError("stepped before the metric was checked")

    monkeypatch.setattr(cli, "run", no_run)
    config = config_from_text(MINIMAL + f"""
[ic]
{ic}

[convergence]
dts = 0.004, 0.002, 0.001
metric = {metric}
""")
    with pytest.raises(ConfigError, match=f"{metric} metric needs beta"):
        cli.cmd_convergence(config, out_dir=str(tmp_path / "c"))


def test_cli_convergence_short_ladder_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.ini",
                 CONV_INI.replace("0.004, 0.002, 0.001", "0.004, 0.002"))
    assert cli.main(["convergence", "--config", cfg,
                     "--out", str(tmp_path / "c2")]) == 2


@pytest.mark.parametrize("key,ladder", [
    ("ns", "8, 8, 8"), ("ns", "8, 12, 8, 12"), ("dts", "0.004, 0.002, 0.004"),
])
def test_cli_convergence_ladder_needs_3_distinct_entries(tmp_path, capsys, key,
                                                         ladder):
    # Repeated sizes compare a run with itself: a config error at load.
    text = CONV_INI.replace("dts = 0.004, 0.002, 0.001", f"{key} = {ladder}")
    with pytest.raises(ConfigError, match=f"^convergence.{key} needs at least 3 "):
        config_from_text(text)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "conv.ini", text),
                     "--out", str(out)]) == 2
    assert f"convergence.{key}" in capsys.readouterr().err and not out.exists()


def _no_run(*args, **kwargs):
    raise AssertionError("stepped a config that should exit 2")


# A random [ic] of band 4 on [grid] n = 16, for the ladder tests below.
LADDER_INI = """
[grid]
n = 16

[solver]
dt = 0.002
t_end = 0.01

[ic]
family = random
band_limit = 4

[convergence]
metric = energy_residual
"""


@pytest.mark.parametrize("entry,message", [
    ("ns = 8, 10, 7", "convergence.ns: n_points must be even and >= 8, got 7"),
    ("ns = 8, 12, 6", "convergence.ns: n_points must be even and >= 8, got 6"),
    ("dts = 0.004, 0.002, -0.001", "convergence.dts: dt must be positive, got -0.001"),
    ("dts = 0.004, 0.002, 0", "convergence.dts: dt must be positive, got 0.0"),
])
def test_cli_convergence_ladder_entries_checked_at_load(tmp_path, capsys,
                                                        monkeypatch, entry,
                                                        message):
    # Each N entry is built as a grid and each dt entry as a solver config
    # at load, so no rung runs and no output directory is made.
    text = LADDER_INI + entry + "\n"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_text(text)
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("n", [7, 6])
def test_verify_n_is_checked_as_a_grid(tmp_path, capsys, monkeypatch, n):
    text = MINIMAL + f"\n[verify]\nchecks = trilinear\nn = {n}\n"
    message = f"verify.n: n_points must be even and >= 8, got {n}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_text(text)
    monkeypatch.setattr(cli, "_run_one_check", _no_run)
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", _write(tmp_path, "v.ini", text),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("metric,message", [
    ("exact", "exact metric needs beta = 0, ic.family = taylor_green or single_mode"),
])
def test_cli_convergence_metric_checked_before_its_directory(
        tmp_path, capsys, monkeypatch, metric, message):
    # beta = 1 by default, and [ic] is random: exit 2, nothing made or run.
    text = LADDER_INI.replace("energy_residual", metric) + "dts = 0.004, 0.002, 0.001\n"
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()


def _exact_ladder(metric, **sections):
    """A closed-form dt ladder of ``metric``: 2D N = 16, mu = 0.1, beta = 0,
    the Taylor-Green [ic] and no forcing, with the lines of ``sections``
    (name -> text) added."""
    text = {"grid": "n = 16\n", "params": "mu = 0.1\nbeta = 0.0\n",
            "solver": "t_end = 0.1\n",
            "convergence": f"dts = 0.02, 0.01, 0.005\nmetric = {metric}\n"}
    for name, lines in sections.items():
        text[name] = text.get(name, "") + lines
    return "".join(f"[{name}]\n{lines}" for name, lines in text.items())


STEADY_KOLMOGOROV = "kind = steady\nfamily = kolmogorov\n"


@pytest.mark.parametrize("metric,sections,warns", [
    ("exact", {"ic": "family = random\nband_limit = 4\n"}, False),
    ("exact", {"forcing": STEADY_KOLMOGOROV}, False),
    ("exact", {"ic": "family = single_mode\nmode = 1, 2\n",
                     "forcing": STEADY_KOLMOGOROV}, True),
    # |m_1| = 6 lies outside the dealiased band |m_i| <= 5
    ("exact", {"ic": "family = single_mode\nmode = 6, 0\ncomponent = 1\n"},
     False),
    # a gradient, which the projection takes to zero
    ("exact", {"ic": "family = single_mode\nmode = 0, 1\ncomponent = 1\n"},
     True),
    # the Taylor-Green modes have |m|^2 = 2, outside the ball
    ("exact", {"solver": "galerkin_n = 1\ngalerkin_shape = ball\n"}, False),
], ids=["random-ic", "forced", "single-mode-forced", "off-band", "gradient",
        "ball"])
def test_cli_convergence_closed_form_rule(tmp_path, capsys, monkeypatch, metric,
                                          sections, warns):
    # The exact solution through the initial state holds only at beta = 0,
    # for the metric's own [ic] family, unforced, from a state that keeps
    # energy once projected and banded: otherwise exit 2, naming the
    # metric, before any step or directory.
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    cfg = _write(tmp_path, "c.ini", _exact_ladder(metric, **sections))
    with (pytest.warns(UserWarning, match="not divergence-free") if warns
          else contextlib.nullcontext()):
        assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    message = (f"{metric} metric needs beta = 0, ic.family = taylor_green or single_mode, "
               "unforced (forcing.kind = zero), from an initial state with energy")
    assert message in capsys.readouterr().err and not out.exists()


def test_cli_convergence_taylor_green_exact_through_the_start(tmp_path):
    # The exact solution decays the initial state at mu*lam + alpha:
    # second order at alpha = 0.5, and at amplitude 2 the relative errors
    # of amplitude 1.
    tables = []
    for name, sections in (("unit", {}), ("double", {"ic": "amplitude = 2\n"}),
                           ("darcy", {"params": "alpha = 0.5\n"})):
        cfg = _write(tmp_path, f"{name}.ini", _exact_ladder("exact", **sections))
        assert cli.main(["convergence", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "convergence_dt.tsv").read_text().splitlines()
        tables.append(np.array([line.split("\t") for line in lines[1:]], float))
    unit, double, darcy = tables
    np.testing.assert_allclose(double[:, 1], unit[:, 1], rtol=1e-9)
    assert list(darcy[1:, 2] > 1.9) == [True, True]


@pytest.mark.parametrize("ic", ["family = taylor_green\n",
                                "family = single_mode\nmode = 0, 2\n"],
                         ids=["taylor_green", "single_mode"])
def test_cli_convergence_exact_ladders_second_order(tmp_path, ic):
    # One metric for either closed form: cnab2 is second order against it.
    cfg = _write(tmp_path, "c.ini", _exact_ladder("exact", ic=ic))
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "convergence_dt.tsv").read_text().splitlines()[2:]
    assert [float(row.split("\t")[2]) >= 1.9 for row in rows] == [True, True]


def test_cli_convergence_exact_solution_underflow_exit_2(tmp_path, capsys,
                                                        monkeypatch):
    # mu*lam*t_end = 10 * 49 * 1.6 = 784 and e^{-784} is 0 in a float, so
    # every rung would read inf: exit 2, naming the metric, before any step
    # or directory.
    text = ("[grid]\nn = 32\n[params]\nmu = 10\nbeta = 0.0\n[solver]\nt_end = 1.6\n"
            "[ic]\nfamily = single_mode\nmode = 7, 0\ncomponent = 1\n"
            "[convergence]\ndts = 0.02, 0.01, 0.005\nmetric = exact\n")
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exact metric: the exact solution underflows by t_end = 1.6" in err
    assert not out.exists()


def test_cli_convergence_stiff_exact_ladder_exit_2(tmp_path, capsys, monkeypatch):
    # The mode of the underflow case above at t_end = 1.4, where e^{-686} is
    # a normal float: z = mu*lam*dt = 10 * 49 * 0.02 = 9.8 on the largest
    # rung, where cnab2 flips the mode's sign each step (its rungs read
    # errors of 1e284, 1e244 and 1e55): exit 2, naming the metric, z and
    # dt, before any step or directory.
    text = ("[grid]\nn = 32\n[params]\nmu = 10\nbeta = 0.0\n[solver]\nt_end = 1.4\n"
            "[ic]\nfamily = single_mode\nmode = 7, 0\ncomponent = 1\n"
            "[convergence]\ndts = 0.02, 0.01, 0.005\nmetric = exact\n")
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exact metric: (mu*lam + alpha)*dt = 9.8 >= 2 at dt = 0.02" in err
    assert not out.exists()


def test_cli_convergence_needs_a_ladder(tmp_path, capsys, monkeypatch):
    # Neither dts nor ns: exit 2, with nothing run or made.
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", LADDER_INI),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "convergence needs a dt ladder or an N ladder" in err and not out.exists()


@pytest.mark.parametrize("section", ["ic", "forcing"])
def test_cli_convergence_n_ladder_ends_on_the_snapshot_grid(tmp_path, capsys,
                                                            monkeypatch, section):
    # A snapshot field lies on [grid], n = 16, so an N ladder that ends on
    # another grid exits 2 before anything runs or is made, naming
    # convergence.ns and both N; one that ends on n = 16 runs, as run does.
    grid = TorusGrid(dim=2, n_points=16)
    write_snapshot_file(tmp_path / "f.snap", random_band_limited(grid, seed=3,
                                                                 band_limit=4),
                        0.0, CbfParams())
    spec = {"ic": "[ic]\nfamily = snapshot\nsnapshot = f.snap\n",
            "forcing": "[forcing]\nkind = steady\nsnapshot = f.snap\n"}[section]
    text = ("[grid]\nn = 16\n[solver]\ndt = 0.002\nt_end = 0.004\n" + spec
            + "[convergence]\nmetric = energy_residual\n")
    cfg = _write(tmp_path, "c.ini", text + "ns = 16, 24, 32\n")
    runs = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    message = "convergence.ns: the finest N = 32 is not [grid] n = 16"
    assert message in capsys.readouterr().err and not out.exists() and runs == []
    assert cli.main(["convergence", "--config", _write(
        tmp_path, "d.ini", text + "ns = 8, 12, 16\n"), "--out", str(out)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("ladder", ["dts = 0.004, 0.002, 0.001", "ns = 8, 12, 16"],
                         ids=["dt", "n"])
def test_cli_convergence_builds_its_fields_before_its_directory(
        tmp_path, capsys, monkeypatch, ladder):
    # The config loads (a family's arguments are checked when it is built),
    # but no single-mode field on a 2D grid has component 5.
    text = ("[grid]\nn = 16\n[params]\nbeta = 0.0\n"
            "[solver]\ndt = 0.002\nt_end = 0.01\n"
            "[ic]\nfamily = single_mode\ncomponent = 5\n"
            f"[convergence]\n{ladder}\nmetric = energy_residual\n")
    monkeypatch.setattr(cli, "run", _no_run)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ic: component must be in [0, 2), got 5" in err and not out.exists()


def test_cli_convergence_taylor_green_second_order(tmp_path):
    # The default metric: the error against the closed form, under cnab2.
    text = ("[grid]\nn = 16\n[params]\nmu = 0.1\nbeta = 0.0\n"
            "[solver]\nt_end = 0.1\n[convergence]\ndts = 0.02, 0.01, 0.005\n")
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", _write(tmp_path, "c.ini", text),
                     "--out", str(out)]) == 0
    rows = (out / "convergence_dt.tsv").read_text().splitlines()[2:]
    assert [float(row.split("\t")[2]) > 1.9 for row in rows] == [True, True]


@pytest.mark.parametrize("section,text", [
    ("ic", "[ic]\nfamily = random\nband_limit = 8\n"),
    ("forcing", "[forcing]\nkind = steady\nfamily = random\nband_limit = 8\n"),
])
def test_cli_convergence_band_checked_on_the_finest_ladder_grid(
        tmp_path, capsys, monkeypatch, section, text):
    # [grid] n = 16 admits band 8, the N ladder's finest grid, n = 12, where
    # the field is drawn, does not: convergence exits 2 before it makes or
    # runs anything. The config still loads, and run draws on [grid].
    text = ("[grid]\nn = 16\n\n[solver]\ndt = 0.002\nt_end = 0.004\n\n" + text
            + "\n[convergence]\nns = 8, 10, 12\nmetric = energy_residual\n")
    cfg = _write(tmp_path, "c.ini", text)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    message = f"{section}.band_limit 8 exceeds N/2 = 6"
    assert message in capsys.readouterr().err and not out.exists() and runs == []
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert len(runs) == 1


def test_cli_taylor_green_subcommand(tmp_path, capsys):
    out = str(tmp_path / "tg")
    assert cli.main(["taylor-green", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "max pointwise relative error" in captured
    err = float(captured.split("error at t=1:")[1].split()[0])
    assert err < 1e-6
    assert os.path.exists(os.path.join(out, "final_state.snap"))
    rows = (tmp_path / "tg" / "diagnostics.tsv").read_text().splitlines()[1:]
    energies = [float(line.split("\t")[1]) for line in rows]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_cli_convergence_n_ladder(tmp_path):
    text = """
[grid]
n = 32

[params]
mu = 0.2
beta = 1.0
r = 4.0

[solver]
dt = 0.002
t_end = 0.05

[ic]
family = taylor_green

[convergence]
ns = 16, 24, 32, 48
metric = energy_residual
"""
    cfg = _write(tmp_path, "convn.ini", text)
    out = str(tmp_path / "cn")
    assert cli.main(["convergence", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "convergence_n.tsv"))


def test_cli_convergence_n_ladder_compares_one_problem(tmp_path):
    # A random [ic] and [forcing] are built once on the finest grid and
    # restricted to the coarser ones, so the errors fall as N grows.  Drawn
    # anew on each grid, one seed gives unrelated fields: errors near 1.
    text = """
[grid]
n = 32

[params]
mu = 0.2
beta = 1.0
r = 4.0

[solver]
dt = 0.002
t_end = 0.05

[ic]
family = random
band_limit = 4

[forcing]
kind = steady
family = random

[convergence]
ns = 16, 24, 32
metric = energy_residual
"""
    cfg = _write(tmp_path, "convn.ini", text)
    out = tmp_path / "cn"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "convergence_n.tsv").read_text().splitlines()[1:]
    errors = [float(line.split("\t")[1]) for line in rows]
    assert len(errors) == 2 and errors[1] < errors[0] < 1e-3


def test_cli_convergence_ladder_tables_text(tmp_path, capsys):
    # One writer makes both tables: a header, then each rung (a dt to 17
    # digits, an N as an integer), its error to 17 digits, and the order
    # log(e0/e)/log(x0/x) or the ratio e0/e against the rung before, nan on
    # the first rung.
    text = """
[grid]
n = 16

[solver]
dt = 0.002
t_end = 0.02

[ic]
family = random
band_limit = 4

[convergence]
dts = 0.004, 0.002, 0.001
ns = 8, 12, 16
metric = energy_residual
"""
    cfg = _write(tmp_path, "conv.ini", text)
    out = tmp_path / "c"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert len(stdout) == 7
    assert stdout[0] == "dt\terror\torder  (metric: energy_residual)"
    assert stdout[4] == "n\terror (vs finest)"
    cell = re.compile(r"^[1-9]\.\d{17}e[-+]\d\d$")
    for name, header, rungs, rule in (
            ("convergence_dt.tsv", "dt\terror\torder", ["0.004", "0.002", "0.001"],
             lambda e0, e, x0, x: np.log(e0 / e) / np.log(x0 / x)),
            ("convergence_n.tsv", "n\terror\tratio", ["8", "12"],
             lambda e0, e, x0, x: e0 / e)):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        rows = [line.split("\t") for line in lines[1:]]
        assert [float(row[0]) for row in rows] == [float(x) for x in rungs]
        if name == "convergence_n.tsv":
            assert [row[0] for row in rows] == rungs
        else:
            assert all(cell.match(row[0]) for row in rows)
        assert all(cell.match(row[1]) for row in rows)
        assert rows[0][2] == "nan"
        for (x0, e0, _), (x, e, third) in zip(rows, rows[1:]):
            assert third == f"{rule(float(e0), float(e), float(x0), float(x)):.4f}"
