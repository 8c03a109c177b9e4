"""Configuration, snapshot format, diagnostics files, and the CLI surface."""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbftorus import cli
from cbftorus.config import config_from_text, dump_config, load_config
from cbftorus.errors import ConfigError, SnapshotFormatError
from cbftorus.families import random_band_limited
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams
from cbftorus.snapshot import MAGIC, read_snapshot_file, write_snapshot_file
from cbftorus.solver import DiagnosticsSample, SolverConfig, run
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


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError, match="unknown key params.viscosity"):
        config_from_text("[params]\nviscosity = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[turbulence\]"):
        config_from_text("[turbulence]\nles = yes\n")


def test_parse_error_reported():
    with pytest.raises(ConfigError, match="parse error"):
        config_from_text("[grid\nn = 32\n")


def test_config_round_trip(tmp_path):
    config = config_from_text(MINIMAL)
    path = tmp_path / "effective.ini"
    dump_config(config, path)
    reloaded = load_config(path)
    assert reloaded.values == config.values
    assert dump_config(reloaded) == dump_config(config)


def test_missing_snapshot_path_rejected(tmp_path):
    text = MINIMAL + "\n[ic]\nfamily = snapshot\nsnapshot = missing.snap\n"
    with pytest.raises(ConfigError, match="not resolvable"):
        config_from_text(text, base_dir=str(tmp_path))


def test_unknown_check_rejected():
    with pytest.raises(ConfigError, match="unknown check"):
        config_from_text("[verify]\nchecks = bogus\n")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_snapshot_reader_fuzz_raises_only_format_error(tmp_path, data):
    good = _snapshot_bytes(tmp_path)
    blob = data.draw(corrupted_snapshots(good))
    path = tmp_path / "fuzz.snap"
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


# ---------------------------------------------------------------------------
# diagnostics files


def test_diagnostics_header_documented_order(tmp_path, grid32):
    ic = random_band_limited(grid32, seed=35, band_limit=6)
    config = SolverConfig(dt=1e-3, t_end=5e-3, diagnostics_every=1)
    _, diagnostics, _ = run(ic, CbfParams(mu=0.5, beta=1.0, r=4.0), config)
    path = tmp_path / "diag.tsv"
    cli.write_diagnostics(diagnostics, path)
    header = path.read_text().splitlines()[0]
    assert header == "\t".join(DiagnosticsSample.BASE_COLUMNS)
    assert header.split("\t") == [
        "t", "energy", "v_seminorm_sq", "v_norm_sq", "lr1_norm",
        "forcing_power", "energy_residual", "int_dissipation", "int_damping",
        "int_forcing"]


def test_extended_diagnostics_columns(tmp_path, grid32):
    ic = random_band_limited(grid32, seed=36, band_limit=6)
    config = SolverConfig(dt=1e-3, t_end=2e-3, diagnostics_every=1)
    _, diagnostics, _ = run(ic, CbfParams(mu=0.5, beta=1.0, r=4.0), config,
                            extended=True)
    path = tmp_path / "diag.tsv"
    cli.write_diagnostics(diagnostics, path)
    header = path.read_text().splitlines()[0].split("\t")
    assert header[-4:] == ["a_norm_sq", "weighted_grad_sq", "int_a_norm_sq",
                           "int_weighted_grad_sq"]


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
    ("ic", "family = single_mode\ncomponent = 5"),
    ("ic", "family = random\namplitude = nan"),
    ("ic", "family = single_mode\nmode = 0, 99"),  # would alias at N = 64
    ("forcing", "kind = steady\nfamily = kolmogorov\nmode = 40"),
    ("grid", "l = 1e300"),  # the volume overflows
    ("grid", "l = 1e-320"),  # the wavenumbers overflow
    ("forcing", "kind = steady\namplitude = 1e308"),  # its transform overflows
], ids=["t_end_inf", "component_5", "amplitude_nan", "mode_above_nyquist",
        "forcing_mode_above_nyquist", "period_1e300", "period_1e-320",
        "forcing_amplitude_1e308"])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflow_exits_as_blowup(tmp_path):
    text = """
[grid]
n = 16

[params]
r = 12.0

[ic]
family = random
band_limit = 4
amplitude = 1e30
"""
    cfg = _write(tmp_path, "overflow.ini", text)
    out = tmp_path / "overflow_out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    lines = (out / "diagnostics.tsv").read_text().splitlines()
    assert lines[0].split("\t") == list(DiagnosticsSample.BASE_COLUMNS)
    assert len(lines) == 2 and float(lines[1].split("\t")[0]) == 0.0


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


def test_cli_verify_report_and_regime_skip(tmp_path, capsys):
    cfg = _write(tmp_path, "verify.ini", VERIFY_INI)
    out = str(tmp_path / "vout")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
    report = (tmp_path / "vout" / "verify_report.txt").read_text()
    assert "check trilinear" in report
    assert "REGIME-SKIP" in report  # monotone_critical needs r = 3
    assert "PASS" in report


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


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    failing = CheckReport("trilinear", 1, -1.0, 0, passed=False)
    monkeypatch.setattr(cli.verif, "check_trilinear",
                        lambda *a, **k: failing)
    cfg = _write(tmp_path, "verify.ini", VERIFY_INI.replace(
        "trilinear, interpolation, monotone_critical", "trilinear"))
    assert cli.main(["verify", "--config", cfg, "--out",
                     str(tmp_path / "vf")]) == 1


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
metric = single_mode
"""


def test_cli_convergence_single_mode_first_order(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.ini", CONV_INI)
    out = str(tmp_path / "cout")
    assert cli.main(["convergence", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "cout" / "convergence_dt.tsv").read_text().splitlines()
    assert rows[0] == "dt\terror\torder"
    orders = [float(line.split("\t")[2]) for line in rows[2:]]
    assert all(0.9 < p < 1.1 for p in orders)


def test_cli_convergence_short_ladder_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.ini",
                 CONV_INI.replace("0.004, 0.002, 0.001", "0.004, 0.002"))
    assert cli.main(["convergence", "--config", cfg,
                     "--out", str(tmp_path / "c2")]) == 2


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
