import argparse
import csv
import dataclasses
import itertools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sfwmsim.cli
import sfwmsim.filtering
import sfwmsim.metrics
from sfwmsim import (MODEL_NAMES, ConfigError, FilterPair, JointAmplitudeMatrix,
                     SpectralGrid, TemporalGrid, config_from_dict, filtered_jta,
                     gaussian_eta, gaussian_nu, gaussian_purity, jta_to_jsa,
                     load_config, marginal_spectrum, validate_config)
from sfwmsim.cli import build_diagonal_jta, export_matrix, main
from oracles import read_matrix_coords, schmidt_spectrum
from conftest import break_propagate_power, make_filters, make_pump, make_waveguide

BASE = {
    "pump": {"P0": 0.1, "sigma_t": 1.0},
    "waveguide": {"gamma": 1.0, "length": 1.0},
    "filters": {
        "signal": {"shape": "gaussian", "sigma_f": 0.25},
        "idler": {"shape": "gaussian", "sigma_f": 0.25},
    },
    "grid": {"n_points": 128},
    "model": "linear",
}

OUTPUT_FILES = ["metrics.json", "jta.csv", "jta_magnitude.csv", "jta_phase.csv",
                "jsa.csv", "jsa_magnitude.csv", "jsa_phase.csv",
                "marginal_signal.csv", "marginal_idler.csv"]


def _write_config(tmp_path, raw=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw if raw is not None else BASE, indent=2))
    return str(path)


def test_simulate_writes_everything(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for name in OUTPUT_FILES:
        assert (out / name).exists(), name
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["model"] == "linear"
    assert doc["phi_max"] == pytest.approx(0.1)
    assert doc["lambda"] == pytest.approx(2.0)
    assert doc["mu"] == pytest.approx(2.0)
    assert doc["eta"] == pytest.approx(gaussian_eta(0.1, 2, 2), rel=1e-6)
    assert doc["purity"] == pytest.approx(gaussian_purity(2, 2), abs=1e-5)
    assert doc["nu"] == pytest.approx(gaussian_nu(2, 2), rel=1e-3)
    assert doc["n_schmidt_modes_99"] >= 1
    assert doc["low_excitation_ok"] is True
    assert doc["grid"]["n_points"] == 128
    assert doc["warnings"] == []
    assert len(doc["schmidt_weights"]) <= 16


def test_simulate_underflowing_pump_reports_zero_eta(tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw["pump"]["P0"] = 1e-200
    raw["grid"]["n_points"] = 64
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, raw),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["eta"] == 0.0
    assert doc["purity"] is None and doc["nu"] is None
    assert any("zero pump" in note for note in doc["warnings"])


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("p0", [1e-310, 1e-320, 3e-308])
def test_simulate_a_subnormal_general_quadrature_writes_the_zero_pump_row(
        tmp_path, capsys, p0, lossy):
    """The quadrature check no longer divides by a subnormal scale: no numpy
    warning (an error here), and the underflowing eta is the zero-pump row."""
    raw = json.loads(json.dumps(BASE))
    raw.update(model="general_quadrature", grid={"n_points": 64})
    raw["pump"]["P0"] = p0
    raw["waveguide"]["delta_beta0"] = 3.0
    if lossy:
        raw["waveguide"].update(alpha=20.0, alpha2_P=5.0)
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, raw),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: zero pump power: conditional quantities are undefined\n")
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["eta"] == 0.0 and doc["purity"] is None


def test_exported_matrix_round_trips(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    rows, cols, values = read_matrix_coords(out / "jta.csv")
    assert values.shape == (128, 128)
    assert rows[64] == 0.0 and cols[64] == 0.0
    # repr-based serialization is lossless, so the polar files must equal
    # abs/angle of the coords values bit for bit
    mag = np.loadtxt(out / "jta_magnitude.csv", delimiter=",", skiprows=1)[:, 1:]
    phase = np.loadtxt(out / "jta_phase.csv", delimiter=",", skiprows=1)[:, 1:]
    np.testing.assert_array_equal(mag, np.abs(values))
    np.testing.assert_array_equal(phase, np.angle(values))


def _reference_coordinates(grid):
    return grid.tau if hasattr(grid, "tau") else grid.omega


def _reference_export(matrix, path):
    """The per-element csv.writer loops that used to write the three matrix
    views; the exporter must keep their bytes."""
    cs = ci = _reference_coordinates(matrix.grid)
    vals = matrix.values
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_coord", "col_coord", "re", "im"])
        for j in range(len(cs)):
            rcoord = repr(float(cs[j]))
            row = vals[j]
            for k in range(len(ci)):
                writer.writerow([rcoord, repr(float(ci[k])),
                                 repr(float(row[k].real)),
                                 repr(float(row[k].imag))])
    mag_path = path.with_name(path.stem + "_magnitude.csv")
    phase_path = path.with_name(path.stem + "_phase.csv")
    header = ["coord"] + [repr(float(c)) for c in ci]
    for out_path, table in ((mag_path, np.abs(vals)), (phase_path, np.angle(vals))):
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for j in range(len(cs)):
                writer.writerow([repr(float(cs[j]))]
                                + [repr(float(x)) for x in table[j]])
    return [path, mag_path, phase_path]


def _reference_marginal(path, omega, spectrum):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detuning", "intensity"])
        for w, s in zip(omega, spectrum):
            writer.writerow([repr(float(w)), repr(float(s))])


def _example_matrix(kind):
    pump = make_pump(phi_max=1.0)
    diag = build_diagonal_jta("simple_sxpm", pump, make_waveguide(),
                              TemporalGrid(n_points=16, dt=0.75))
    if kind == "single_sided":
        # a signal-only filtered amplitude: the idler stays on its diagonal
        return filtered_jta(diag, make_filters(2, 0, pump))
    matrix = filtered_jta(diag, make_filters(2, 3, pump))
    return jta_to_jsa(matrix) if kind == "frequency" else matrix


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("kind", ["time", "frequency", "single_sided"])
def test_export_matrix_bytes_match_the_reference_writer(tmp_path, kind):
    matrix = _example_matrix(kind)
    paths = export_matrix(matrix, tmp_path / "m.csv")
    assert [p.name for p in paths] == ["m.csv", "m_magnitude.csv", "m_phase.csv"]
    for new, ref in zip(paths, _reference_export(matrix, tmp_path / "ref.csv")):
        assert new.read_bytes() == ref.read_bytes(), new.name


@pytest.mark.parametrize("kind", ["time", "frequency", "single_sided"])
def test_read_matrix_coords_is_bit_exact(tmp_path, kind):
    matrix = _example_matrix(kind)
    export_matrix(matrix, tmp_path / "m.csv")
    rows, cols, values = read_matrix_coords(tmp_path / "m.csv")
    assert values.shape == matrix.values.shape
    np.testing.assert_array_equal(_bits(values), _bits(matrix.values))
    np.testing.assert_array_equal(_bits(rows), _bits(_reference_coordinates(matrix.grid)))
    np.testing.assert_array_equal(_bits(cols), _bits(_reference_coordinates(matrix.grid)))


EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001,
               9999999999999998.0, 1e16, -1.5e300]


def _edge_matrix(domain):
    """An 8x8 amplitude holding the float reprs that change form (signed zero,
    subnormal, exponent switch) in both parts, on a temporal or spectral grid."""
    grid = TemporalGrid(n_points=8, dt=0.1)
    if domain == "frequency":
        grid = SpectralGrid.conjugate_to(grid)
    re = np.array([np.roll(EDGE_VALUES, k) * (-1.0) ** k for k in range(8)])
    values = np.empty((8, 8), dtype=complex)
    values.real, values.imag = re, re[::-1, ::-1]
    return JointAmplitudeMatrix(grid, values)


@pytest.mark.parametrize("domain", ["time", "frequency"])
def test_export_matrix_edge_values_match_the_reference_writer(tmp_path, domain):
    matrix = _edge_matrix(domain)
    paths = export_matrix(matrix, tmp_path / "m.csv")
    for new, ref in zip(paths, _reference_export(matrix, tmp_path / "ref.csv")):
        assert new.read_bytes() == ref.read_bytes(), new.name
    rows, cols, values = read_matrix_coords(paths[0])
    np.testing.assert_array_equal(_bits(values), _bits(matrix.values))
    np.testing.assert_array_equal(_bits(rows), _bits(_reference_coordinates(matrix.grid)))
    np.testing.assert_array_equal(_bits(cols), _bits(_reference_coordinates(matrix.grid)))
    for part in (values.real, values.imag):
        assert np.any((part == 0.0) & np.signbit(part))


def test_marginal_edge_values_match_the_reference_writer(tmp_path):
    omega = np.array(EDGE_VALUES) * 0.5
    spectrum = np.array(EDGE_VALUES[::-1])
    sfwmsim.cli._write_marginal(tmp_path / "m.csv", omega, spectrum)
    _reference_marginal(tmp_path / "ref.csv", omega, spectrum)
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(_bits(back), _bits(np.column_stack((omega, spectrum))))


def test_export_matrix_writes_at_most_one_row_at_a_time(tmp_path, monkeypatch):
    """Each write holds at most one matrix row of text, so peak memory never
    scales with the whole file."""
    sizes = []

    class Recorder:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

        def write(self, text):
            sizes.append(len(text))
            return self._fh.write(text)

    monkeypatch.setattr(sfwmsim.cli, "open",
                        lambda *a, **k: Recorder(open(*a, **k)), raising=False)
    n = 128
    pump = make_pump(phi_max=1.0)
    diag = build_diagonal_jta("simple_sxpm", pump, make_waveguide(),
                              TemporalGrid(n_points=n, dt=0.125))
    matrix = filtered_jta(diag, make_filters(2, 3, pump))
    paths = export_matrix(matrix, tmp_path / "m.csv")
    assert sum(sizes) == sum(p.stat().st_size for p in paths)
    assert max(sizes) <= n * 100


def test_simulate_csv_files_match_the_reference_writer(tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw["model"] = "simple_sxpm"
    raw["filters"]["idler"]["sigma_f"] = 0.125
    raw["grid"]["n_points"] = 64
    cfg_path = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    diag = build_diagonal_jta(cfg.model, cfg.pump, cfg.waveguide, cfg.grid)
    matrix = filtered_jta(diag,
                          FilterPair(cfg.signal_filter, cfg.idler_filter))
    jsa = jta_to_jsa(matrix)
    ref = tmp_path / "ref"
    ref.mkdir()
    _reference_export(matrix, ref / "jta.csv")
    _reference_export(jsa, ref / "jsa.csv")
    for axis, spectrum in zip(("signal", "idler"), marginal_spectrum(jsa)):
        _reference_marginal(ref / f"marginal_{axis}.csv", jsa.grid.omega, spectrum)
    names = sorted(p.name for p in ref.iterdir())
    assert names == sorted(OUTPUT_FILES[1:])
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_marginals_are_positive_and_peaked_at_zero(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    with open(out / "marginal_signal.csv", newline="") as fh:
        data = list(csv.reader(fh))
    assert data[0] == ["detuning", "intensity"]
    body = np.array([[float(a), float(b)] for a, b in data[1:]])
    assert np.all(body[:, 1] >= 0)
    assert body[np.argmax(body[:, 1]), 0] == pytest.approx(0.0)


def test_validate_ok(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    assert "configuration ok" in capsys.readouterr().out


def test_validate_reports_all_violations(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE))
    raw["pump"]["P0"] = -2.0
    raw["waveguide"]["length"] = 0.0
    cfg = _write_config(tmp_path, raw)
    assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "negative peak power" in err
    assert "nonpositive length" in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_finite_config_number_rejected(tmp_path, capsys, command, value):
    raw = json.loads(json.dumps(BASE))
    raw["pump"]["P0"] = value
    args = [command, "--config", _write_config(tmp_path, raw)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert (f"line 3: pump.P0: expected a finite number, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_non_finite_span_sigmas_flag_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["validate", "--config", cfg, "--span-sigmas", "inf"]) == 2
    err = capsys.readouterr().err
    assert "--span-sigmas: expected a finite number, got inf" in err
    assert "grid.span_sigmas" not in err


def test_accuracy_failure_exit_code(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE))
    raw["waveguide"]["delta_beta0"] = 4e4
    raw["model"] = "general_quadrature"
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "accuracy failure" in capsys.readouterr().err


def test_filesystem_failure_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    blocked = tmp_path / "config.json" / "sub"  # parent is a file
    assert main(["simulate", "--config", cfg, "--out", str(blocked)]) == 4
    assert "filesystem error" in capsys.readouterr().err


def test_grid_point_override(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--grid-points", "256", "--span-sigmas", "10"]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["grid"]["n_points"] == 256
    assert doc["grid"]["span_sigmas"] == 10.0


def test_non_conjugated_eta_flag(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--non-conjugated-eta"]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["eta"] == pytest.approx(-gaussian_eta(0.1, 2, 2), rel=1e-6)
    assert doc["eta_imag"] == pytest.approx(0.0, abs=1e-15)
    assert doc["flags"]["non_conjugated_eta"] is True


@pytest.mark.parametrize("flag", [[], ["--non-conjugated-eta"]])
def test_one_eta_kernel_per_configuration(tmp_path, monkeypatch, flag):
    """The README config at P0 = 30 W breaks the low-excitation bound, so the
    note needs the conjugated eta too; all forms come from one kernel."""
    calls = []
    real = sfwmsim.metrics.overlap
    monkeypatch.setattr(sfwmsim.metrics, "overlap",
                        lambda *a: calls.append(a) or real(*a))
    raw = {"pump": {"P0": 30.0, "sigma_t": 1.0},
           "waveguide": {"length": 0.005, "gamma": 121.6},
           "filters": BASE["filters"], "grid": {"n_points": 64},
           "model": "simple_sxpm"}
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, raw),
                 "--out", str(out), *flag]) == 0
    assert len(calls) == 2
    doc = json.loads((out / "metrics.json").read_text())
    assert any("exceeds the low-excitation bound" in w for w in doc["warnings"])


@pytest.mark.parametrize("idler", [BASE["filters"]["idler"], {"shape": "none"}],
                         ids=["both_filtered", "signal_only"])
def test_a_sweep_evaluates_overlaps_on_lag_vectors_only(tmp_path, monkeypatch, idler):
    """eta, its resolution sentinel and the single-sided purity sum over the
    lags of a Toeplitz kernel; no N x N overlap matrix is formed."""
    shapes = []
    real = sfwmsim.metrics.overlap
    monkeypatch.setattr(sfwmsim.metrics, "overlap",
                        lambda filt, x: shapes.append(np.shape(x)) or real(filt, x))
    raw = json.loads(json.dumps(BASE))
    raw["filters"]["idler"] = idler
    sweep = _write_sweep(tmp_path, {"parameter": "lambda", "values": [1.0, 2.0],
                                    "models": ["linear", "simple_sxpm"]})
    assert main(["sweep", "--config", _write_config(tmp_path, raw), "--sweep", sweep,
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert shapes
    assert all(shape == (BASE["grid"]["n_points"],) for shape in shapes)


def test_literal_z_flag_changes_lossy_results(tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw["pump"]["P0"] = 1.0
    raw["waveguide"].update({"alpha": 0.2, "alpha2_P": 0.5})
    raw["model"] = "general_quadrature"
    cfg = _write_config(tmp_path, raw)
    etas = {}
    for tag, extra in (("eff", []), ("lit", ["--as-printed-eq9"])):
        out = tmp_path / tag
        assert main(["simulate", "--config", cfg, "--out", str(out)] + extra) == 0
        etas[tag] = json.loads((out / "metrics.json").read_text())["eta"]
    assert etas["eff"] != etas["lit"]


def test_regime_check_report(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE))
    raw["regime_check"] = {"photon_energy": 1.28e-19, "sigma_FCA": 1e-21,
                           "T0": 1e-12, "I0": 1e12}
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["regime_check"]["ratio"] == pytest.approx(128.0)
    assert doc["regime_check"]["passed"] is True
    # failing check warns but does not change the exit code
    raw["regime_check"]["I0"] = 1e14
    cfg2 = _write_config(tmp_path, raw, name="config2.json")
    out2 = tmp_path / "out2"
    assert main(["simulate", "--config", cfg2, "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "metrics.json").read_text())
    assert doc2["regime_check"]["passed"] is False
    assert any("free-carrier" in w for w in doc2["warnings"])


def test_regime_check_with_an_underflowing_denominator(tmp_path, capsys):
    # sigma_FCA * T0 * I0 underflows to 0.0 although every factor is valid
    raw = json.loads(json.dumps(BASE))
    raw["grid"]["n_points"] = 64
    raw["regime_check"] = {"photon_energy": 1.28e-19, "sigma_FCA": 1e-200,
                           "T0": 1e-200, "I0": 1e-10}
    cfg = _write_config(tmp_path, raw)
    assert main(["validate", "--config", cfg]) == 0
    assert "ratio inf (passed)" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["regime_check"] == {"ratio": "inf", "passed": True}


@pytest.mark.parametrize("I0,status", [(1e12, "128 (passed)"), (1e14, "1.28 (FAILED)")])
def test_validate_reports_a_finite_regime_ratio(tmp_path, capsys, I0, status):
    """A finite ratio is printed to 6 significant digits; a failing one also
    warns on stderr, and validate still exits 0."""
    raw = json.loads(json.dumps(BASE))
    raw["regime_check"] = {"photon_energy": 1.28e-19, "sigma_FCA": 1e-21,
                           "T0": 1e-12, "I0": I0}
    assert main(["validate", "--config", _write_config(tmp_path, raw)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"configuration ok\nfree-carrier regime check: ratio {status}\n"
    passed = status.endswith("(passed)")
    assert captured.err == ("" if passed else "warning: free-carrier check failed: "
                            "ratio 1.28 is below threshold 10\n")


def test_the_99_percent_mode_count_matches_the_dense_oracle(tmp_path):
    """lambda = 0.5, mu = 2 on the README pump at phi_max = 0.5: the first
    weight squared lies in [0.98, 0.99), so 99 % takes two modes."""
    raw = json.loads(json.dumps(BASE))
    raw.update(model="linear", grid={"n_points": 256},
               waveguide={"gamma": 121.6, "length": 0.005})
    raw["pump"]["P0"] = 0.5 / (121.6 * 0.005)
    raw["filters"]["signal"]["sigma_f"] = 1.0
    cfg_path = _write_config(tmp_path, raw)
    cfg = load_config(cfg_path)
    diag = build_diagonal_jta(cfg.model, cfg.pump, cfg.waveguide, cfg.grid)
    matrix = filtered_jta(diag, FilterPair(cfg.signal_filter, cfg.idler_filter))
    _, weights = schmidt_spectrum(cfg.grid.tau, cfg.grid.tau, matrix.values)
    power = np.cumsum(weights ** 2)
    assert 0.98 <= power[0] < 0.99
    want = int(np.argmax(power >= 0.99)) + 1
    assert want == 2

    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["n_schmidt_modes_99"] == want
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.5],
                                    "models": ["linear"]})
    rows_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_path, "--sweep", sweep,
                 "--out", str(rows_path)]) == 0
    with open(rows_path, newline="") as fh:
        header, row = list(csv.reader(fh))
    assert row[header.index("n_schmidt_modes_99")] == str(want)


def _write_sweep(tmp_path, raw, name="sweep.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return str(path)


def test_sweep_csv_layout(tmp_path):
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max",
                                    "values": [0.0, 0.05, 0.1],
                                    "models": ["linear", "simple_sxpm"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["phi_max", "model", "eta", "purity", "nu",
                       "n_schmidt_modes_99", "warnings"]
    assert len(rows) == 1 + 3 * 2
    # values outer, models inner
    assert [r[1] for r in rows[1:3]] == ["linear", "simple_sxpm"]
    zero = rows[1]
    assert float(zero[2]) == 0.0
    assert zero[3] == "" and zero[4] == "" and zero[5] == ""
    assert "zero pump" in zero[6]
    lin = rows[5]  # phi = 0.1, linear
    assert float(lin[0]) == 0.1
    assert float(lin[2]) == pytest.approx(gaussian_eta(0.1, 2, 2), rel=1e-6)
    assert float(lin[4]) == pytest.approx(gaussian_nu(2, 2), rel=1e-3)


def test_a_sweep_builds_one_grid_per_value(tmp_path, monkeypatch):
    """The grid depends only on the pump and the filters, so the models of a
    swept value share one; the spec reader's own point checks are not counted."""
    built = []
    real_grid, real_reader = sfwmsim.cli.build_temporal_grid, sfwmsim.cli._load_sweep_spec

    def counting(pump, *args, **kwargs):
        built.append(pump.P0)
        return real_grid(pump, *args, **kwargs)

    def reader(*args):
        spec = real_reader(*args)
        built.clear()
        return spec

    monkeypatch.setattr(sfwmsim.cli, "build_temporal_grid", counting)
    monkeypatch.setattr(sfwmsim.cli, "_load_sweep_spec", reader)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.05, 0.1, 0.2],
                                    "models": list(MODEL_NAMES)})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_config(tmp_path), "--sweep", sweep,
                 "--out", str(out)]) == 0
    assert built == [0.05, 0.1, 0.2]  # gamma = length = 1: P0 is phi_max
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3 * len(MODEL_NAMES)


def test_a_sweep_creates_the_directory_of_its_output(tmp_path):
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.1],
                                    "models": ["linear"]})
    out = tmp_path / "new" / "deeper" / "sweep.csv"
    assert main(["sweep", "--config", _write_config(tmp_path), "--sweep", sweep,
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 2


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
def test_a_general_quadrature_sweep_from_zero_pump(tmp_path, lossy):
    raw = json.loads(json.dumps(BASE))
    if lossy:
        raw["waveguide"].update(alpha=0.2, alpha2_P=0.5)
        raw["model"] = "general_quadrature"
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.0, 1.0],
                                    "models": ["general_quadrature"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_config(tmp_path, raw), "--sweep", sweep,
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        zero, one = list(csv.reader(fh))[1:]
    assert zero == ["0.0", "general_quadrature", "0.0", "", "", "",
                    "zero pump power: conditional quantities are undefined"]
    assert one[:2] == ["1.0", "general_quadrature"] and float(one[2]) > 0.0


def test_main_builds_the_argument_tree_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    sfwmsim.cli.build_parser.cache_clear()
    try:
        cfg = _write_config(tmp_path)
        assert main(["validate", "--config", cfg]) == 0
        assert built
        tree = list(built)
        sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.1],
                                        "models": ["linear"]})
        assert main(["sweep", "--config", cfg, "--sweep", sweep,
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert built == tree
    finally:
        sfwmsim.cli.build_parser.cache_clear()


def test_sweep_range_form(tmp_path):
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "sigma_t",
                                    "start": 0.5, "stop": 1.5, "count": 3,
                                    "models": ["linear"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0, 1.5]


def test_sweep_eta_imag_column(tmp_path):
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max",
                                    "values": [0.1],
                                    "models": ["linear"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out), "--non-conjugated-eta"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["phi_max", "model", "eta", "eta_imag"]
    assert float(rows[1][2]) == pytest.approx(-gaussian_eta(0.1, 2, 2), rel=1e-6)


@pytest.mark.parametrize("bad", [
    {"parameter": "wavelength", "values": [1.0], "models": ["linear"]},
    {"parameter": "phi_max", "values": [0.2, 0.1], "models": ["linear"]},
    {"parameter": "phi_max", "values": [0.1], "start": 0.0, "stop": 1.0,
     "count": 3, "models": ["linear"]},
    {"parameter": "phi_max", "values": [0.1], "models": ["warp"]},
    {"parameter": "phi_max", "values": [], "models": ["linear"]},
    {"parameter": "phi_max", "start": 0.0, "stop": 1.0, "count": 1,
     "models": ["linear"]},
    {"parameter": "phi_max", "values": [0.1], "models": ["linear", "linear"]},
])
def test_sweep_spec_validation(tmp_path, bad, capsys):
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, bad)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 2
    assert "sweep" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, bad_file, line", [
    ("validate", "config", 3), ("simulate", "config", 3),
    ("sweep", "config", 3), ("sweep", "sweep", 7),
])
def test_invalid_utf8_is_a_config_error(tmp_path, capsys, command, bad_file, line):
    cfg_bytes = json.dumps(BASE, indent=2).encode()
    sweep_bytes = json.dumps({"parameter": "phi_max", "values": [0.1],
                              "models": ["linear"]}, indent=2).encode()
    # one 0xff byte inside "P0" (line 3 of the config) or "linear" (line 7 of the sweep)
    if bad_file == "config":
        cfg_bytes = cfg_bytes.replace(b'"P0"', b'"P\xff0"')
    else:
        sweep_bytes = sweep_bytes.replace(b'"linear"', b'"linear\xff"')
    cfg = tmp_path / "config.json"
    cfg.write_bytes(cfg_bytes)
    sweep = tmp_path / "sweep.json"
    sweep.write_bytes(sweep_bytes)
    out = tmp_path / "out"
    args = [command, "--config", str(cfg)]
    if command == "sweep":
        args += ["--sweep", str(sweep)]
    if command != "validate":
        args += ["--out", str(out)]
    assert main(args) == 2
    assert (f"line {line}: invalid UTF-8: invalid start byte (byte 0xff)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ({"values": [0.1, math.nan, 0.3]}, "sweep.values[1]: expected a finite number, got nan"),
    ({"start": "low", "stop": 1.0, "count": 3}, "sweep.start: expected a number, got 'low'"),
    ({"start": 0.0, "stop": math.inf, "count": 3},
     "sweep.stop: expected a finite number, got inf"),
])
def test_sweep_rejects_bad_numbers(tmp_path, capsys, spec, message):
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "models": ["linear"], **spec})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 2
    key = message.split(":")[0].removeprefix("sweep.").split("[")[0]
    lines = (tmp_path / "sweep.json").read_text().splitlines()
    line = 1 + next(i for i, text in enumerate(lines) if f'"{key}"' in text)
    assert f"line {line}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("limit, spec, message", [
    (None, {"start": 0.0, "stop": 1.0, "count": 50_001},
     "sweep.count: 50001 values x 2 models is over the limit of 100000 points"),
    (3, {"start": 0.0, "stop": 1.0, "count": 2},
     "sweep.count: 2 values x 2 models is over the limit of 3 points"),
    (3, {"values": [0.1, 0.2]}, "sweep.values: 2 values x 2 models is over the limit of 3 points"),
])
def test_sweep_rejects_too_many_points_before_building_any(tmp_path, capsys, monkeypatch,
                                                           limit, spec, message):
    monkeypatch.setattr(sfwmsim.cli, "_sweep_variant", _unreachable)
    if limit is not None:
        monkeypatch.setattr(sfwmsim.cli, "_SWEEP_MAX_POINTS", limit)
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", **spec,
                                    "models": ["linear", "sinc"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", sweep, "--out", str(out)]) == 2
    key = message.split(":")[0].removeprefix("sweep.")
    lines = (tmp_path / "sweep.json").read_text().splitlines()
    line = 1 + next(i for i, text in enumerate(lines) if f'"{key}"' in text)
    assert capsys.readouterr().err == f"configuration invalid:\n  line {line}: {message}\n"
    assert not out.exists()


def _unreachable(*args, **kwargs):
    raise AssertionError("a sweep point was built")


def test_sweep_lambda_requires_positive_values(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "lambda",
                                    "values": [-1.0, 2.0],
                                    "models": ["linear"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 2


def test_sweep_rejects_a_bad_point_before_evaluating_any(tmp_path, capsys,
                                                        monkeypatch):
    calls = []
    real = sfwmsim.cli._evaluate
    monkeypatch.setattr(sfwmsim.cli, "_evaluate",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    raw = json.loads(json.dumps(BASE))
    raw["waveguide"]["alpha"] = 20.0
    raw["model"] = "general_quadrature"
    cfg = _write_config(tmp_path, raw)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.1],
                                    "models": ["general_quadrature", "linear"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", sweep,
                 "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()
    assert capsys.readouterr().err == ("configuration invalid:\n  line 6: sweep.models: "
                                       "model 'linear': lossy medium requires "
                                       "general_quadrature\n")


_SWEEP_CONFIGS = {
    "base": config_from_dict({**BASE, "grid": {"n_points": 64}}),
    "lossy": config_from_dict({**BASE, "grid": {"n_points": 64},
                               "waveguide": {"gamma": 1.0, "length": 1.0, "alpha": 20.0},
                               "model": "general_quadrature"}),
    "gamma_zero": config_from_dict({**BASE, "grid": {"n_points": 64},
                                    "waveguide": {"gamma": 0.0, "length": 1.0}}),
    "gamma_length_tiny": config_from_dict({**BASE, "grid": {"n_points": 64},
                                           "waveguide": {"gamma": 1e-300, "length": 1e-10}}),
    "sigma_t_large": config_from_dict({**BASE, "grid": {"n_points": 64},
                                       "pump": {**BASE["pump"], "sigma_t": 1e100}}),
}
# magnitudes out to 1e+-300 as well, whose squares and quotients leave the float range
_SWEPT = st.one_of(st.floats(0.0, 3.0), st.floats(allow_nan=False, allow_infinity=False),
                   st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.0, 9.0),
                             st.integers(-300, 300)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(config=st.sampled_from(sorted(_SWEEP_CONFIGS)),
       parameter=st.sampled_from(["phi_max", "lambda", "mu", "sigma_t", "delta_beta0"]),
       points=st.one_of(
           st.lists(_SWEPT, min_size=1, max_size=3, unique=True).map(
               lambda vs: {"values": sorted(vs)}),
           st.tuples(_SWEPT, _SWEPT, st.integers(2, 4)).map(
               lambda r: {"start": min(r[:2]), "stop": max(r[:2]), "count": r[2]})),
       models=st.lists(st.sampled_from(MODEL_NAMES), min_size=1, max_size=2, unique=True))
def test_every_point_of_an_accepted_sweep_is_a_valid_config(config, parameter, points,
                                                           models):
    # the spec reader is the only check a sweep makes, so it must admit no
    # point that validate_config would reject, and anchor each problem it finds
    cfg = _SWEEP_CONFIGS[config]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps({"parameter": parameter, **points, "models": models}))
        try:
            param, values, accepted = sfwmsim.cli._load_sweep_spec(path, cfg)
        except ConfigError as exc:
            assert str(exc).startswith("invalid sweep:\n")
            assert all(re.match(r"line \d+: sweep\.", v) for v in exc.violations), exc
            return
    for value, model in itertools.product(values, accepted):
        point = sfwmsim.cli._sweep_variant(cfg, param, value)
        assert validate_config(dataclasses.replace(point, model=model)) == []


def test_sweep_accuracy_failure_propagates(tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw["waveguide"]["delta_beta0"] = 4e4
    cfg = _write_config(tmp_path, raw)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max",
                                    "values": [0.1],
                                    "models": ["general_quadrature"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--sweep", str(sweep),
                 "--out", str(out)]) == 3


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("p0, eta", [(1e153, "inf"), (5e153, "nan")])
def test_a_warning_raised_while_evaluating_reaches_the_caller(tmp_path, capsys, command,
                                                              p0, eta):
    """A peak phase this close to the square root of the largest double passes
    the config's scale check, but the squared amplitude overflows in the eta
    lag sum: numpy's RuntimeWarning reaches the caller, and the non-finite eta
    is an accuracy failure, not a number written out."""
    raw = {**BASE, "pump": {"P0": p0, "sigma_t": 1.0}, "grid": {"n_points": 64}}
    argv = [command, "--config", _write_config(tmp_path, raw),
            "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--sweep", _write_sweep(tmp_path, {"parameter": "phi_max", "values": [p0],
                                                    "models": ["linear"]})]
    with pytest.warns(RuntimeWarning) as caught:
        assert main(argv) == 3
    assert any("overflow" in str(w.message) for w in caught)
    assert capsys.readouterr().err == (f"accuracy failure: eta is {eta}: the pair "
                                       "amplitude overflows double precision\n")
    assert not (tmp_path / "out").exists()


def test_an_overflowing_spectral_amplitude_exits_3_and_writes_nothing(tmp_path, capsys):
    """A pulse this long would overflow the JSA, but its grid is far too coarse
    for the filters: nu leaves [0, 1], and simulate stops there, before it
    builds any matrix."""
    raw = {**BASE, "pump": {"P0": 0.1, "sigma_t": 1e150}, "grid": {"n_points": 64}}
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, raw),
                 "--out", str(out)]) == 3
    assert re.fullmatch(r"accuracy failure: nu is 2\.49\d*e\+148, outside its physical "
                        r"range \[0, 1\]: the grid may not resolve the pulse or the "
                        r"filters\n", capsys.readouterr().err)
    assert not out.exists()


def test_nu_above_1_on_a_coarse_grid_exits_3_and_writes_nothing(tmp_path, capsys):
    """sigma_f = 50 on both sides (lambda = mu = 0.01) with the README pump at
    N = 256: the grid is sized by the pulse, dt sigma_f = 3.1, and nu reads 1.2468."""
    wide = {"shape": "gaussian", "sigma_f": 50.0}
    raw = {**_README_64, "filters": {"signal": wide, "idler": wide},
           "grid": {"n_points": 256}}
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, raw),
                 "--out", str(out)]) == 3
    assert re.fullmatch(r"accuracy failure: nu is 1\.2468\d*, outside its physical range "
                        r"\[0, 1\]: the grid may not resolve the pulse or the "
                        r"filters\n", capsys.readouterr().err)
    assert not out.exists()


def test_a_sweep_point_with_nu_above_1_exits_3_and_writes_nothing(tmp_path, capsys):
    raw = {**BASE, "grid": {"n_points": 64}}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_config(tmp_path, raw), "--sweep",
                 _write_sweep(tmp_path, {"parameter": "sigma_t", "values": [1.0, 1e150],
                                         "models": ["linear"]}),
                 "--out", str(out)]) == 3
    assert re.fullmatch(r"accuracy failure: nu is 2\.49\d*e\+148, outside its physical "
                        r"range \[0, 1\]: the grid may not resolve the pulse or the "
                        r"filters\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("field, value, accepted", [
    ("purity", 1.0 + 3 * 2.0 ** -52, True),  # as far as a single-sided purity rounds up
    ("purity", 1.0 + 1e-9, False),
    ("purity", 0.0, False),
    ("nu", 1.0 + 4 * 2.0 ** -52, True),
    ("nu", 1.0 + 1e-9, False),
    ("nu", -5e-324, False),
    ("eta_conjugated", -5e-324, False)])
def test_the_range_check_forgives_only_round_off(tmp_path, capsys, monkeypatch, field,
                                                 value, accepted):
    real = sfwmsim.cli.compute_pair_metrics
    monkeypatch.setattr(sfwmsim.cli, "compute_pair_metrics", lambda *args, **kwargs:
                        dataclasses.replace(real(*args, **kwargs), **{field: value}))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", _write_config(tmp_path), "--sweep",
                 _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.1],
                                         "models": ["linear"]}), "--out", str(out)])
    err = capsys.readouterr().err
    if accepted:
        assert code == 0 and err == ""
        with open(out, newline="") as fh:
            assert next(csv.DictReader(fh))[field] == repr(value)
    else:
        assert code == 3 and not out.exists()
        assert err.startswith(f"accuracy failure: {field} is {value!r}, outside its "
                              "physical range ")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_quadrature_exits_3(tmp_path, capsys, monkeypatch, command, bad):
    break_propagate_power(monkeypatch, bad)
    raw = {**BASE, "grid": {"n_points": 64}, "model": "general_quadrature"}
    argv = [command, "--config", _write_config(tmp_path, raw),
            "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--sweep", _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.1],
                                                    "models": ["general_quadrature"]})]
    if math.isinf(bad):  # inf times a unit phase: numpy warns of the NaN part
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert main(argv) == 3
    else:
        assert main(argv) == 3
    assert capsys.readouterr().err == ("accuracy failure: quadrature not finite: the "
                                       "estimates of orders 64 and 128 hold non-finite "
                                       "values\n")
    assert not (tmp_path / "out").exists()


# the README config at N = 64, where the resolution sentinel fires
_README_64 = {"pump": {"P0": 1.0, "sigma_t": 1.0},
              "waveguide": {"length": 0.005, "gamma": 121.6},
              "filters": BASE["filters"], "grid": {"n_points": 64}, "model": "simple_sxpm"}
_NO_SIGNAL_FILTER = {**BASE["filters"], "signal": {"shape": "none"}}
_RESOLUTION = ("pair probability changed by {} relative under 2x grid coarsening; "
               "grid may be under-resolved")
_LOW_EXCITATION = ("eta={} exceeds the low-excitation bound 0.1; "
                   "first-order results are unreliable")
_ZERO_PUMP = "zero pump power: conditional quantities are undefined"
_NO_NU = "nu: undefined without a signal filter"


def _readme_64(p0=1.0, filters=None, **sections):
    return {**_README_64, "pump": {"P0": p0, "sigma_t": 1.0},
            "filters": filters or BASE["filters"], **sections}


# recorded output: the exact text and order of the notes the CLI prints and stores
_SIMULATE_NOTES = {
    "resolution": (_readme_64(), [_RESOLUTION.format("5.05e-02")]),
    "resolution_low_excitation": (_readme_64(30.0), [
        _RESOLUTION.format("8.84e-01"), _LOW_EXCITATION.format("0.980863")]),
    "zero_pump": (_readme_64(0.0), [_ZERO_PUMP]),
    "nu": (_readme_64(filters=_NO_SIGNAL_FILTER), [_NO_NU]),
    "nu_low_excitation": (_readme_64(30.0, _NO_SIGNAL_FILTER), [
        _NO_NU, _LOW_EXCITATION.format("58.8193")]),
    "free_carrier_last": (_readme_64(30.0, regime_check={
        "photon_energy": 1.28e-19, "sigma_FCA": 1e-21, "T0": 1e-12, "I0": 2e13}), [
        _RESOLUTION.format("8.84e-01"), _LOW_EXCITATION.format("0.980863"),
        "free-carrier check failed: ratio 6.4 is below threshold 10"]),
}
_SWEEP_NOTES = {  # phi_max 0, 0.608 and 18.24, each with linear then simple_sxpm
    "both_filtered": (None, [
        _ZERO_PUMP, _ZERO_PUMP,
        _RESOLUTION.format("4.58e-02"), _RESOLUTION.format("5.05e-02"),
        _RESOLUTION.format("4.58e-02") + "; " + _LOW_EXCITATION.format("18.5984"),
        _RESOLUTION.format("8.84e-01") + "; " + _LOW_EXCITATION.format("0.980863")]),
    "signal_unfiltered": (_NO_SIGNAL_FILTER, [
        _ZERO_PUMP, _ZERO_PUMP, _NO_NU, _NO_NU,
        _NO_NU + "; " + _LOW_EXCITATION.format("58.8193"),
        _NO_NU + "; " + _LOW_EXCITATION.format("58.8193")]),
}


@pytest.mark.parametrize("case", sorted(_SIMULATE_NOTES))
def test_simulate_notes_match_the_recorded_output(tmp_path, capsys, case):
    raw, notes = _SIMULATE_NOTES[case]
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, raw),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(f"warning: {note}\n" for note in notes)
    assert json.loads((out / "metrics.json").read_text())["warnings"] == notes


@pytest.mark.parametrize("case", sorted(_SWEEP_NOTES))
def test_sweep_notes_match_the_recorded_output(tmp_path, capsys, case):
    filters, column = _SWEEP_NOTES[case]
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.0, 0.608, 18.24],
                                    "models": ["linear", "simple_sxpm"]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_config(tmp_path, _readme_64(filters=filters)),
                 "--sweep", sweep, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="", encoding="utf-8") as fh:
        assert [row["warnings"] for row in csv.DictReader(fh)] == column


def test_config_error_exit_code_from_main(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    missing.write_text("{")
    assert main(["simulate", "--config", str(missing),
                 "--out", str(tmp_path / "o")]) == 2


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_only_simulate_builds_the_dense_filtered_matrix(tmp_path, monkeypatch):
    calls = []
    real = sfwmsim.filtering.filtered_jta

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sfwmsim.filtering, "filtered_jta", spy)
    monkeypatch.setattr(sfwmsim.cli, "filtered_jta", spy)
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max", "values": [0.1, 0.2],
                                    "models": ["linear", "simple_sxpm"]})
    assert main(["sweep", "--config", cfg, "--sweep", sweep,
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert calls == []
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_a_sweep_with_equal_filters_factors_one_kernel(tmp_path):
    # lambda = mu and one grid for every row: one eigendecomposition serves
    # all, and one rank reduction serves each distinct row window of the
    # Schmidt core (both sides share it). The window's budget follows |JTA|
    # alone, not the SPM phase, and every row of this sweep meets one window
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max",
                                    "values": [0.1 * k for k in range(1, 10)],
                                    "models": ["linear", "simple_sxpm", "sinc",
                                               "general_quadrature"]})
    sfwmsim.metrics._kernel_factor.cache_clear()
    sfwmsim.metrics._window_factor.cache_clear()
    assert main(["sweep", "--config", cfg, "--sweep", sweep,
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert sfwmsim.metrics._kernel_factor.cache_info().misses == 1
    windows = sfwmsim.metrics._window_factor.cache_info()
    assert windows.misses == 1
    assert windows.hits == 2 * 36 - 1


def test_a_sweep_factors_kernels_from_small_eigenproblems(tmp_path, monkeypatch):
    """The kernel factors take eigh of the r x r Gram of a pivoted Cholesky
    factor, never of a dense N/2 x N/2 kernel block, and every SVD (a window
    factor's or a Schmidt core's) is of a matrix far smaller than N x N."""
    shapes, svd_shapes = [], []
    real, real_svd = np.linalg.eigh, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda x, *a, **k: shapes.append(np.shape(x)) or real(x, *a, **k))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, *a, **k: svd_shapes.append(np.shape(x)) or real_svd(x, *a, **k))
    sfwmsim.metrics._kernel_factor.cache_clear()
    sfwmsim.metrics._window_factor.cache_clear()
    sweep = _write_sweep(tmp_path, {"parameter": "lambda", "values": [2.0],
                                    "models": ["simple_sxpm"]})
    assert main(["sweep", "--config", _write_config(tmp_path), "--sweep", sweep,
                 "--out", str(tmp_path / "sweep.csv"), "--grid-points", "1024"]) == 0
    assert shapes and svd_shapes
    assert all(max(shape) <= 256 for shape in shapes + svd_shapes)


def test_simulate_peak_estimate_grows_as_n_squared():
    assert sfwmsim.cli._simulate_peak_bytes(256) == 80 * 256 ** 2
    assert sfwmsim.cli._simulate_peak_bytes(4096) <= sfwmsim.cli._SIMULATE_MAX_BYTES
    assert sfwmsim.cli._simulate_peak_bytes(8192) > sfwmsim.cli._SIMULATE_MAX_BYTES


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [256, 512])
def test_simulate_peak_memory_is_within_its_estimate(tmp_path, capsys, n):
    cfg = _write_config(tmp_path)
    # a small first run builds the float tables, which do not grow with N
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    peak = _traced_peak(lambda: main(["simulate", "--config", cfg, "--out",
                                      str(tmp_path / "out"), "--grid-points", str(n)]))
    assert peak < sfwmsim.cli._simulate_peak_bytes(n)


def test_export_matrix_memory_does_not_grow_with_the_matrix(monkeypatch):
    """Beyond its input, one export holds a few blocks of text, not a view of
    the whole matrix (16 MB at N = 1024) or a whole formatted table."""
    class Sink:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            return len(data)

    monkeypatch.setattr(sfwmsim.cli, "open", lambda *a, **k: Sink(), raising=False)
    rng = np.random.default_rng(11)
    export_matrix(_edge_matrix("time"), "warm.csv")  # builds the float tables
    n = 1024
    matrix = JointAmplitudeMatrix(TemporalGrid(n_points=n, dt=0.01),
                                  rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert _traced_peak(lambda: export_matrix(matrix, "m.csv")) < 4 * 2 ** 20


@pytest.mark.parametrize("override", [False, True], ids=["config", "grid_points"])
def test_simulate_rejects_a_grid_over_the_memory_limit_before_any_work(
        tmp_path, capsys, monkeypatch, override):
    def unreachable(*args, **kwargs):
        raise AssertionError("simulate went past its memory check")

    monkeypatch.setattr(sfwmsim.cli, "_evaluate", unreachable)
    monkeypatch.setattr(sfwmsim.cli, "filtered_jta", unreachable)
    raw = json.loads(json.dumps(BASE))
    extra = []
    if override:
        extra = ["--grid-points", "65536"]
    else:
        raw["grid"]["n_points"] = 65536
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    lines = (tmp_path / "config.json").read_text(encoding="utf-8").splitlines()
    line = 1 + next(i for i, text in enumerate(lines) if '"n_points"' in text)
    where = "--grid-points" if override else f"line {line}: grid.n_points"
    assert f"\n  {where}: 65536 needs about 320 GiB" in err
    assert not out.exists()
