import argparse
import csv
import json
import math

import numpy as np
import pytest

import sfwmsim.cli
import sfwmsim.filtering
import sfwmsim.metrics
from sfwmsim import (FilterPair, JointAmplitudeMatrix, SpectralGrid,
                     TemporalGrid, filtered_jta, gaussian_eta, gaussian_nu,
                     gaussian_purity, jta_simple, jta_to_jsa, load_config,
                     marginal_spectrum)
from sfwmsim.cli import (build_diagonal_jta, export_matrix, main,
                         read_matrix_coords)
from conftest import make_filters, make_pump, make_waveguide

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
    cs = _reference_coordinates(matrix.grid_s)
    ci = _reference_coordinates(matrix.grid_i)
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
    diag = jta_simple(pump, make_waveguide(), TemporalGrid(n_points=16, dt=0.75))
    if kind == "single_sided":
        # every second signal row of a signal-only filtered amplitude: 8 signal
        # times on TemporalGrid(8, 1.5) against the 16-point idler diagonal
        full = filtered_jta(diag, make_filters(2, 0, pump))
        return JointAmplitudeMatrix(TemporalGrid(n_points=8, dt=1.5), diag.grid,
                                    full.values[::2])
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
    np.testing.assert_array_equal(_bits(rows), _bits(_reference_coordinates(matrix.grid_s)))
    np.testing.assert_array_equal(_bits(cols), _bits(_reference_coordinates(matrix.grid_i)))


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
    return JointAmplitudeMatrix(grid, grid, values)


@pytest.mark.parametrize("domain", ["time", "frequency"])
def test_export_matrix_edge_values_match_the_reference_writer(tmp_path, domain):
    matrix = _edge_matrix(domain)
    paths = export_matrix(matrix, tmp_path / "m.csv")
    for new, ref in zip(paths, _reference_export(matrix, tmp_path / "ref.csv")):
        assert new.read_bytes() == ref.read_bytes(), new.name
    rows, cols, values = read_matrix_coords(paths[0])
    np.testing.assert_array_equal(_bits(values), _bits(matrix.values))
    np.testing.assert_array_equal(_bits(rows), _bits(_reference_coordinates(matrix.grid_s)))
    np.testing.assert_array_equal(_bits(cols), _bits(_reference_coordinates(matrix.grid_i)))
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
    diag = jta_simple(pump, make_waveguide(), TemporalGrid(n_points=n, dt=0.125))
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
    for axis, grid in (("signal", jsa.grid_s), ("idler", jsa.grid_i)):
        _reference_marginal(ref / f"marginal_{axis}.csv", grid.omega,
                            marginal_spectrum(jsa, axis=axis))
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
    assert "grid.span_sigmas: expected a finite number, got inf" in capsys.readouterr().err


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
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    assert ("sweep phi_max=0.1, model 'linear': model: lossy medium requires "
            "general_quadrature" in capsys.readouterr().err)


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
    # lambda = mu and one grid for every row: one eigendecomposition serves all
    cfg = _write_config(tmp_path)
    sweep = _write_sweep(tmp_path, {"parameter": "phi_max",
                                    "values": [0.1 * k for k in range(1, 10)],
                                    "models": ["linear", "simple_sxpm", "sinc",
                                               "general_quadrature"]})
    sfwmsim.metrics._kernel_factor.cache_clear()
    assert main(["sweep", "--config", cfg, "--sweep", sweep,
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    info = sfwmsim.metrics._kernel_factor.cache_info()
    assert info.misses == 1
    assert info.hits == 2 * 36 - 1


def test_a_sweep_factors_kernels_from_small_eigenproblems(tmp_path, monkeypatch):
    """The kernel factors take eigh of the r x r Gram of a pivoted Cholesky
    factor, never of a dense N/2 x N/2 kernel block."""
    shapes = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda x, *a, **k: shapes.append(np.shape(x)) or real(x, *a, **k))
    sfwmsim.metrics._kernel_factor.cache_clear()
    sweep = _write_sweep(tmp_path, {"parameter": "lambda", "values": [2.0],
                                    "models": ["simple_sxpm"]})
    assert main(["sweep", "--config", _write_config(tmp_path), "--sweep", sweep,
                 "--out", str(tmp_path / "sweep.csv"), "--grid-points", "1024"]) == 0
    assert shapes
    assert all(max(shape) <= 256 for shape in shapes)


def test_simulate_peak_estimate_grows_as_n_squared():
    assert sfwmsim.cli._simulate_peak_bytes(256) == 80 * 256 ** 2
    assert sfwmsim.cli._simulate_peak_bytes(4096) <= sfwmsim.cli._SIMULATE_MAX_BYTES
    assert sfwmsim.cli._simulate_peak_bytes(8192) > sfwmsim.cli._SIMULATE_MAX_BYTES


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
