import json
import math

import pytest

from sfwmsim import (ConfigError, FilterSpec, PumpPulse, SimulationConfig,
                     TemporalGrid, Waveguide, config_from_dict, load_config,
                     validate_config)

GAMMA_SI = 2.0 * math.pi * 6e-18 / (1.55e-6 * 2e-13)  # ~121.61 1/(W m)


def _base_raw():
    return {
        "pump": {"P0": 0.1, "sigma_t": 1.0},
        "waveguide": {"gamma": 1.0, "length": 1.0},
        "filters": {
            "signal": {"shape": "gaussian", "sigma_f": 0.25},
            "idler": {"shape": "gaussian", "sigma_f": 0.25},
        },
        "grid": {"n_points": 128},
        "model": "linear",
    }


def _write(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return path


def test_load_minimal_config(tmp_path):
    cfg = load_config(_write(tmp_path, _base_raw()))
    assert isinstance(cfg, SimulationConfig)
    assert cfg.pump == PumpPulse(P0=0.1, sigma_t=1.0)
    assert cfg.waveguide.gamma == 1.0
    assert cfg.model == "linear"
    assert cfg.grid.n_points == 128
    # narrow filters widen the grid: sigma_eff = 1/0.25 = 4
    assert cfg.grid.dt == pytest.approx(8.0 * 4.0 * 2.0 / 128)
    assert cfg.signal_filter == FilterSpec(sigma_f=0.25)


def test_idler_filter_defaults_to_none(tmp_path):
    raw = _base_raw()
    del raw["filters"]["idler"]
    cfg = load_config(_write(tmp_path, raw))
    assert not cfg.idler_filter.is_gaussian


def test_gamma_derived_from_material(tmp_path):
    raw = _base_raw()
    del raw["waveguide"]["gamma"]
    raw["material"] = {"n2": 6e-18, "lambda_pump": 1.55e-6, "A_eff": 2e-13}
    cfg = load_config(_write(tmp_path, raw))
    assert cfg.waveguide.gamma == pytest.approx(GAMMA_SI, rel=1e-12)
    assert cfg.waveguide.gamma == pytest.approx(121.61, rel=1e-3)


def test_gamma_and_material_must_agree(tmp_path):
    raw = _base_raw()
    raw["material"] = {"n2": 6e-18, "lambda_pump": 1.55e-6, "A_eff": 2e-13}
    raw["waveguide"]["gamma"] = GAMMA_SI * (1.0 + 1e-8)  # within tolerance
    load_config(_write(tmp_path, raw))
    raw["waveguide"]["gamma"] = GAMMA_SI * 1.01
    with pytest.raises(ConfigError, match="conflicts with the material-derived"):
        load_config(_write(tmp_path, raw))


def test_gamma_missing_everywhere(tmp_path):
    raw = _base_raw()
    del raw["waveguide"]["gamma"]
    with pytest.raises(ConfigError, match="provide gamma or a material"):
        load_config(_write(tmp_path, raw))


def test_json_syntax_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "pump": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"line 2 column \d+"):
        load_config(path)


def test_all_violations_reported_at_once(tmp_path):
    raw = _base_raw()
    raw["pump"]["P0"] = -1.0
    raw["waveguide"]["length"] = 0.0
    raw["waveguide"]["alpha"] = 0.3
    raw["model"] = "sinc"
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write(tmp_path, raw))
    text = str(excinfo.value)
    assert "negative peak power" in text
    assert "nonpositive length" in text
    assert "lossy medium requires general_quadrature" in text
    assert len(excinfo.value.violations) == 3


def test_violation_messages_carry_line_numbers(tmp_path):
    raw = _base_raw()
    raw["waveguide"]["length"] = -1.0
    path = _write(tmp_path, raw)
    text = path.read_text()
    expected_line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                         if '"length"' in ln)
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert f"line {expected_line}: waveguide.length" in str(excinfo.value)


def test_unknown_keys_rejected(tmp_path):
    raw = _base_raw()
    raw["pump"]["chirp"] = 1.0
    raw["detector"] = {}
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write(tmp_path, raw))
    text = str(excinfo.value)
    assert "pump.chirp: unknown key" in text
    assert "detector: unknown section" in text


def test_type_errors_rejected(tmp_path):
    raw = _base_raw()
    raw["pump"]["P0"] = "high"
    raw["model"] = 7
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write(tmp_path, raw))
    text = str(excinfo.value)
    assert "pump.P0: expected a number" in text
    assert "model: expected a string" in text


def test_missing_sections_rejected(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write(tmp_path, {"model": "linear"}))
    text = str(excinfo.value)
    assert "pump: missing required section" in text
    assert "waveguide: missing required section" in text
    assert "filters: missing required section" in text


def test_unknown_model_rejected(tmp_path):
    raw = _base_raw()
    raw["model"] = "cubic"
    with pytest.raises(ConfigError, match="unknown model"):
        load_config(_write(tmp_path, raw))


def test_both_filters_none_rejected(tmp_path):
    raw = _base_raw()
    raw["filters"] = {"signal": {"shape": "none"}}
    with pytest.raises(ConfigError, match="both sides unfiltered"):
        load_config(_write(tmp_path, raw))


def test_grid_overrides(tmp_path):
    path = _write(tmp_path, _base_raw())
    cfg = load_config(path, grid_points=256, span_sigmas=10.0)
    assert cfg.grid.n_points == 256
    assert cfg.span_sigmas == 10.0
    assert cfg.grid.dt == pytest.approx(10.0 * 4.0 * 2.0 / 256)


def test_bad_grid_values_rejected(tmp_path):
    raw = _base_raw()
    raw["grid"]["n_points"] = 100
    with pytest.raises(ConfigError, match="power of two"):
        load_config(_write(tmp_path, raw))
    raw["grid"]["n_points"] = 128.5
    with pytest.raises(ConfigError, match="expected an integer"):
        load_config(_write(tmp_path, raw))
    raw["grid"]["n_points"] = float("inf")
    with pytest.raises(ConfigError, match="grid.n_points: expected a finite number, got inf"):
        load_config(_write(tmp_path, raw))


def test_regime_check_section(tmp_path):
    raw = _base_raw()
    raw["regime_check"] = {"photon_energy": 1.28e-19, "sigma_FCA": 1e-21,
                           "T0": 1e-12, "I0": 1e12}
    cfg = load_config(_write(tmp_path, raw))
    assert cfg.regime_check is not None
    assert cfg.regime_check.threshold == 10.0
    raw["regime_check"]["T0"] = -1.0
    with pytest.raises(ConfigError, match="regime_check.T0"):
        load_config(_write(tmp_path, raw))


def test_validate_config_direct():
    grid = TemporalGrid(n_points=64, dt=0.25)
    cfg = SimulationConfig(
        pump=PumpPulse(P0=0.1, sigma_t=1.0),
        waveguide=Waveguide(gamma=1.0, length=1.0),
        signal_filter=FilterSpec(sigma_f=0.25),
        idler_filter=FilterSpec.unfiltered(),
        grid=grid, model="linear")
    assert validate_config(cfg) == []
    bad = SimulationConfig(
        pump=PumpPulse(P0=-1.0, sigma_t=0.0),
        waveguide=Waveguide(gamma=-1.0, length=0.0, alpha=-0.1, alpha2_P=-0.2),
        signal_filter=FilterSpec.unfiltered(),
        idler_filter=FilterSpec.unfiltered(),
        grid=grid, model="warp")
    violations = validate_config(bad)
    assert violations == sorted(violations)
    # P0, sigma_t, length, gamma, alpha, alpha2_P, lossy model, unknown
    # model, and the all-unfiltered rule
    assert len(violations) == 9
    assert any("nonpositive length" in v for v in violations)


def test_config_from_dict_without_text():
    cfg = config_from_dict(_base_raw())
    assert cfg.model == "linear"
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


@pytest.mark.parametrize("edit, key, violation", [
    ({"waveguide": {"gamma": "x", "length": 1.0}},
     "gamma", "waveguide.gamma: expected a number, got 'x'"),
    ({"filters": 3}, "filters", "filters: expected an object"),
    ({"filters": {"signal": {"shape": "gaussian", "sigma_f": "a"}}},
     "signal", "filters.signal.sigma_f: expected a number, got 'a'"),
    ({"waveguide": {"length": 1.0},
      "material": {"n2": -1.0, "lambda_pump": 1.55e-6, "A_eff": 2e-13}},
     "n2", "material.n2: must be positive"),
])
def test_each_bad_value_is_reported_once_under_its_own_key(tmp_path, edit, key, violation):
    # the violation's line is that of its own (last) key, the first one at or
    # after the line of ``key``
    path = _write(tmp_path, {**_base_raw(), **edit})
    lines = path.read_text().splitlines()
    start = next(i for i, text in enumerate(lines) if f'"{key}"' in text)
    own = violation.split(":")[0].rpartition(".")[2]
    line = 1 + next(i for i in range(start, len(lines)) if f'"{own}"' in lines[i])
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.violations == [f"line {line}: {violation}"]
