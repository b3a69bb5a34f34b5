"""Command-line front end: simulate one config, sweep a parameter, or
validate a config file.

Exit codes: 0 success, 2 configuration error, 3 accuracy failure,
4 filesystem error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
import warnings as _warnings
from pathlib import Path

import numpy as np

from .config import (MODEL_NAMES, SimulationConfig, _anchor, load_config,
                     number_error, read_json, validate_config)
from .errors import AccuracyError, AccuracyWarning, ConfigError
from .filtering import FilterPair, JointAmplitudeMatrix, filtered_jta
from .grids import build_temporal_grid
from .jta import build_diagonal_jta
from .metrics import (compute_pair_metrics, schmidt_mode_count,
                      validate_low_excitation)
from .pump import check_free_carrier_regime, phi_max
from .spectral import jta_to_jsa, marginal_spectrum

_SWEEP_PARAMETERS = ("phi_max", "lambda", "mu", "sigma_t", "delta_beta0")

# simulate refuses a grid whose dense N x N arrays would need more than this;
# it admits N = 4096 (about 1.3 GB) and rejects N = 8192 (about 5.4 GB)
_SIMULATE_MAX_BYTES = 4 * 2 ** 30


def _coordinates(grid) -> np.ndarray:
    return grid.tau if hasattr(grid, "tau") else grid.omega


def _write_lines(path, chunks) -> None:
    """Write pre-joined CSV text, one ``write`` per chunk as it streams in.

    The float tables are written this way, not through ``csv.writer``: their
    fields are reprs of finite floats and fixed header names, none of which
    holds a comma, quote or line break, so joining them with "," and ending
    each line with CRLF gives the csv module's default-dialect bytes without
    its per-field cost.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _coords_lines(rows: list[str], cols: list[str], vals: np.ndarray):
    """The (row_coord, col_coord, re, im) table, one matrix row per chunk."""
    yield "row_coord,col_coord,re,im\r\n"
    for r, row in zip(rows, vals):
        yield "".join([f"{r},{c},{re!r},{im!r}\r\n" for c, re, im
                       in zip(cols, row.real.tolist(), row.imag.tolist())])


def _grid_lines(rows: list[str], cols: list[str], table: np.ndarray):
    """A grid-layout table: a coord header, then each row led by its coordinate."""
    yield ",".join(["coord", *cols]) + "\r\n"
    for r, row in zip(rows, table):
        yield ",".join([r, *map(repr, row.tolist())]) + "\r\n"


def export_matrix(matrix: JointAmplitudeMatrix, path) -> list[Path]:
    """Write a joint-amplitude matrix to CSV in three views.

    ``path`` gets one long table (row_coord, col_coord, re, im) in row-major
    order; the sibling grid-layout files ``<stem>_magnitude.csv`` and
    ``<stem>_phase.csv`` hold abs and angle. Floats use repr so a read-back
    round trip is exact; each coordinate is formatted once per export, and
    each file is written one matrix row at a time. Returns the three paths
    written.
    """
    path = Path(path)
    rows = list(map(repr, _coordinates(matrix.grid_s).tolist()))
    cols = list(map(repr, _coordinates(matrix.grid_i).tolist()))
    vals = matrix.values
    _write_lines(path, _coords_lines(rows, cols, vals))
    paths = [path]
    for suffix, table in (("_magnitude", np.abs(vals)), ("_phase", np.angle(vals))):
        paths.append(path.with_name(path.stem + suffix + ".csv"))
        _write_lines(paths[-1], _grid_lines(rows, cols, table))
    return paths


def _write_marginal(path, omega: np.ndarray, spectrum: np.ndarray) -> None:
    """Write a (detuning, intensity) marginal table with repr floats."""
    _write_lines(path, ["detuning,intensity\r\n",
                        "".join([f"{w!r},{s!r}\r\n"
                                 for w, s in zip(omega.tolist(), spectrum.tolist())])])


def read_matrix_coords(path):
    """Read back a coords CSV as (row_coords, col_coords, complex matrix)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_rows = len(np.unique(data[:, 0]))
    table = data.reshape(n_rows, -1, 4)
    # reinterpret each (re, im) pair as one complex128 so signed zeros survive
    values = np.ascontiguousarray(table[..., 2:]).view(complex)[..., 0]
    return table[:, 0, 0], table[0, :, 1], values


def _evaluate(cfg: SimulationConfig, conjugated: bool, literal_z: bool):
    """Run the model + metrics pipeline; returns (diag, filters, metrics, warnings)."""
    diag = build_diagonal_jta(cfg.model, cfg.pump, cfg.waveguide, cfg.grid, literal_z)
    filters = FilterPair(cfg.signal_filter, cfg.idler_filter)
    notes: list[str] = []
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", AccuracyWarning)
        pm = compute_pair_metrics(diag, filters, conjugated=conjugated,
                                  verify_resolution=True)
    notes.extend(str(w.message) for w in caught
                 if issubclass(w.category, AccuracyWarning))
    zero_pump = pm.schmidt_weights is None
    if zero_pump:
        notes.append("zero pump power: conditional quantities are undefined")
    elif pm.nu is None and not filters.signal.is_gaussian:
        notes.append("nu: undefined without a signal filter")
    if not pm.low_excitation_ok:
        notes.append(validate_low_excitation(pm.eta_conjugated)[1])
    return diag, filters, pm, notes


def _regime_report(cfg: SimulationConfig):
    if cfg.regime_check is None:
        return None, None
    rc = cfg.regime_check
    result = check_free_carrier_regime(rc.photon_energy, rc.sigma_FCA,
                                       rc.T0, rc.I0, threshold=rc.threshold)
    note = None
    if not result.passed:
        note = (f"free-carrier check failed: ratio {result.ratio:.6g} "
                f"is below threshold {rc.threshold:.6g}")
    return result, note


def _metrics_document(cfg: SimulationConfig, pm, notes: list[str],
                      regime_result, args) -> dict:
    lam, mu = FilterPair(cfg.signal_filter, cfg.idler_filter).ratios(cfg.pump)
    weights = (None if pm.schmidt_weights is None
               else [float(w) for w in pm.schmidt_weights[:16]])
    n99 = (None if pm.schmidt_weights is None
           else schmidt_mode_count(pm.schmidt_weights))
    doc = {
        "model": cfg.model,
        "phi_max": phi_max(cfg.pump, cfg.waveguide),
        "lambda": lam,
        "mu": mu,
        "eta": pm.eta,
        "purity": pm.purity,
        "nu": pm.nu,
        "n_schmidt_modes_99": n99,
        "schmidt_weights": weights,
        "low_excitation_ok": pm.low_excitation_ok,
        "regime_check": (None if regime_result is None else
                         {"ratio": float(regime_result.ratio)
                          if math.isfinite(regime_result.ratio) else "inf",
                          "passed": regime_result.passed}),
        "grid": {"n_points": cfg.grid.n_points, "dt": cfg.grid.dt,
                 "span_sigmas": cfg.span_sigmas},
        "flags": {"as_printed_eq9": args.as_printed_eq9,
                  "non_conjugated_eta": args.non_conjugated_eta},
        "warnings": notes,
    }
    if pm.eta_imag is not None:
        doc["eta_imag"] = pm.eta_imag
    return doc


def _simulate_peak_bytes(n_points: int) -> int:
    """Upper estimate of the bytes ``simulate`` holds at once in dense N x N
    arrays: five complex ones (16 bytes per entry), covering the filtered
    JTA, the JSA and the temporaries of the transform and of the magnitude
    and phase views. tracemalloc measured 65.7 N^2 bytes at N = 512.
    """
    return 5 * 16 * n_points ** 2


def _check_simulate_memory(cfg: SimulationConfig, args) -> None:
    """Reject, before any work, a grid whose dense arrays exceed the limit."""
    n = cfg.grid.n_points
    need = _simulate_peak_bytes(n)
    if need <= _SIMULATE_MAX_BYTES:
        return
    detail = (f"{n} needs about {need / 2 ** 30:.3g} GiB for the dense N x N "
              f"matrices simulate writes, over its {_SIMULATE_MAX_BYTES / 2 ** 30:.3g} GiB "
              "limit; use a smaller grid")
    if args.grid_points is not None:
        message = f"--grid-points: {detail}"
    else:
        message = _anchor(read_json(args.config)[1], f"grid.n_points: {detail}")
    raise ConfigError(message)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, grid_points=args.grid_points,
                      span_sigmas=args.span_sigmas)
    _check_simulate_memory(cfg, args)
    diag, filters, pm, notes = _evaluate(cfg, conjugated=not args.non_conjugated_eta,
                                         literal_z=args.as_printed_eq9)
    regime_result, regime_note = _regime_report(cfg)
    if regime_note:
        notes.append(regime_note)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    matrix = filtered_jta(diag, filters)
    export_matrix(matrix, out / "jta.csv")
    jsa = jta_to_jsa(matrix)
    export_matrix(jsa, out / "jsa.csv")
    for axis, sgrid in (("signal", jsa.grid_s), ("idler", jsa.grid_i)):
        _write_marginal(out / f"marginal_{axis}.csv", sgrid.omega,
                        marginal_spectrum(jsa, axis=axis))

    doc = _metrics_document(cfg, pm, notes, regime_result, args)
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote metrics and matrices to {out}")
    return 0


def _load_sweep_spec(path):
    raw, _ = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("sweep root: expected a JSON object")
    errors = []
    param = raw.get("parameter")
    if param not in _SWEEP_PARAMETERS:
        errors.append(f"sweep.parameter: expected one of {', '.join(_SWEEP_PARAMETERS)}, "
                      f"got {param!r}")
    has_values = "values" in raw
    has_range = any(k in raw for k in ("start", "stop", "count"))
    values: list[float] = []
    if has_values and has_range:
        errors.append("sweep.values: give either values or start/stop/count, not both")
    elif has_values:
        vs = raw["values"]
        if not isinstance(vs, list) or not vs:
            errors.append("sweep.values: expected a nonempty list of numbers")
        else:
            bad = [f"sweep.values[{i}]: {p}" for i, v in enumerate(vs)
                   if (p := number_error(v)) is not None]
            errors += bad
            if not bad:
                values = [float(v) for v in vs]
    elif has_range:
        missing = [k for k in ("start", "stop", "count") if k not in raw]
        if missing:
            errors.append(f"sweep.{missing[0]}: missing required value")
        else:
            bad = [f"sweep.{k}: {p}" for k in ("start", "stop")
                   if (p := number_error(raw[k])) is not None]
            errors += bad
            count = raw["count"]
            if not isinstance(count, int) or isinstance(count, bool) or count < 2:
                errors.append("sweep.count: expected an integer >= 2")
            elif not bad:
                values = list(np.linspace(float(raw["start"]),
                                          float(raw["stop"]), count))
    else:
        errors.append("sweep.values: missing (give values or start/stop/count)")
    if values and any(b <= a for a, b in zip(values, values[1:])):
        errors.append("sweep.values: must be strictly increasing")
    models = raw.get("models")
    if models is None:
        errors.append("sweep.models: missing required value")
    elif (not isinstance(models, list) or not models
          or not all(isinstance(m, str) for m in models)):
        errors.append("sweep.models: expected a nonempty list of model names")
    else:
        for i, m in enumerate(models):
            if m not in MODEL_NAMES:
                errors.append(f"sweep.models: unknown model {m!r}")
            elif m in models[:i]:
                errors.append(f"sweep.models: duplicate model {m!r}")
    for key in raw:
        if key not in {"parameter", "values", "start", "stop", "count", "models"}:
            errors.append(f"sweep.{key}: unknown key")
    if errors:
        errors = sorted(errors)
        raise ConfigError("invalid sweep:\n  " + "\n  ".join(errors),
                          violations=errors)
    return param, values, list(models)


def _sweep_variant(cfg: SimulationConfig, param: str, value: float,
                   model: str) -> SimulationConfig:
    """One point of a sweep: re-derive pump/waveguide/filters and the grid."""
    pump, wg = cfg.pump, cfg.waveguide
    signal, idler = cfg.signal_filter, cfg.idler_filter
    if param == "phi_max":
        scale = wg.gamma * wg.length
        if not scale > 0:
            raise ConfigError("sweep over phi_max needs gamma * length > 0")
        if value < 0:
            raise ConfigError("sweep.values: phi_max must be nonnegative")
        pump = dataclasses.replace(pump, P0=value / scale)
    elif param == "lambda":
        if not value > 0:
            raise ConfigError("sweep.values: lambda must be positive")
        signal = dataclasses.replace(signal, shape="gaussian",
                                     sigma_f=pump.sigma_w / value)
    elif param == "mu":
        if not value > 0:
            raise ConfigError("sweep.values: mu must be positive")
        idler = dataclasses.replace(idler, shape="gaussian",
                                    sigma_f=pump.sigma_w / value)
    elif param == "sigma_t":
        if not value > 0:
            raise ConfigError("sweep.values: sigma_t must be positive")
        pump = dataclasses.replace(pump, sigma_t=value)
    elif param == "delta_beta0":
        wg = dataclasses.replace(wg, delta_beta0=value)
    grid = build_temporal_grid(pump, [signal, idler],
                               span_sigmas=cfg.span_sigmas,
                               n_points=cfg.grid.n_points)
    variant = dataclasses.replace(cfg, pump=pump, waveguide=wg,
                                  signal_filter=signal, idler_filter=idler,
                                  grid=grid, model=model)
    violations = validate_config(variant)
    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations),
                          violations=violations)
    return variant


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, grid_points=args.grid_points,
                      span_sigmas=args.span_sigmas)
    param, values, models = _load_sweep_spec(args.sweep)
    conjugated = not args.non_conjugated_eta

    header = [param, "model", "eta"]
    if args.non_conjugated_eta:
        header.append("eta_imag")
    header += ["purity", "nu", "n_schmidt_modes_99", "warnings"]

    # every point is built and validated before the first one is evaluated
    points, errors = [], []
    for value, model in itertools.product(values, models):
        try:
            points.append((value, model, _sweep_variant(cfg, param, value, model)))
        except ConfigError as exc:
            errors += [f"sweep {param}={float(value)!r}, model {model!r}: {v}"
                       for v in exc.violations]
    if errors:
        raise ConfigError("invalid sweep:\n  " + "\n  ".join(errors), violations=errors)

    rows = []
    for value, model, variant in points:
        _, _, pm, notes = _evaluate(variant, conjugated=conjugated,
                                    literal_z=args.as_printed_eq9)
        n99 = (schmidt_mode_count(pm.schmidt_weights)
               if pm.schmidt_weights is not None else None)
        row = [repr(float(value)), model, repr(pm.eta)]
        if args.non_conjugated_eta:
            row.append("" if pm.eta_imag is None else repr(pm.eta_imag))
        row += ["" if pm.purity is None else repr(pm.purity),
                "" if pm.nu is None else repr(pm.nu),
                "" if n99 is None else str(n99),
                "; ".join(notes)]
        rows.append(row)

    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    # csv.writer, because the free-text warnings field may need quoting
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config, grid_points=args.grid_points,
                      span_sigmas=args.span_sigmas)
    regime_result, regime_note = _regime_report(cfg)
    print("configuration ok")
    if regime_result is not None:
        ratio = ("inf" if math.isinf(regime_result.ratio)
                 else f"{regime_result.ratio:.6g}")
        status = "passed" if regime_result.passed else "FAILED"
        print(f"free-carrier regime check: ratio {ratio} ({status})")
    if regime_note:
        print(f"warning: {regime_note}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid-points", type=int, default=None,
                        help="override the number of temporal grid points")
    common.add_argument("--span-sigmas", type=float, default=None,
                        help="override the half-width of the grid in pulse widths")
    common.add_argument("--as-printed-eq9", action="store_true",
                        help="use the literal z coordinate in the saturable "
                             "pump-depletion denominator instead of the "
                             "loss-corrected effective length")
    common.add_argument("--non-conjugated-eta", action="store_true",
                        help="report the non-conjugated pair-probability "
                             "variant (complex; real and imaginary parts)")

    parser = argparse.ArgumentParser(
        prog="sfwmsim",
        description="Photon-pair generation by spontaneous four-wave mixing: "
                    "joint temporal amplitudes, filtering, and pair metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run one config and write metrics + matrices")
    p_sim.add_argument("--config", required=True, help="path to a JSON config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one parameter across one or more models")
    p_sweep.add_argument("--config", required=True, help="path to a JSON config")
    p_sweep.add_argument("--sweep", required=True, help="path to a JSON sweep spec")
    p_sweep.add_argument("--out", required=True, help="output CSV file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", parents=[common],
                           help="check a config and report every violation")
    p_val.add_argument("--config", required=True, help="path to a JSON config")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        if exc.violations:
            print("configuration invalid:", file=sys.stderr)
            for violation in exc.violations:
                print(f"  {violation}", file=sys.stderr)
        else:
            print(f"configuration invalid: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
