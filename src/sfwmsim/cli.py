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
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from .config import (SimulationConfig, _anchor, _model_error, _unknown_keys, _value,
                     load_config, number_error, read_json, scale_violations,
                     violations_error)
from .errors import AccuracyError, ConfigError
from .filtering import FilterPair, FilterSpec, JointAmplitudeMatrix, filtered_jta
from .grids import build_temporal_grid
from .jta import build_diagonal_jta, lossless_violation
from .metrics import compute_pair_metrics, schmidt_mode_count
from .pump import check_free_carrier_regime, phi_max
from .spectral import jta_to_jsa, marginal_spectrum

# per swept parameter, the config fields that one value replaces
_SWEEP_FIELDS = {
    "phi_max": lambda cfg, v: {"pump": dataclasses.replace(
        cfg.pump, P0=v / (cfg.waveguide.gamma * cfg.waveguide.length))},
    "lambda": lambda cfg, v: {"signal_filter": FilterSpec(cfg.pump.sigma_w / v)},
    "mu": lambda cfg, v: {"idler_filter": FilterSpec(cfg.pump.sigma_w / v)},
    "sigma_t": lambda cfg, v: {"pump": dataclasses.replace(cfg.pump, sigma_t=v)},
    "delta_beta0": lambda cfg, v: {"waveguide": dataclasses.replace(
        cfg.waveguide, delta_beta0=v)},
}
# the bound on each swept value that keeps every point a valid config
_SWEEP_BOUNDS = {"phi_max": (operator.ge, "nonnegative"),
                 **dict.fromkeys(("lambda", "mu", "sigma_t"), (operator.gt, "positive"))}
_RANGE_KEYS = ("start", "stop", "count")

# a sweep spec may ask for at most this many (value, model) points
_SWEEP_MAX_POINTS = 100_000

# simulate refuses a grid whose dense N x N arrays would need more than this;
# it admits N = 4096 (about 1.3 GB) and rejects N = 8192 (about 5.4 GB)
_SIMULATE_MAX_BYTES = 4 * 2 ** 30


def _coordinates(grid) -> np.ndarray:
    return grid.tau if hasattr(grid, "tau") else grid.omega


def _line_table(shape, fields):
    """A NUL-filled byte table of ``shape`` CSV lines, and a view of its field
    slots for each (count, width) run of ``fields``.

    Every slot is followed by a comma, the last one by CRLF. The fields are
    reprs of finite floats and fixed header names, none of which holds a
    comma, quote or line break, so once the NULs are dropped the lines are the
    csv module's default-dialect bytes.
    """
    lines = np.zeros((*shape, sum(count * (width + 1) for count, width in fields) + 1),
                     dtype=np.uint8)
    views, start = [], 0
    for count, width in fields:
        slots = lines[..., start:start + count * (width + 1)].reshape(
            *shape, count, width + 1)
        slots[..., width] = ord(",")
        views.append(slots[..., :width])
        start += count * (width + 1)
    lines[..., -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return lines, views


def _text(table) -> bytes:
    """The bytes of a formatted table with its NULs dropped."""
    return table.tobytes().translate(None, b"\0")


def export_matrix(matrix: JointAmplitudeMatrix, path) -> list[Path]:
    """Write a joint-amplitude matrix to CSV in three views.

    ``path`` gets one long table (row_coord, col_coord, re, im) in row-major
    order; the sibling grid-layout files ``<stem>_magnitude.csv`` and
    ``<stem>_phase.csv`` hold abs and angle. Floats are written as their
    ``repr``, so a read-back round trip is exact. The one coordinate list of
    rows and columns is formatted once per export; the values, their
    magnitude and their phase are formatted a block of rows at a time, and
    each file is written one matrix row at a time. Returns the three paths.
    """
    # imported on first use: a sweep writes no matrix, so it never loads it
    from .floattext import BLOCK, WIDTH, repr_rows

    path = Path(path)
    paths = [path] + [path.with_name(path.stem + suffix + ".csv")
                      for suffix in ("_magnitude", "_phase")]
    text = [_text(row) for row in repr_rows(_coordinates(matrix.grid))]
    coords = np.array(text).view(np.uint8).reshape(len(text), -1)  # NUL-padded
    n, width = coords.shape
    vals = matrix.values

    step = max(1, min(n, BLOCK // (2 * n)))  # rows per block: about one formatter block
    lines, (coord_slots, value_slots) = _line_table((step, n), [(2, width), (2, WIDTH)])
    coord_slots[:, :, 1] = coords
    with open(path, "wb") as fh:
        fh.write(b"row_coord,col_coord,re,im\r\n")
        for start in range(0, n, step):
            rows = slice(start, start + step)
            block = vals[rows]
            m = len(block)
            coord_slots[:m, :, 0] = coords[rows, None]
            value_slots[:m, :, 0] = repr_rows(block.real).reshape(m, n, WIDTH)
            value_slots[:m, :, 1] = repr_rows(block.imag).reshape(m, n, WIDTH)
            for row in lines[:m]:
                fh.write(_text(row))

    step = max(1, min(n, BLOCK // n))
    lines, (coord_slots, value_slots) = _line_table((step,), [(1, width), (n, WIDTH)])
    for out, view in zip(paths[1:], (np.abs, np.angle)):
        with open(out, "wb") as fh:
            fh.write(b",".join([b"coord", *text]) + b"\r\n")
            for start in range(0, n, step):
                rows = slice(start, start + step)
                block = view(vals[rows])
                m = len(block)
                coord_slots[:m, 0] = coords[rows]
                value_slots[:m] = repr_rows(block).reshape(m, n, WIDTH)
                for row in lines[:m]:
                    fh.write(_text(row))
    return paths


def _write_marginal(path, omega: np.ndarray, spectrum: np.ndarray) -> None:
    """Write a (detuning, intensity) marginal table with repr floats."""
    from .floattext import WIDTH, repr_rows

    lines, (slots,) = _line_table((len(omega),), [(2, WIDTH)])
    slots[:] = repr_rows(np.column_stack((omega, spectrum))).reshape(slots.shape)
    with open(path, "wb") as fh:
        fh.write(b"detuning,intensity\r\n")
        fh.write(_text(lines))


# the physical range of each bounded figure (the unconjugated eta and its
# imaginary part may take either sign). Round-off takes purity and nu past 1:
# a single-sided purity near 1 by up to 6.7e-16, and nu, 1 with the idler
# unfiltered, moved by at most 7.8e-16 relative on resolved grids
_ROUNDOFF = 1e-12
_RANGES = {"eta_conjugated": ("[0, inf)", lambda v: v >= 0.0),
           "purity": ("(0, 1]", lambda v: 0.0 < v <= 1.0 + _ROUNDOFF),
           "nu": ("[0, 1]", lambda v: 0.0 <= v <= 1.0 + _ROUNDOFF)}


def _evaluate(cfg: SimulationConfig, conjugated: bool, literal_z: bool):
    """Run the model + metrics pipeline; returns (diag, filters, metrics, notes).

    A figure that overflows to inf or nan (a peak phase near the square root
    of the largest double) or leaves its physical range (nu above 1 on a grid
    too coarse for a filter) is an AccuracyError, never a reported number.
    """
    diag = build_diagonal_jta(cfg.model, cfg.pump, cfg.waveguide, cfg.grid, literal_z)
    filters = FilterPair(cfg.signal_filter, cfg.idler_filter)
    pm = compute_pair_metrics(diag, filters, conjugated=conjugated)
    for name in ("eta", "eta_imag", *_RANGES):
        value = getattr(pm, name)
        if value is not None and not math.isfinite(value):
            raise AccuracyError(f"{name} is {value!r}: the pair amplitude overflows "
                                "double precision")
    for name, (interval, inside) in _RANGES.items():
        value = getattr(pm, name)
        if value is not None and not inside(value):
            raise AccuracyError(f"{name} is {value!r}, outside its physical range "
                                f"{interval}: the grid may not resolve the pulse or "
                                "the filters")
    return diag, filters, pm, list(pm.notes)


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
    JTA, the JSA and the temporaries of the convolution and the transform.
    tracemalloc measured 64.6 N^2 bytes at N = 512, reached inside
    ``filtered_jta`` and ``jta_to_jsa``; the export, which formats a block
    of rows at a time, adds about 2 MB to the two matrices at any N.
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

    # every matrix is built before the first file is written, so a transform
    # that overflows leaves no partial output
    matrix = filtered_jta(diag, filters)
    jsa = jta_to_jsa(matrix)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_matrix(matrix, out / "jta.csv")
    export_matrix(jsa, out / "jsa.csv")
    for axis, spectrum in zip(("signal", "idler"), marginal_spectrum(jsa)):
        _write_marginal(out / f"marginal_{axis}.csv", jsa.grid.omega, spectrum)

    doc = _metrics_document(cfg, pm, notes, regime_result, args)
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")

    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    print(f"wrote metrics and matrices to {out}")
    return 0


def _load_sweep_spec(path, cfg: SimulationConfig):
    """Read a sweep spec as (parameter, values, models), checked against the
    loaded ``cfg`` so that every point it asks for is a valid config.

    Each problem is reported once, at the line of its key.
    """
    raw, text = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("sweep root: expected a JSON object")
    errors = _unknown_keys("sweep", raw, ("parameter", "values", *_RANGE_KEYS, "models"))
    param = _value(raw, "sweep.parameter", errors, _parameter_error, required=True)
    no_phase = param == "phi_max" and not cfg.waveguide.gamma * cfg.waveguide.length > 0
    if no_phase:
        errors.append("sweep.parameter: sweep over phi_max needs gamma * length > 0")

    models = _value(raw, "sweep.models", errors, _models_error, required=True) or []
    for model in dict.fromkeys(models):  # each name once, however often listed
        if _model_error(model) is not None:
            errors.append(f"sweep.models: unknown model {model!r}")
        elif models.count(model) > 1:
            errors.append(f"sweep.models: duplicate model {model!r}")
        elif (why := lossless_violation(model, cfg.waveguide)) is not None:
            errors.append(f"sweep.models: model {model!r}: {why}")

    n_models = len(raw["models"]) if isinstance(raw.get("models"), list) else 1
    over_limit = f"x {n_models} models is over the limit of {_SWEEP_MAX_POINTS} points"
    # (value, key) pairs: those the bound applies to, and those whose point scales
    # are checked, every listed value or a range's ends, between which it lies
    values, bounded, ends = [], [], []
    if "values" in raw and any(k in raw for k in _RANGE_KEYS):
        errors.append("sweep.values: give either values or start/stop/count, not both")
    elif "values" in raw:
        vs = _value(raw, "sweep.values", errors, _values_error)
        if vs is not None and len(vs) * n_models > _SWEEP_MAX_POINTS:
            errors.append(f"sweep.values: {len(vs)} values {over_limit}")
        elif vs is not None:
            bad = [f"sweep.values[{i}]: {p}" for i, v in enumerate(vs)
                   if (p := number_error(v)) is not None]
            errors += bad
            if not bad:
                values = [float(v) for v in vs]
                bounded = ends = [(v, f"values[{i}]") for i, v in enumerate(values)]
    elif any(k in raw for k in _RANGE_KEYS):
        start, stop = (_value(raw, f"sweep.{k}", errors, required=True)
                       for k in ("start", "stop"))
        count = _value(raw, "sweep.count", errors, _count_error, required=True)
        if count is not None and count * n_models > _SWEEP_MAX_POINTS:
            errors.append(f"sweep.count: {count} values {over_limit}")
        elif None not in (start, stop, count):
            ends = [(float(start), "start"), (float(stop), "stop")]
            bounded = [min(ends)]  # the lower end, its start when it increases
            if not math.isfinite(float(stop) - float(start)):
                errors.append("sweep.stop: stop - start overflows")
            else:
                # the last step may round past the largest float; linspace puts stop there
                with np.errstate(over="ignore"):
                    values = list(np.linspace(float(start), float(stop), count))
    else:
        errors.append("sweep.values: missing (give values or start/stop/count)")
    if any(b <= a for a, b in zip(values, values[1:])):
        errors.append("sweep.values: must be strictly increasing" if "values" in raw
                      else "sweep.stop: the range must increase strictly from start")
    meets, bound = _SWEEP_BOUNDS.get(param, (lambda v, _: True, None))
    errors += [f"sweep.{key}: {param} must be {bound}, got {v!r}"
               for v, key in bounded if not meets(v, 0.0)]
    checked = ([(v, key) for v, key in ends if meets(v, 0.0)]
               if param in _SWEEP_FIELDS and not no_phase else [])

    def point_errors(v, key):
        try:
            whys = scale_violations(_sweep_variant(cfg, param, v))
        except ConfigError as exc:  # a field the point cannot even be built with
            whys = exc.violations
        return [f"sweep.{key}: {param} {v!r} gives {why}" for why in whys]
    errors += [e for v, key in checked for e in point_errors(v, key)]
    if errors:
        raise violations_error("sweep", errors, text, root="sweep")
    return param, values, models


def _parameter_error(val) -> str | None:
    if not (isinstance(val, str) and val in _SWEEP_FIELDS):
        return f"expected one of {', '.join(_SWEEP_FIELDS)}, got {val!r}"
    return None


def _models_error(val) -> str | None:
    if not (isinstance(val, list) and val and all(isinstance(m, str) for m in val)):
        return "expected a nonempty list of model names"
    return None


def _values_error(val) -> str | None:
    return None if isinstance(val, list) and val else "expected a nonempty list of numbers"


def _count_error(val) -> str | None:
    if isinstance(val, bool) or not isinstance(val, int) or val < 2:
        return "expected an integer >= 2"
    return None


def _sweep_variant(cfg: SimulationConfig, param: str, value: float) -> SimulationConfig:
    """One point of a sweep: the swept fields replaced and the grid rebuilt.
    The grid depends only on the pump and the filters, so every model of a
    swept value shares it."""
    variant = dataclasses.replace(cfg, **_SWEEP_FIELDS[param](cfg, value))
    grid = build_temporal_grid(variant.pump, [variant.signal_filter, variant.idler_filter],
                               span_sigmas=cfg.span_sigmas, n_points=cfg.grid.n_points)
    return dataclasses.replace(variant, grid=grid)


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, grid_points=args.grid_points,
                      span_sigmas=args.span_sigmas)
    param, values, models = _load_sweep_spec(args.sweep, cfg)
    conjugated = not args.non_conjugated_eta

    header = [param, "model", "eta"]
    if args.non_conjugated_eta:
        header.append("eta_imag")
    header += ["purity", "nu", "n_schmidt_modes_99", "warnings"]

    rows = []
    for value in values:
        point = _sweep_variant(cfg, param, value)
        for model in models:
            _, _, pm, notes = _evaluate(dataclasses.replace(point, model=model),
                                        conjugated=conjugated,
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
        print("configuration invalid:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"filesystem error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
