"""Independent reference values for the benchmark's correctness check.

Nothing here imports sfwmsim. The linear tier is checked against the
Gaussian closed forms; every other tier against a dense trapezoid
convolution of the diagonal amplitude with both filter kernels followed by
``numpy.linalg.svd``. The diagonal amplitudes are the lossless, closed-form
expressions of each tier (the lossless ``general_quadrature`` integral is
``i sin(gamma P L) exp(3i gamma P L)``), so a fast path in the package is
checked against arithmetic it does not share.

A *point* is a plain dict describing one configuration: ``model``, ``P0``,
``sigma_t``, ``gamma``, ``length``, ``delta_beta0``, ``sigma_fs``,
``sigma_fi`` (rad/ps), ``n_points`` and ``span_sigmas``.
"""

from __future__ import annotations

import math

import numpy as np

# eta, purity and nu must match the reference to this relative tolerance
RTOL = 1e-9
# The dense reference runs on at most this many points. eta, purity and nu are
# continuum quantities; over the workloads' parameter ranges a 512-point grid
# already reproduces the 1024- and 2048-point answers to ~1e-15.
REF_POINTS = 512


def grid_tau(point: dict) -> tuple[np.ndarray, float]:
    """Sample times and step of the centred grid spanning +-span_sigmas of the
    slowest feature (the pulse width or the broadest filter kernel)."""
    sigma_eff = max(point["sigma_t"], 1.0 / point["sigma_fs"], 1.0 / point["sigma_fi"])
    n = min(point["n_points"], REF_POINTS)
    dt = point["span_sigmas"] * sigma_eff * 2.0 / n
    return (np.arange(n) - n // 2) * dt, dt


def diagonal_amplitude(point: dict, tau: np.ndarray) -> np.ndarray:
    """Unfiltered diagonal amplitude of a lossless waveguide."""
    theta = (point["gamma"] * point["length"] * point["P0"]
             * np.exp(-tau ** 2 / (2.0 * point["sigma_t"] ** 2)))
    model = point["model"]
    if model == "linear":
        return 1j * theta
    if model == "simple_sxpm":
        return 1j * theta * np.exp(3j * theta)
    if model in ("sinc", "general_quadrature"):
        # sinc with delta_beta0 = 0 equals the lossless z-integral exactly
        db_l = point["delta_beta0"] * point["length"] if model == "sinc" else 0.0
        x = db_l / 2.0 - theta
        sinc = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
        return 1j * theta * np.exp(1j * (3.0 * theta + db_l / 2.0)) * sinc
    raise ValueError(f"no reference amplitude for model {model!r}")


def closed_form_linear(point: dict) -> dict:
    """Weak-pump Gaussian closed forms for eta, purity and nu."""
    sigma_w = 1.0 / (2.0 * point["sigma_t"])
    lam = sigma_w / point["sigma_fs"]
    mu = sigma_w / point["sigma_fi"]
    phi = point["gamma"] * point["length"] * point["P0"]
    d = lam ** 2 + mu ** 2 + 2.0 * lam ** 2 * mu ** 2
    return {
        "eta": phi ** 2 / (2.0 * math.sqrt(2.0) * math.sqrt(d)),
        "purity": math.sqrt(1.0 - 1.0 / ((1.0 + 2.0 * lam ** 2) * (1.0 + 2.0 * mu ** 2))),
        "nu": lam / math.sqrt(d),
    }


def _kernel(sigma_f: float, tau: np.ndarray) -> np.ndarray:
    sep = tau[:, None] - tau[None, :]
    return math.sqrt(2.0) * sigma_f * np.exp(-(sigma_f * sep) ** 2)


def dense_reference(point: dict) -> dict:
    """eta, purity, nu and the Schmidt weights from the dense filtered matrix.

    M[j, k] = (1/2pi) sum_u w_u a(tau_j - u) b(tau_k - u) JTA(u); eta is its
    weighted squared norm, purity the fourth-power sum of its normalised
    singular values, nu the ratio of eta to the signal-only pair probability.
    """
    tau, dt = grid_tau(point)
    w = np.full(tau.size, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    jta = diagonal_amplitude(point, tau)
    v = w * jta
    a = _kernel(point["sigma_fs"], tau)
    bt = _kernel(point["sigma_fi"], tau).T
    m = ((a * v.real) @ bt + 1j * ((a * v.imag) @ bt)) / (2.0 * math.pi)
    sw = np.sqrt(w)
    s = np.linalg.svd(sw[:, None] * m * sw[None, :], compute_uv=False)
    eta = float(np.sum(s ** 2))
    g = s / math.sqrt(eta)
    eta_signal = (point["sigma_fs"] * math.sqrt(2.0 * math.pi) / (2.0 * math.pi)
                  * float(np.sum(w * np.abs(jta) ** 2)))
    return {"eta": eta, "purity": float(np.sum(g ** 4)), "nu": eta / eta_signal,
            "weights": g}


def reference(point: dict) -> dict:
    """Reference figures of merit for one point."""
    if point["model"] == "linear":
        return closed_form_linear(point)
    return dense_reference(point)


class References:
    """Reference values computed once per distinct point."""

    def __init__(self):
        self._cache: dict[str, dict] = {}

    def __call__(self, point: dict) -> dict:
        key = repr(sorted(point.items()))
        if key not in self._cache:
            self._cache[key] = reference(point)
        return self._cache[key]


def _close(name: str, got, want: float, errors: list[str], where: str) -> None:
    try:
        got = float(got)
    except (TypeError, ValueError):
        errors.append(f"{where}: {name} is {got!r}, expected a number")
        return
    if not abs(got - want) <= RTOL * abs(want):
        errors.append(f"{where}: {name} {got!r} differs from reference {want!r}")


def _check_mode_count(count, weights: np.ndarray, errors: list[str], where: str) -> None:
    """Modes holding 99 % of the power; counts within 1e-9 of the threshold
    either way are accepted."""
    cum = np.cumsum(weights ** 2)
    try:
        c = int(count)
    except (TypeError, ValueError):
        errors.append(f"{where}: n_schmidt_modes_99 is {count!r}")
        return
    if not (1 <= c <= cum.size and cum[c - 1] >= 0.99 - 1e-9
            and (c == 1 or cum[c - 2] < 0.99 + 1e-9)):
        errors.append(f"{where}: n_schmidt_modes_99 {c} disagrees with the reference")


def check_figures(row: dict, ref: dict, errors: list[str], where: str) -> None:
    """Compare eta, purity, nu (and the mode count where the reference has
    weights) of one output row or metrics document."""
    for name in ("eta", "purity", "nu"):
        _close(name, row.get(name), ref[name], errors, where)
    if "weights" in ref and "n_schmidt_modes_99" in row:
        _check_mode_count(row["n_schmidt_modes_99"], ref["weights"], errors, where)


def check_sweep(rows: list[dict], header: list[str], parameter: str,
                values: list[float], points: list[dict], refs: References) -> list[str]:
    """Errors in one sweep CSV (already parsed) against its points."""
    errors = []
    missing = [c for c in (parameter, "model", "eta", "purity", "nu", "n_schmidt_modes_99")
               if c not in header]
    if missing:
        errors.append(f"sweep header {header!r} lacks {missing!r}")
        return errors
    if len(rows) != len(points):
        errors.append(f"sweep has {len(rows)} rows, expected {len(points)}")
        return errors
    n_models = len(points) // len(values)
    for i, (row, point) in enumerate(zip(rows, points)):
        where = f"row {i + 1}"
        if row["model"] != point["model"]:
            errors.append(f"{where}: model {row['model']!r}, expected {point['model']!r}")
            continue
        _close(parameter, row[parameter], values[i // n_models], errors, where)
        check_figures(row, refs(point), errors, where)
    return errors


SIMULATE_FILES = ("metrics.json", "jta.csv", "jta_magnitude.csv", "jta_phase.csv",
                  "jsa.csv", "jsa_magnitude.csv", "jsa_phase.csv",
                  "marginal_signal.csv", "marginal_idler.csv")


def check_simulate(record: dict, point: dict, refs: References) -> list[str]:
    """Errors in one simulate output, summarised as {"lines": {file: count},
    "metrics": metrics.json}: the nine-file set, each file's line count and the
    metrics.json scalars."""
    errors = []
    n = point["n_points"]
    lines = record["lines"]
    if sorted(lines) != sorted(SIMULATE_FILES):
        errors.append(f"output files {sorted(lines)!r}, expected {sorted(SIMULATE_FILES)!r}")
        return errors
    for name, count in lines.items():
        if name == "metrics.json":
            continue
        want = n * n + 1 if name in ("jta.csv", "jsa.csv") else n + 1
        if count != want:
            errors.append(f"{name}: {count} lines, expected {want}")
    doc = record["metrics"]
    where = "metrics.json"
    if doc.get("model") != point["model"]:
        errors.append(f"{where}: model {doc.get('model')!r}, expected {point['model']!r}")
    if doc.get("grid", {}).get("n_points") != n:
        errors.append(f"{where}: grid.n_points {doc.get('grid')!r}, expected {n}")
    sigma_w = 1.0 / (2.0 * point["sigma_t"])
    _close("phi_max", doc.get("phi_max"),
           point["gamma"] * point["length"] * point["P0"], errors, where)
    _close("lambda", doc.get("lambda"), sigma_w / point["sigma_fs"], errors, where)
    _close("mu", doc.get("mu"), sigma_w / point["sigma_fi"], errors, where)
    ref = refs(point)
    check_figures(doc, ref, errors, where)
    if "weights" in ref:
        got = np.asarray(doc.get("schmidt_weights") or [], dtype=float)
        k = min(got.size, ref["weights"].size)
        if k == 0 or not np.allclose(got[:k], ref["weights"][:k], rtol=0.0, atol=RTOL):
            errors.append(f"{where}: leading Schmidt weights differ from the reference")
    return errors
