"""Seeded inputs for the benchmark's workloads.

Each workload is a sequence of operations; one operation is one
``sfwmsim.cli.main(argv)`` call. The seed draws the swept values, and the
program sees only the config and sweep JSON files written here. Every
operation also carries the points (one per output row, in row order) that
the oracle checks its output against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The example config of the README: ratio-2 filters, N = 512, phi_max ~ 0.61.
README_CONFIG = {
    "pump": {"P0": 1.0, "sigma_t": 1.0},
    "waveguide": {"length": 0.005, "gamma": 121.6, "alpha": 0.0,
                  "alpha2_P": 0.0, "delta_beta0": 0.0},
    "filters": {
        "signal": {"shape": "gaussian", "sigma_f": 0.25},
        "idler": {"shape": "gaussian", "sigma_f": 0.25},
    },
    "grid": {"n_points": 512, "span_sigmas": 8.0},
    "model": "simple_sxpm",
}
ALL_MODELS = ["linear", "simple_sxpm", "sinc", "general_quadrature"]

# Why each workload exists, and which layer it stresses or bypasses.
WORKLOADS = {
    "sweep_phi_512": (
        "36-row phi_max sweep, all four tiers, one shared (grid, filters): per-config "
        "metrics and kernels repeat, so plan reuse shows; jta_general stays measured; "
        "export idle"),
    "simulate_256": (
        "one simulate writing the nine-file layout: CSV export is over 80 % of the "
        "time; a single config, so plan reuse and low-rank SVD barely move it"),
    "sweep_lambda_1024": (
        "1-row lambda sweep at N=1024 with new filters and grid every op: dense "
        "O(N^3) filtered_jta and Schmidt SVD dominate time and peak memory"),
}


@dataclass
class Op:
    """One CLI call: its argv, the output it writes, and the points behind
    its output rows."""

    argv: list[str]
    out: str
    points: list[dict]
    sweep: dict | None = None


@dataclass
class Workload:
    name: str
    kind: str  # "sweep" or "simulate"
    ops: list[Op] = field(default_factory=list)

    @property
    def configs_per_op(self) -> int:
        return len(self.ops[0].points)


def _point(cfg: dict, model: str, n_points: int, **changes) -> dict:
    point = {
        "model": model,
        "P0": cfg["pump"]["P0"],
        "sigma_t": cfg["pump"]["sigma_t"],
        "gamma": cfg["waveguide"]["gamma"],
        "length": cfg["waveguide"]["length"],
        "delta_beta0": cfg["waveguide"]["delta_beta0"],
        "sigma_fs": cfg["filters"]["signal"]["sigma_f"],
        "sigma_fi": cfg["filters"]["idler"]["sigma_f"],
        "n_points": n_points,
        "span_sigmas": cfg["grid"]["span_sigmas"],
    }
    point.update(changes)
    return point


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _distinct_sorted(rng, low: float, high: float, count: int) -> list[float]:
    """``count`` strictly increasing draws from (low, high]."""
    while True:
        values = sorted(float(high - rng.uniform(0.0, high - low)) for _ in range(count))
        if all(b > a for a, b in zip(values, values[1:])):
            return values


def generate(name: str, seed: int, run_dir: Path, max_ops: int,
             n_points: int | None = None) -> Workload:
    """Write the inputs of ``max_ops`` operations of workload ``name`` into
    ``run_dir``. ``n_points`` replaces the workload's grid size (the smoke
    check runs every workload small)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    inputs = run_dir / "inputs"
    outputs = run_dir / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir()
    cfg = json.loads(json.dumps(README_CONFIG))
    scale = cfg["waveguide"]["gamma"] * cfg["waveguide"]["length"]
    sigma_w = 1.0 / (2.0 * cfg["pump"]["sigma_t"])

    if name == "sweep_phi_512":
        n = n_points or 512
        cfg["grid"]["n_points"] = n
        phis = _distinct_sorted(rng, 0.0, 2.0, 9)
        sweep = {"parameter": "phi_max", "values": phis, "models": ALL_MODELS}
        cfg_path = _write_json(inputs / "config.json", cfg)
        sweep_path = _write_json(inputs / "sweep.json", sweep)
        points = [_point(cfg, model, n, P0=phi / scale)
                  for phi in phis for model in ALL_MODELS]
        wl = Workload(name, "sweep")
        for i in range(max_ops):
            out = str(outputs / f"op{i}.csv")
            wl.ops.append(Op(["sweep", "--config", cfg_path, "--sweep", sweep_path,
                              "--out", out], out, points, sweep))
        return wl

    if name == "simulate_256":
        n = n_points or 256
        cfg["grid"]["n_points"] = n
        cfg["pump"]["P0"] = float(2.0 - rng.uniform(0.0, 2.0)) / scale
        cfg_path = _write_json(inputs / "config.json", cfg)
        points = [_point(cfg, cfg["model"], n)]
        wl = Workload(name, "simulate")
        for i in range(max_ops):
            out = str(outputs / f"op{i}")
            wl.ops.append(Op(["simulate", "--config", cfg_path, "--out", out],
                             out, points))
        return wl

    # sweep_lambda_1024: every operation gets its own lambda, hence its own
    # filters and grid, so nothing built for one operation serves the next.
    n = n_points or 1024
    cfg_path = _write_json(inputs / "config.json", cfg)
    wl = Workload(name, "sweep")
    for i in range(max_ops):
        lam = float(rng.uniform(1.0, 3.0))
        sweep = {"parameter": "lambda", "values": [lam], "models": ["simple_sxpm"]}
        sweep_path = _write_json(inputs / f"sweep{i}.json", sweep)
        out = str(outputs / f"op{i}.csv")
        point = _point(cfg, "simple_sxpm", n, sigma_fs=sigma_w / lam)
        wl.ops.append(Op(["sweep", "--config", cfg_path, "--sweep", sweep_path,
                          "--out", out, "--grid-points", str(n)], out, [point], sweep))
    return wl
