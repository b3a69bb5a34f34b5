#!/usr/bin/env python3
"""The identity corpus: named CLI cases whose outputs a change must reproduce.

    PYTHONPATH=src python3 tests/identity.py record [--large] [--only NAME ...]
    PYTHONPATH=src python3 tests/identity.py check [--large] [--only NAME ...]
    PYTHONPATH=src python3 tests/identity.py sample OUT.json [--count 600] [--seed 29]
    python3 tests/identity.py compare PARENT.json CHANGE.json

``record`` runs every case through ``sfwmsim.cli.main`` in-process, in a fresh
temporary directory, and writes ``tests/data/identity_manifest.json``: per
case the exit code, stdout and stderr (the temporary directory replaced by
``<tmp>``), the sha256 of every output file, the full figures of
``metrics.json`` and of a sweep table, and for each matrix and marginal CSV
its largest magnitude, Frobenius norm and a few fixed entries. ``check``
reruns the cases and reports each as identical, within tolerance (with the
largest relative move and where it lies) or changed, and exits 1 if any
changed. A case is within tolerance when its exit code, stdout and stderr
are equal, every matrix and marginal CSV has the recorded sha256, every
other file's figures are within ``TOLERANCE`` relative and every text field
is equal. A scalar's move is taken relative to the larger magnitude of the
two values, a list's (the Schmidt weights) relative to its largest entry.
Cases at N > 256 are marked large and run only with ``--large``; the tier-1
test (``test_identity.py``) checks the others. ``--only`` re-records or
checks the named cases alone, leaving the other manifest entries as they are.
The sha256s hold for one numpy and BLAS build; another may need a fresh record.
The last bits of the Schmidt weights also depend on the BLAS thread count, so
``check`` first prints the numpy version, the BLAS build and its thread settings.

``sample`` evaluates a seeded set of random configurations with
``compute_pair_metrics`` and writes every figure (η and ν as hex, the
weights as a list) to a JSON file; ``compare`` reports, between two such
files written by two trees, which figures are bit-identical and the largest
move of the others. The set draws every tier, Δβ₀ in [−30, 30] for the
``sinc`` and ``general_quadrature`` tiers with half of the latter lossy,
one or both sides filtered, λ and μ in [0.1, 3], N from 64 to 2048, and one
in ten with the unconjugated η.

Standard library and numpy only, besides the package under test.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "data" / "identity_manifest.json"
TOLERANCE = 1e-13  # the largest relative move of a figure that is not a change

MATRIX_FILES = ["jta.csv", "jta_magnitude.csv", "jta_phase.csv", "jsa.csv",
                "jsa_magnitude.csv", "jsa_phase.csv", "marginal_signal.csv",
                "marginal_idler.csv"]

# the README config: 1 W, 1 ps pump (sigma_w = 0.5 rad/ps), gamma L = 0.608
GAMMA, LENGTH, SIGMA_W = 121.6, 0.005, 0.5
MODELS = ["linear", "simple_sxpm", "sinc", "general_quadrature"]


def config(model="simple_sxpm", phi=None, lam=2.0, mu=2.0, n=64, span=8.0, P0=None,
           sigma_t=1.0, **waveguide):
    """A config dict on the README pump and guide. ``phi`` sets P0 = phi / (gamma L);
    a ratio of 0 leaves that side unfiltered."""
    if P0 is None:
        P0 = 1.0 if phi is None else phi / (GAMMA * LENGTH)

    def side(ratio):
        return {"shape": "none"} if ratio == 0 else {"shape": "gaussian",
                                                      "sigma_f": SIGMA_W / ratio}
    return {"pump": {"P0": P0, "sigma_t": sigma_t},
            "waveguide": {"length": LENGTH, "gamma": GAMMA, **waveguide},
            "filters": {"signal": side(lam), "idler": side(mu)},
            "grid": {"n_points": n, "span_sigmas": span},
            "model": model}


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    command: str  # simulate, sweep or validate
    config: dict | str  # a config dict, or the raw text of a config file
    sweep: dict | None = None
    flags: tuple[str, ...] = ()

    @property
    def large(self) -> bool:
        """A case at N > 256, run only by hand."""
        return self.name.startswith("large-")


LOSSY = {"alpha": 20.0, "alpha2_P": 5.0, "delta_beta0": 30.0}
PHIS = [0.13, 0.37, 0.52, 0.78, 0.91, 1.16, 1.43, 1.71, 1.98]

CASES = [
    *(Case(f"simulate-{m}-64", "simulate", config(m, n=64)) for m in MODELS),
    *(Case(f"simulate-{m}-256", "simulate", config(m, phi=1.5, n=256)) for m in MODELS),
    Case("simulate-sinc-dbeta+30", "simulate", config("sinc", phi=1.2, delta_beta0=30.0)),
    Case("simulate-sinc-dbeta-30", "simulate",
         config("sinc", phi=1.2, lam=1.3, mu=2.7, delta_beta0=-30.0, n=128)),
    Case("simulate-general-lossy", "simulate",
         config("general_quadrature", phi=1.5, lam=1.3, mu=2.7, n=128, **LOSSY)),
    Case("simulate-unequal-filters-256", "simulate",
         config("simple_sxpm", phi=2.0, lam=0.5, mu=3.0, n=256)),
    Case("simulate-signal-only-64", "simulate", config("simple_sxpm", phi=1.5, mu=0)),
    Case("simulate-signal-only-256", "simulate", config("sinc", phi=1.0, lam=0.7, mu=0,
                                                        n=256, delta_beta0=12.0)),
    Case("simulate-idler-only-64", "simulate", config("simple_sxpm", phi=1.5, lam=0)),
    Case("simulate-idler-only-256", "simulate",
         config("general_quadrature", phi=1.0, lam=0, mu=2.5, n=256, **LOSSY)),
    Case("simulate-non-conjugated", "simulate", config("simple_sxpm", phi=1.0, n=128),
         flags=("--non-conjugated-eta",)),
    Case("simulate-as-printed", "simulate", config("general_quadrature", phi=1.0, **LOSSY),
         flags=("--as-printed-eq9",)),
    Case("simulate-both-flags-idler-only", "simulate",
         config("general_quadrature", phi=1.0, lam=0, **LOSSY),
         flags=("--non-conjugated-eta", "--as-printed-eq9")),
    Case("simulate-zero-pump", "simulate", config("simple_sxpm", P0=0.0)),
    Case("simulate-subnormal-pump", "simulate", config("linear", P0=1e-310)),
    Case("simulate-underflowing-eta", "simulate", config("sinc", P0=1e-200, mu=0)),
    Case("simulate-grid-flags", "simulate", config("linear", phi=0.5),
         flags=("--grid-points", "128", "--span-sigmas", "6")),
    # a window that fails the check after the SVD: the spectrum is taken on every row
    Case("simulate-sinc-window-fallback", "simulate",
         config("sinc", phi=1.48, lam=1.14, mu=2.9, delta_beta0=16.3, n=64)),
    Case("sweep-phi-all-tiers", "sweep", config(n=128),
         {"parameter": "phi_max", "values": PHIS, "models": MODELS}),
    Case("sweep-phi-range-unequal", "sweep", config(lam=1.2, mu=2.6, n=128),
         {"parameter": "phi_max", "start": 0.0, "stop": 2.0, "count": 5,
          "models": ["simple_sxpm", "sinc"]}),
    Case("sweep-lambda", "sweep", config(phi=1.0, mu=0, n=128),
         {"parameter": "lambda", "values": [0.3, 1.0, 2.0, 3.0],
          "models": ["linear", "simple_sxpm"]}),
    Case("sweep-mu", "sweep", config("sinc", phi=1.0, n=128, delta_beta0=-8.0),
         {"parameter": "mu", "values": [0.2, 1.1, 2.9], "models": ["sinc"]}),
    Case("sweep-sigma-t", "sweep", config(phi=0.8, n=64),
         {"parameter": "sigma_t", "values": [0.5, 1.0, 2.0], "models": ["simple_sxpm"]}),
    Case("sweep-delta-beta0", "sweep", config("sinc", phi=1.5, n=64),
         {"parameter": "delta_beta0", "start": -30.0, "stop": 30.0, "count": 7,
          "models": ["sinc", "general_quadrature"]}),
    Case("sweep-lossy-both-flags", "sweep", config("general_quadrature", n=64, **LOSSY),
         {"parameter": "phi_max", "values": [0.0, 0.5, 1.5], "models": ["general_quadrature"]},
         flags=("--non-conjugated-eta", "--as-printed-eq9")),
    Case("sweep-phi-idler-only", "sweep", config(lam=0, mu=1.5, n=64),
         {"parameter": "phi_max", "values": [0.0, 1e-300, 0.7], "models": MODELS}),
    Case("validate-readme", "validate", config(n=512)),
    Case("validate-regime-check", "validate",
         {**config(), "regime_check": {"photon_energy": 1.28e-19, "sigma_FCA": 1.45e-21,
                                       "T0": 1e-12, "I0": 1e14}}),
    Case("exit2-bad-config", "simulate",
         {**config(), "filters": {"signal": {"shape": "gaussian", "sigma_f": -1.0},
                                  "idler": {"shape": "box"}}, "extra": 1}),
    Case("exit2-not-json", "validate", '{"pump": {"P0": 1.0,\n'),
    Case("exit2-bad-sweep", "sweep", config(),
         {"parameter": "phi_max", "values": [0.5, -0.1, 0.2], "models": ["linear", "linear"]}),
    Case("exit2-simulate-memory", "simulate", config(), flags=("--grid-points", "8192")),
    Case("exit3-nu-above-one", "simulate", config("linear", phi=0.1, lam=0.01, mu=0.01,
                                                  n=256)),
    Case("exit3-wide-pulse", "simulate", config("linear", phi=0.1, sigma_t=1e150)),
    # the benchmark's workloads and simulate at large N, run by hand
    Case("large-sweep-phi-512", "sweep", config(n=512),
         {"parameter": "phi_max", "values": PHIS, "models": MODELS}),
    Case("large-sweep-lambda-1024", "sweep", config(lam=2.0, mu=2.0, n=1024),
         {"parameter": "lambda", "values": [1.37], "models": MODELS}),
    Case("large-simulate-512", "simulate", config(n=512)),
    Case("large-simulate-1024", "simulate", config(n=1024)),
    Case("large-simulate-2048", "simulate", config(n=2048)),
]


def run_case(case: Case, recorded: dict | None = None) -> dict:
    """Run one case in a fresh temporary directory; returns its record. Against
    a ``recorded`` one, the invariants of a matrix or marginal CSV are taken
    only where its bytes differ."""
    from sfwmsim.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = root / "config.json"
        cfg.write_text(case.config if isinstance(case.config, str)
                       else json.dumps(case.config, indent=2))
        out = root / ("out" if case.command == "simulate" else "sweep.csv")
        argv = [case.command, "--config", str(cfg), *case.flags]
        if case.command == "sweep":
            spec = root / "sweep.json"
            spec.write_text(json.dumps(case.sweep, indent=2))
            argv += ["--sweep", str(spec)]
        if case.command != "validate":
            argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        record = {"exit": code,
                  "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
                  "stderr": stderr.getvalue().replace(tmp, "<tmp>"),
                  "sha256": {}, "figures": {}, "invariants": {}}
        files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            record["sha256"][path.name] = digest
            if path.name in MATRIX_FILES:
                if recorded is None or recorded["sha256"].get(path.name) != digest:
                    record["invariants"][path.name] = invariants(path)
            elif path.suffix == ".json":
                record["figures"][path.name] = json.loads(path.read_text())
            else:
                with open(path, newline="", encoding="utf-8") as fh:
                    record["figures"][path.name] = list(csv.reader(fh))
    return record


def invariants(path: Path) -> dict:
    """Largest magnitude, Frobenius norm and a few fixed entries of the values in
    a matrix or marginal CSV: enough to tell a round-off move from a real one."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] == 4:  # (row, col, re, im) triplets
        values = data[:, 2] + 1j * data[:, 3]
    elif path.name.startswith("marginal"):
        values = data[:, 1]
    else:  # a grid: the first column holds the row coordinates
        values = data[:, 1:].ravel()
    picks = np.linspace(0, values.size - 1, 7).astype(int)
    return {"max_abs": float(np.max(np.abs(values))),
            "frobenius": float(np.linalg.norm(values)),
            "entries": [[float(v.real), float(v.imag)] for v in values[picks]]}


def relative_move(old, new):
    """The largest relative move between two figures, 0 for equal text, or None
    where they differ in kind, length or text."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return None
        return _largest(relative_move(old[k], new[k]) for k in old)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return None
        if old and all(_is_number(x) for x in old + new):
            scale = max(abs(float(x)) for x in old + new)
            diff = max(abs(float(a) - float(b)) for a, b in zip(old, new))
            return 0.0 if diff == 0.0 else diff / scale
        return _largest(relative_move(a, b) for a, b in zip(old, new))
    if _is_number(old) and _is_number(new):
        a, b = float(old), float(new)
        return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
    return 0.0 if old == new else None


def _is_number(x) -> bool:
    """A float or int figure, or a CSV cell that reads as a finite one."""
    if isinstance(x, bool) or x is None:
        return False
    try:
        return math.isfinite(float(x))
    except (TypeError, ValueError):
        return False


def _largest(moves):
    moves = list(moves)
    return None if None in moves else max(moves, default=0.0)


def compare(old: dict, new: dict) -> tuple[str, str]:
    """(status, detail) of a case against its record: identical, within
    tolerance or changed."""
    why = [f"{key} differs" for key in ("exit", "stdout", "stderr") if old[key] != new[key]]
    if old["sha256"].keys() != new["sha256"].keys():
        why.append(f"files {sorted(old['sha256'])} -> {sorted(new['sha256'])}")
    for name, digest in old["sha256"].items():
        if name in MATRIX_FILES and new["sha256"].get(name, digest) != digest:
            move = relative_move(old["invariants"][name], new["invariants"][name])
            why.append(f"{name} bytes differ (invariants moved by {move})")
    largest, where = 0.0, ""
    for name, figures in old["figures"].items():
        move = relative_move(figures, new["figures"].get(name))
        if move is None or move > TOLERANCE:
            why.append(f"{name} figures moved by {move}")
        elif move > largest:
            largest, where = move, name
    if why:
        return "changed", "; ".join(why)
    if all(old[key] == new[key] for key in ("exit", "stdout", "stderr", "sha256", "figures")):
        return "identical", ""
    return "within tolerance", f"largest relative move {largest:.3g} in {where}"


def selected(large: bool, only) -> list[Case]:
    names = {case.name for case in CASES}
    unknown = sorted(set(only) - names)
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    return [case for case in CASES
            if (case.name in only if only else large or not case.large)]


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}


def check(large: bool = False, only=()) -> dict[str, tuple[str, str]]:
    """Rerun the selected cases against the manifest: {name: (status, detail)}."""
    manifest = load_manifest()
    return {case.name: (compare(manifest[case.name], run_case(case, manifest[case.name]))
                        if case.name in manifest else ("changed", "not in the manifest"))
            for case in selected(large, only)}


def record(large: bool = False, only=()) -> None:
    manifest = load_manifest()
    for case in selected(large, only):
        manifest[case.name] = run_case(case)
    ordered = {case.name: manifest[case.name] for case in CASES if case.name in manifest}
    MANIFEST.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")


def build_info() -> str:
    """The numpy version, BLAS build and BLAS thread settings of this process.
    OpenBLAS runs one thread per CPU unless an environment variable caps it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        name = "unknown"
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return f"numpy {np.__version__}, BLAS {name}; {threads}; {os.cpu_count()} CPUs"


def random_configurations(count: int = 600, seed: int = 29) -> list[dict]:
    """The seeded random set: one dict of ``config`` keywords (plus
    ``conjugated``) per configuration."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        model = MODELS[rng.integers(len(MODELS))]
        lam, mu = (float(r) for r in rng.uniform(0.1, 3.0, 2))
        sides = int(rng.integers(4))  # 0, 1: both filtered; 2: signal only; 3: idler only
        kw = {"model": model, "phi": float(rng.uniform(0.0, 2.0)),
              "lam": 0.0 if sides == 3 else lam, "mu": 0.0 if sides == 2 else mu,
              "n": int(2 ** rng.integers(6, 12)), "conjugated": bool(rng.random() >= 0.1)}
        if model in ("sinc", "general_quadrature"):
            kw["delta_beta0"] = float(rng.uniform(-30.0, 30.0))
        if model == "general_quadrature" and rng.random() < 0.5:
            kw.update(alpha=float(rng.uniform(0.0, 40.0)), alpha2_P=float(rng.uniform(0.0, 10.0)))
        draws.append(kw)
    return draws


def sample(count: int, seed: int) -> list[dict]:
    """Every figure of ``compute_pair_metrics`` on the random set."""
    from sfwmsim import FilterPair, build_diagonal_jta, compute_pair_metrics, config_from_dict
    from sfwmsim.metrics import schmidt_mode_count

    rows = []
    for kw in random_configurations(count, seed):
        kw = dict(kw)
        conjugated = kw.pop("conjugated")
        cfg = config_from_dict(config(**kw))
        diag = build_diagonal_jta(cfg.model, cfg.pump, cfg.waveguide, cfg.grid)
        pm = compute_pair_metrics(diag, FilterPair(cfg.signal_filter, cfg.idler_filter),
                                  conjugated=conjugated)
        weights = pm.schmidt_weights
        rows.append({"config": kw, "conjugated": conjugated, "eta": pm.eta.hex(),
                     "eta_imag": None if pm.eta_imag is None else pm.eta_imag.hex(),
                     "nu": None if pm.nu is None else pm.nu.hex(),
                     "purity": pm.purity,
                     "weights": None if weights is None else weights.tolist(),
                     "n99": None if weights is None else schmidt_mode_count(weights),
                     "notes": list(pm.notes)})
    return rows


def compare_samples(old: list[dict], new: list[dict]) -> dict:
    """Bit-identical counts of the exact figures, and the largest moves of
    the purity and the weights, apart for one- and two-sided filtering."""
    report = {"configurations": len(old), "identical": {}, "two_sided": {}, "one_sided": {}}
    for key in ("eta", "eta_imag", "nu", "n99", "notes"):
        report["identical"][key] = sum(a[key] == b[key] for a, b in zip(old, new))
    for a, b in zip(old, new):
        kind = "two_sided" if a["config"]["lam"] and a["config"]["mu"] else "one_sided"
        stats = report[kind]
        stats["count"] = stats.get("count", 0) + 1
        if a["weights"] is None or b["weights"] is None:
            stats["no_weights"] = stats.get("no_weights", 0) + (a["weights"] == b["weights"])
            continue
        wa, wb = np.array(a["weights"]), np.array(b["weights"])
        same_count = wa.size == wb.size
        stats["equal_kept_counts"] = stats.get("equal_kept_counts", 0) + same_count
        stats["bit_identical"] = stats.get("bit_identical", 0) + (
            same_count and bool(np.array_equal(wa, wb)) and a["purity"] == b["purity"])
        if same_count:
            stats["max_weight_move"] = max(stats.get("max_weight_move", 0.0),
                                           float(np.max(np.abs(wa - wb))))
        stats["max_purity_move"] = max(stats.get("max_purity_move", 0.0),
                                       abs(a["purity"] - b["purity"]))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("record", "check"):
        p = sub.add_parser(mode)
        p.add_argument("--large", action="store_true", help="also the cases at N > 256")
        p.add_argument("--only", nargs="+", default=(), metavar="NAME")
    p = sub.add_parser("sample")
    p.add_argument("out")
    p.add_argument("--count", type=int, default=600)
    p.add_argument("--seed", type=int, default=29)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)

    if args.mode == "record":
        record(args.large, args.only)
        return 0
    if args.mode == "check":
        print(build_info())
        results = check(args.large, args.only)
        for name, (status, detail) in results.items():
            print(f"{name}: {status}" + (f" ({detail})" if detail else ""))
        return int(any(status == "changed" for status, _ in results.values()))
    if args.mode == "sample":
        Path(args.out).write_text(json.dumps(sample(args.count, args.seed)) + "\n")
        return 0
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    print(json.dumps(compare_samples(old, new), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
