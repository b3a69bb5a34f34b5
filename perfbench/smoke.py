#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at N=128 for one second, untraced and traced, and
checks that each result names exactly the metrics and units BENCHMARK.json
declares and that no operation failed. Then runs one operation per output
kind and checks that the oracle accepts it as written and flags perturbed
copies of it.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys

import oracle
import run
import workloads
from worker import _collect

SMOKE_POINTS = 128


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_runs(bench: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run(name, 0, 1.0, bool(trace), SMOKE_POINTS)["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace], f"{name} trace {trace}: metrics {got}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                   f"{name} trace {trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed")
            print(f"{name} trace {trace}: {result['attempted']} operations passed")


def _scaled(text: str, row: int, column: str, factor: float) -> str:
    """Copy of a sweep CSV with one cell multiplied by ``factor``."""
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    rows[row][column] = repr(float(rows[row][column]) * factor)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=reader.fieldnames, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def check_oracle_flags() -> None:
    sys.path.insert(0, str(run.SRC))
    import sfwmsim.cli as cli

    refs = oracle.References()
    for name in ("sweep_phi_512", "simulate_256"):
        run_dir = run.RUNS / f"smoke-{name}"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        wl = workloads.generate(name, 7, run_dir, 1, SMOKE_POINTS)
        op = wl.ops[0]
        expect(cli.main(op.argv) == 0, f"{name}: operation failed")
        record = dict(_collect(wl.kind, op.out), index=0, code=0, error=None)
        expect(run._errors(wl, record, refs) == [], f"{name}: clean output flagged")

        perturbed = []
        if wl.kind == "sweep":
            for column in ("eta", "purity", "nu"):
                perturbed.append(dict(record, text=_scaled(record["text"], 5, column,
                                                           1.0 + 1e-6)))
            rows = record["text"].splitlines(keepends=True)
            perturbed.append(dict(record, text="".join(rows[:-1])))
        else:
            for key in ("eta", "purity", "nu"):
                doc = dict(record["metrics"])
                doc[key] *= 1.0 + 1e-6
                perturbed.append(dict(record, metrics=doc))
            lines = dict(record["lines"])
            del lines["jsa_phase.csv"]
            perturbed.append(dict(record, lines=lines))
            lines = dict(record["lines"], **{"jta.csv": record["lines"]["jta.csv"] - 1})
            perturbed.append(dict(record, lines=lines))
        for i, copy in enumerate(perturbed):
            expect(run._errors(wl, copy, refs) != [], f"{name}: perturbation {i} passed")
        print(f"{name}: oracle flags all {len(perturbed)} perturbed copies")
        shutil.rmtree(run_dir)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_runs(bench)
    check_oracle_flags()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
