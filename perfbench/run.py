#!/usr/bin/env python3
"""End-to-end benchmark of sfwmsim, driven through ``sfwmsim.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there, never from an installed copy. One closed-loop client in one
worker process at a time sends the next operation (one ``cli.main`` call)
when the last one has returned. BLAS threads are pinned to the number of
CPUs this process may use.

Workloads (inputs drawn from ``--seed``, see ``workloads.py``):
``sweep_phi_512``, ``simulate_256`` and ``sweep_lambda_1024``.

``--trace 0`` runs ``SETUP_REPEATS`` fresh workers. Each times its
``import sfwmsim`` plus its first, cold operation (``setup_s``), then runs
warm operations for its share of ``--seconds``. Reported, as medians:

- ``cfg_per_s``    configurations evaluated per second of warm op time
- ``op_s.p50``     median wall time of a warm operation
- ``op_s.tail``    the highest percentile with at least ten warm samples
                   beyond it, and at least the median; the percentile and
                   the sample count are printed beside it
- ``setup_s``      median over workers of import plus the cold operation
- ``peak_rss_mb``  median over workers of the worker's ``ru_maxrss``
- ``out_mb``       median bytes written per warm operation

``--trace 1`` runs one worker that alternates untraced and traced warm
operations and reports per-configuration calls, total and self time of each
layer boundary in ``spans.py``, with ``trace.overhead_frac`` (traced over
untraced median op time, minus one).

Every operation's output is checked against ``oracle.py`` after the timed
region; an operation fails on a nonzero exit code, an exception or a
mismatch. ``failed``/``attempted`` in the last line give ``fail_frac``.
The last line of standard output is the JSON result; details, spans and
worker logs stay in ``perfbench/.runs/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

SETUP_REPEATS = 3
MAX_OPS = 48  # operations per run, cold ones included; bounds oracle time
DEADLINE_S = 170.0

END_TO_END = {
    "cfg_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def _run_worker(job: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    job_path = run_dir / f"job{tag}.json"
    result_path = run_dir / f"worker{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(job["blas_threads"])
    with open(run_dir / f"worker{tag}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT))
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker {tag} ran past the deadline")
    if code != 0:
        raise RuntimeError(f"worker {tag} exited with {code}; see its log in {run_dir}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _errors(wl, record: dict, refs) -> list[str]:
    """Why one operation failed; empty when it passed."""
    if record["error"] is not None:
        return [record["error"]]
    if record["code"] != 0:
        return [f"exit code {record['code']}"]
    op = wl.ops[record["index"]]
    if wl.kind == "simulate":
        if record["metrics"] is None:
            return ["no metrics.json"]
        return oracle.check_simulate(record, op.points[0], refs)
    if record["text"] is None:
        return ["no sweep output"]
    reader = csv.DictReader(io.StringIO(record["text"]))
    rows = list(reader)
    return oracle.check_sweep(rows, reader.fieldnames or [], op.sweep["parameter"],
                              op.sweep["values"], op.points, refs)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile that
    has at least ten samples beyond it, by nearest rank. Below twenty samples
    no such percentile reaches the median, so the median is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(50.0, 100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return max(ordered[rank - 1], statistics.median(ordered)), pct, n - rank


def run(workload: str, seed: int, seconds: float, trace: bool,
        n_points: int | None = None) -> dict:
    """Run one benchmark run and return its result with details."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    wl = workloads.generate(workload, seed, run_dir, MAX_OPS, n_points)
    threads = blas_threads()
    base = {"src": str(SRC), "kind": wl.kind, "blas_threads": threads}

    workers = []
    if trace:
        job = dict(base, mode="trace", warm_s=seconds,
                   ops=[{"argv": op.argv, "out": op.out} for op in wl.ops])
        workers.append(_run_worker(job, run_dir, "0", deadline))
    else:
        used = 0
        for j in range(SETUP_REPEATS):
            stop = MAX_OPS - (SETUP_REPEATS - 1 - j)
            ops = [{"argv": op.argv, "out": op.out} for op in wl.ops[used:stop]]
            job = dict(base, mode="measure", warm_s=seconds / SETUP_REPEATS, ops=ops)
            result = _run_worker(job, run_dir, str(j), deadline)
            for record in result["ops"]:
                record["index"] += used
            used += len(result["ops"])
            workers.append(result)

    # correctness, outside every timed region
    refs = oracle.References()
    records = []
    for result in workers:
        for k, record in enumerate(result["ops"]):
            record["cold"] = k == 0
            record["errors"] = _errors(wl, record, refs)
            records.append(record)
    failures = [r for r in records if r["errors"]]

    warm = [r for r in records if not r["cold"]]
    first = workers[0]
    env = {"nproc": threads, "blas_threads": threads, "blas": first["blas"],
           "numpy": first["numpy"], "python": first["python"]}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "environment": env,
               "configs_per_op": wl.configs_per_op,
               "ops": [{k: r[k] for k in ("index", "cold", "traced", "seconds",
                                          "bytes", "code", "errors")}
                       for r in records]}

    if trace:
        traced = [r["seconds"] for r in warm if r["traced"]]
        untraced = [r["seconds"] for r in warm if not r["traced"]]
        metrics = spans.per_layer(first["spans"], wl.configs_per_op * len(traced))
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(untraced) - 1.0)
        units = {name: unit for name, (unit, _) in spans.per_layer_units().items()}
        spans.write_spans(first["spans"], run_dir / "spans.jsonl")
    else:
        times = [r["seconds"] for r in warm]
        tail_s, tail_pct, beyond = tail(times)
        details["op_s.tail"] = {"percentile": tail_pct, "samples": len(times),
                                "beyond": beyond}
        metrics = {
            "cfg_per_s": wl.configs_per_op * len(times) / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_s,
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": statistics.median(w["maxrss_kib"] * 1024 / 1e6 for w in workers),
            "out_mb": statistics.median(r["bytes"] for r in warm) / 1e6,
        }
        units = END_TO_END

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details["result"] = result
    (run_dir / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir / "outputs", ignore_errors=True)
    return details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sfwmsim" / "cli.py").is_file():
        print(f"no sfwmsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = details["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    ops = details["ops"]
    n_cold = sum(op["cold"] for op in ops)
    print(f"{args.workload} seed {args.seed}: {n_cold} cold + {len(ops) - n_cold} warm "
          f"operations of {details['configs_per_op']} configurations")
    if "op_s.tail" in details:
        t = details["op_s.tail"]
        print(f"op_s.tail is p{t['percentile']:.1f} of {t['samples']} warm operations "
              f"({t['beyond']} beyond it)")
    result = details["result"]
    print(f"fail_frac: {result['failed']}/{result['attempted']}")
    for op in ops:
        for error in op["errors"][:3]:
            print(f"operation {op['index']} failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
