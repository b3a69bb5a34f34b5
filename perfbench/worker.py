"""One worker process of the benchmark: imports the package fresh, runs
operations through ``sfwmsim.cli.main`` and reports their timings.

Usage: python3 worker.py JOB.json RESULT.json

The job names the package's ``src`` directory, the argv and output path of
each operation it may run, the mode and the warm measuring time:

- ``measure``: the first operation is the cold one; ``setup_s`` is the time
  from just before ``import sfwmsim`` to its end. Warm operations follow
  until ``warm_s`` has passed (at least one).
- ``trace``: after an untimed cold operation, untraced and traced operations
  alternate until ``warm_s`` has passed (at least one of each); the traced
  ones record spans.

After each operation, outside its timing, the worker summarises the output
for the oracle, deletes it and collects garbage.
"""

import gc
import json
import os
import resource
import shutil
import sys
import time


def _count_lines(path: str) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines


def _collect(kind: str, out: str) -> dict:
    """Summary of one operation's output, then the output is removed."""
    if kind == "sweep":
        if not os.path.isfile(out):
            return {"bytes": 0, "text": None}
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        size = os.path.getsize(out)
        os.remove(out)
        return {"bytes": size, "text": text}
    if not os.path.isdir(out):
        return {"bytes": 0, "lines": {}, "metrics": None}
    names = sorted(os.listdir(out))
    size = sum(os.path.getsize(os.path.join(out, n)) for n in names)
    lines = {n: _count_lines(os.path.join(out, n)) for n in names}
    metrics = None
    if "metrics.json" in names:
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
    shutil.rmtree(out)
    return {"bytes": size, "lines": lines, "metrics": metrics}


def _blas_name() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])

    t_start = time.perf_counter()
    import sfwmsim.cli as cli
    import_s = time.perf_counter() - t_start
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(job["src"]) + os.sep):
        raise SystemExit(f"sfwmsim was imported from {cli.__file__}, not {job['src']}")

    tracer = None
    if job["mode"] == "trace":
        import spans

        tracer = spans.Tracer()

    ops = []

    def run(index: int, traced: bool) -> float:
        argv = job["ops"][index]["argv"]
        code, error = None, None
        t0 = time.perf_counter()
        try:
            code = tracer.op(cli.main, argv) if traced else cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation failure is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        record = _collect(job["kind"], job["ops"][index]["out"])
        record.update(index=index, seconds=elapsed, code=code, error=error,
                      traced=traced)
        ops.append(record)
        gc.collect()
        return t0 + elapsed

    end_cold = run(0, False)
    setup_s = end_cold - t_start
    index = 1
    warm_start = time.perf_counter()
    while index < len(job["ops"]):
        if tracer is None:
            run(index, False)
        else:
            traced = index % 2 == 0
            if traced:
                tracer.install()
            try:
                run(index, traced)
            finally:
                tracer.uninstall()
        index += 1
        enough = index >= (3 if tracer is not None else 2)
        if enough and time.perf_counter() - warm_start >= job["warm_s"]:
            break

    import numpy as np

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "ops": ops,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": _blas_name(),
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
