"""Benchmark command: one workload, one seed, one run.

    python3 bench/run.py --workload copy --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Lines before it give the environment and
the end-to-end figures host-normalised and raw, in traced runs too; the
full record of the run, and the spans of a traced run, are written
under ``bench/out/``.  An operation of the program that raises is
counted in ``failed`` and the run goes on.

Exit codes: 0 run complete and outputs correct, 1 an output check
failed, 2 the program or the arguments are unusable.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _import_program():
    """Put the checkout's ``src/`` first on the path and import ``pgc`` from it."""
    src = ROOT / "src"
    if not (src / "pgc" / "__init__.py").is_file():
        raise ImportError(f"no program source at {src}/pgc; run from a full checkout")
    sys.path.insert(0, str(src))
    import pgc
    if Path(pgc.__file__).resolve().parent != (src / "pgc").resolve():
        raise ImportError(f"pgc was imported from {pgc.__file__}, not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("copy", "dialog"))
    parser.add_argument("--seed", required=True, type=_nonnegative)
    parser.add_argument("--seconds", required=True, type=_positive)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _import_program()
        spec = load_spec()
    except (ImportError, OSError, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    env = environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"{stem}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(workload=workloads.WORKLOADS[args.workload], seed=args.seed,
                        seconds=float(args.seconds), trace=bool(args.trace), out=work_dir)
    try:
        figures = workloads.execute(run)
    finally:
        for path in work_dir.iterdir():
            path.unlink()
        work_dir.rmdir()

    normalised = workloads.end_to_end(run.clock, figures, "norm_s")
    raw = workloads.end_to_end(run.clock, figures, "raw_s")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    values = workloads.per_layer(run) if args.trace else normalised
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"BENCHMARK.json {section}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "host_ref_ms": run.clock.ref_median_ms(),
              "normalised": normalised, "raw": raw, "failures": run.failures,
              "errors": run.errors,
              "report": figures["report"], "measured_s": figures["measured_s"],
              "losses": {k: figures[k] for k in ("train_loss", "first_loss", "last_loss",
                                                 "epoch_losses")},
              "samples": {k: len(v) for k, v in run.clock.samples.items()},
              "result": result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.records(run.tracer.spans()):
                fh.write(json.dumps(span) + "\n")
    for error in run.errors:
        print(f"bench: operation failed: {error}", file=sys.stderr)
    for failure in run.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(f"# host_ref_ms {run.clock.ref_median_ms()!r}")
    print("# normalised " + json.dumps(normalised))
    print("# raw " + json.dumps(raw))
    print(json.dumps(result), flush=True)
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
