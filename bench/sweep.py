"""Run every workload over a range of seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 1-10 --tag setA

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, one
run at a time, as the benchmark is meant to be measured.  For every
end-to-end metric it prints the median, the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``) and the
metric's bound, and writes everything to ``bench/out/sweep-<tag>.json``.
With ``--trace`` every untraced run is followed by a traced run of the
same seed; the per-layer metrics are summarised too, and the tracing
overhead is the traced run's normalised training time per example over
the untraced run's.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()

    def tagged(tag):
        return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)),
                    None)

    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = result is not None and result["correct"] and proc.returncode == 0
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"{'correct' if ok else 'FAILED'}, {wall:.1f} s", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": wall, "result": result, "raw": tagged("# raw "),
            "normalised": tagged("# normalised "),
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def summarise(spec: dict, section: str, workload: str, done: list[dict]) -> dict:
    summary = {}
    for metric in spec[section]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in done]
        if len(values) < 2:
            continue
        row = {"median": statistics.median(values), "spread": spread(values),
               "min": min(values), "max": max(values)}
        if "bound" in metric:
            raws = [r["raw"][name] for r in done]
            row.update(bound=metric["bound"], raw_median=statistics.median(raws),
                       raw_spread=spread(raws))
        summary[f"{workload}/{name}"] = row
        bound = f"  bound {row['bound']:.2f}" if "bound" in row else ""
        raw = (f"  raw {row['raw_median']:.6g} spread {row['raw_spread']:.3f}"
               if "raw_median" in row else "")
        print(f"  {name:34s} {row['median']:12.6g} {metric['unit']:10s} "
              f"spread {row['spread']:.3f}{bound}{raw}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--tag", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    runs = [run_once(spec, workload, seed, trace)
            for workload in workloads for seed in args.seeds
            for trace in ((0, 1) if args.trace else (0,))]

    summary = {}
    for workload in workloads:
        done = [r for r in runs if r["workload"] == workload and r["result"]]
        untraced = [r for r in done if not r["trace"]]
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in untraced})
        print(f"\n{workload}: {len(untraced)} runs, failed share {shares}")
        summary.update(summarise(spec, "end_to_end", workload, untraced))
        if not args.trace:
            continue
        traced = {r["seed"]: r for r in done if r["trace"]}
        print(f"{workload} traced: {len(traced)} runs")
        summary.update(summarise(spec, "per_layer", workload, list(traced.values())))
        overhead = [100.0 * (r["normalised"]["train_ex_per_s"]
                             / traced[r["seed"]]["normalised"]["train_ex_per_s"] - 1.0)
                    for r in untraced if r["seed"] in traced]
        summary[f"{workload}/trace_overhead_pct"] = overhead
        print(f"  tracing overhead, % of training time per example, by seed: "
              f"{', '.join(f'{x:+.1f}' for x in overhead)}")
    out = BENCH_DIR / "out" / f"sweep-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"tag": args.tag, "started": started,
                               "runs": runs, "summary": summary}, indent=1) + "\n",
                   encoding="utf-8")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
