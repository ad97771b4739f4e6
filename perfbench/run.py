"""digitbench benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Set-up (seeded CSV inputs, plus a warm feature cache where the
workload needs one) and measurement each run in a child process
(perfbench/worker.py). The measuring child repeats the workload through
``digitbench.cli.main`` for S seconds and checks every output. With
``--trace 1`` it spends the first half untraced and the second half with
spans around each public entry point, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it print every metric by name and unit,
with ``mean_accuracy``, ``fail_ratio`` and ``ops``. Scratch files live
under ``.perfbench_work/`` and are removed at exit, except the span dump
of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("extract_csv", "grid_noisy", "svm_glyphs")
# each child is killed past these, so a run ends within 180 s
SETUP_TIMEOUT = 60
MEASURE_GRACE = 90


def units() -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_child(args, timeout: float) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                   cwd=ROOT, env=env, timeout=timeout, check=True)


def quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4f}-{q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    if not os.path.isdir(os.path.join(ROOT, "src", "digitbench")):
        print("error: no src/digitbench in this checkout", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = [args.workload, str(args.seed), work]
    try:
        run_child(["setup", *common], SETUP_TIMEOUT)
        run_child(["measure", *common, str(args.seconds), str(args.trace)],
                  args.seconds + MEASURE_GRACE)
        with open(os.path.join(work, "setup.json")) as fh:
            setup = json.load(fh)
        with open(os.path.join(work, "measure.json")) as fh:
            measured = json.load(fh)
        if args.trace:
            os.replace(os.path.join(work, "spans.json"), os.path.join(
                scratch, f"spans-{args.workload}-{args.seed}.json"))
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = measured["walls"]
    accuracy = measured["mean_accuracy"]
    attempted, failed = measured["attempted"], measured["failed"]
    if args.trace:
        values = dict(measured["layers"])
        values["bench.mean_accuracy"] = accuracy or 0.0
        values["trace.overhead_s"] = (statistics.median(
            measured["traced_walls"]) - statistics.median(walls))
    else:
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": measured["peak_rss_mb"],
                  "setup_s": statistics.median(setup["seconds"])}
    unit_of = units()

    print(f"workload {args.workload}, seed {args.seed}, "
          f"input sha256 {setup['csv_sha256']}")
    print(f"wall_s: {statistics.median(walls):.4f} s, median of "
          f"{len(walls)} untraced reps{quartiles(walls)}")
    print(f"setup_s: {statistics.median(setup['seconds']):.4f} s, median "
          f"of {len(setup['seconds'])} set-ups")
    print(f"peak_rss_mb: {measured['peak_rss_mb']:.1f} MB")
    print("mean_accuracy: " + ("n/a (no grid cells)" if accuracy is None
                               else f"{accuracy:.6f} ratio"))
    print(f"fail_ratio: {failed / attempted:.4f} ratio; ops: {attempted} "
          f"count")
    if args.trace:
        for name, value in values.items():
            print(f"{name}: {value:.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
