"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py               # every workload, minimal op count
    python3 perfbench/smoke.py --seconds 20  # every workload at full length

Checks that ``BENCHMARK.json`` agrees with ``spec.py``; runs every workload
once with tracing off and once with tracing on; and asserts that each
end-to-end metric and each per-layer metric is printed, by name and with its
unit, in the report lines and in the result line.  The traced runs must show
every counter the workload predicts as zero at zero.  Last, a copy of the
benchmark without the program source must exit non-zero without a result.
Prints the end-to-end metrics of every workload; exits 1 on the first
failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SmokeFailure(AssertionError):
    pass


def check(cond, msg):
    if not cond:
        raise SmokeFailure(msg)


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, f"BENCHMARK.json keys {sorted(bench)}")
    check([(w["name"], w["why"]) for w in bench["workloads"]]
          == [(w.name, w.why) for w in spec.WORKLOADS.values()],
          "BENCHMARK.json workloads differ from spec.WORKLOADS")
    check([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == spec.END_TO_END,
          "BENCHMARK.json end_to_end differs from spec.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == spec.per_layer_metrics(), "BENCHMARK.json per_layer differs from spec")
    check(max(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
          == max(m["bound"] for m in bench["end_to_end"]), "setup_s must have the largest bound")


def run(root, workload, seconds, trace) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload, seconds, trace) -> list[str]:
    rc, lines = run(ROOT, workload, seconds, trace)
    check(rc == 0 and lines, f"{workload} trace={trace}: exit {rc}")
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"{workload}: result keys {sorted(result)}")
    check(result["attempted"] >= 1 and result["correct"] is True,
          f"{workload} trace={trace}: {result}")
    names = spec.per_layer_metrics() if trace else spec.END_TO_END
    check(list(result["metrics"]) == [n for n, _, _ in names],
          f"{workload} trace={trace}: metric names differ")
    report = lines[:-1]
    for name, unit, _ in names + ([] if trace else spec.REPORTED_ONLY):
        if name in result["metrics"]:
            check(result["metrics"][name]["unit"] == unit, f"{workload}: unit of {name}")
        check(any(l.split()[:1] == [name] and unit in l.split()[2:3] for l in report),
              f"{workload} trace={trace}: {name} [{unit}] not printed")
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        w = spec.WORKLOADS[workload]
        check(all(values[n] for n in w.expect_nonzero), f"{workload}: zero expected counter")
        check(not any(values[n] for n in w.expect_zero),
              f"{workload}: nonzero counter among {w.expect_zero}")
        check(any("tracing overhead" in l for l in report), f"{workload}: no overhead line")
        check(sum(l.startswith("  map: ") for l in report) == len(spec.LAYER_MAP),
              f"{workload}: layer map not printed")
    return report


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines = run(bare, "sweeps", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and not any(l.startswith("{") for l in lines),
          f"without the program source: exit {rc}, output {lines[-1:]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)
    try:
        check_manifest()
        for name in spec.WORKLOADS:
            report = check_run(name, args.seconds, 0)
            print("\n".join(l for l in report if not l.startswith(("  why", "  load", "  note"))))
            check_run(name, args.seconds, 1)
            print(f"  traced run of {name}: every per-layer metric printed")
        check_bare_directory()
    except SmokeFailure as e:
        print(f"smoke check failed: {e}")
        return 1
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
