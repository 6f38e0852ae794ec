"""Benchmark of the ``wtr`` command line.

    python3 perfbench/run.py --workload sweeps --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run starts a fresh interpreter for the workload
(``workload.py``), which issues ``wtr`` commands in process, one after the
other: a fixed number of ops for ``--seconds`` (``spec.Workload.warm_ops``),
so every run of a seed issues the same ops and meets the same failures.
Set-up time is measured from process start to ``ready``; set-up and first-op
time are taken in that interpreter and in a few probe interpreters that set
up and run one op, and reported as their medians.  Every time is
host-normalised by a calibration kernel run beside it (``spec.calibrate``);
the raw wall times are printed next to them.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run.
The lines before it explain the run: environment, every failed op with its
seed, command and reason, and for the traced run the tracing overhead,
binding sites and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import spec

DEADLINE_S = 170.0            # the whole run ends well within three minutes
WORKDIR = ".perfbench_work"   # everything a run writes, under the checkout root


def _child(root, env, args, workdir, extra, deadline) -> tuple[float, dict]:
    """Run one workload process; returns (seconds to ``ready``, its result)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError("workload process did not get ready")
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("workload process ran past the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return ready, json.loads(out.strip().splitlines()[-1])


def measure(root, args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in spec.THREAD_VARS:
        env[var] = "1"          # one client on one core; at most nproc
    deadline = perf_counter() + DEADLINE_S
    run_dir = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(root, run_dir), exist_ok=True)
    try:
        setup, probes = [], []
        for k in range(1, 1 + (0 if args.trace else spec.WORKLOADS[args.workload].probes)):
            probe_dir = os.path.join(run_dir, f"probe{k}")
            os.makedirs(os.path.join(root, probe_dir), exist_ok=True)
            ready, probe = _child(root, env, args, probe_dir, ["--probe", str(k)], deadline)
            setup.append((ready, probe["ready_calibration_s"]))
            probes.append(probe)
        spans = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        ready, res = _child(root, env, args, run_dir,
                            ["--spans", spans] if args.trace else [], deadline)
        setup.append((ready, res["ready_calibration_s"]))
    finally:
        shutil.rmtree(os.path.join(root, run_dir), ignore_errors=True)
    res["setup_samples"] = len(setup)
    for p in probes:
        res["attempted"] += p["attempted"]
        res["failures"] += p["failures"]
    if not args.trace:
        m, d = res["metrics"], res["detail"]
        # set-up is normalised by the calibration its interpreter ran just after ``ready``
        m["setup_s"] = statistics.median(spec.normalise(t, c) for t, c in setup)
        d["raw"]["setup_s"] = statistics.median(t for t, _ in setup)
        # first op: median over the fresh interpreters (probes and workload process)
        firsts = [p["detail"]["first_op"] for p in probes] + [d["first_op"]]
        d["raw"]["first_op_s"] = statistics.median(raw for raw, _ in firsts)
        m["first_op_s"] = statistics.median(norm for _, norm in firsts)
    return res


def report(args, res) -> None:
    w = spec.WORKLOADS[args.workload]
    env = res["env"]
    d = res["detail"]
    failed = len(res["failures"])
    print(f"wtr benchmark  workload={w.name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}")
    print(f"  why: {w.why}")
    print("  load: closed loop, 1 client, in-process cli.main(argv), fresh interpreter per run")
    print(f"  env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas {env['blas']}  nproc {env['nproc']}  "
          + "  ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for note in w.notes:
        print(f"  note: {note}")
    if not args.trace:
        m = res["metrics"]
        raw = d["raw"]
        print(f"  times are host-normalised to a {spec.CAL_REF_S * 1000:g} ms calibration kernel "
              f"(median {d['calibration_s'] * 1000:.4g} ms in this run); raw wall times in [ ]")
        for name, unit, _ in spec.END_TO_END:
            extra = f"[{raw[name]:.6g}] " if name in raw else ""
            if name in ("setup_s", "first_op_s"):
                extra += f"median of {res['setup_samples']} fresh interpreters"
            elif name == "op_p50_s":
                extra += f"{d['warm_ops']} warm ops"
            elif name == "op_tail_s":
                extra += (f"p{d['tail_percentile']:.1f} of {d['warm_ops']} warm ops, 10 beyond"
                          if d["tail_supported"] else
                          f"only {d['warm_ops']} warm ops: no percentile above p50 has 10 "
                          f"beyond; median")
            elif name == "items_per_s":
                extra += f"{w.item} per second of warm-op time ({d['items']} items)"
            print(f"  {name:<14}{m[name]:>14.6g} {unit:<8} {extra}")
        print(f"  {'failed_ratio':<14}{failed / res['attempted']:>14.6g} {'1':<8} "
              f"{failed} of {res['attempted']} ops (first, warm and replay)")
        for label, (p50, n) in d["kind_p50_s"].items():
            print(f"  warm p50 {p50:.6g} s (normalised) over {n} ops of {label}")
    else:
        m = res["metrics"]
        print(f"  passes: untraced warm-up, then {d['passes']} traced and {d['passes']} untraced "
              f"of {d['ops_per_pass']} ops; "
              f"counts are per pass (repeat exactly: {d['counts_repeat']}), "
              f"times are medians over passes")
        print(f"  tracing overhead: {m['trace.overhead_s']:.6g} s, median over ops of traced "
              f"minus untraced time of the same op (host-normalised; op_p50 traced "
              f"{d['traced_op_p50_s']:.6g} s, untraced {d['untraced_op_p50_s']:.6g} s)")
        print("  waiting time: none measured; the run is single-threaded with no queues")
        for name, unit, _ in spec.per_layer_metrics():
            print(f"  {name:<44}{m[name]:>14.6g} {unit}")
        for name, sites in sorted(d["bindings"].items()):
            print(f"  bound: {name} at {', '.join(sites)}")
        for name, value in d["unexpected_nonzero"].items():
            print(f"  note: {name} = {value}, predicted 0 on {w.name}")
        print(f"  spans: {d['spans']} written to {d['spans_file']}")
        for layers, moves in spec.LAYER_MAP:
            print(f"  map: {layers} -> {moves}")
    for f in res["failures"]:
        kind = "wrong output" if f["wrong_output"] else "refused"
        print(f"  failed op {f['op']} ({kind}) seed {f['seed']}: {f['command']}\n"
              f"      reason: {f['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "wiretap_regions", "cli.py")):
        print(f"error: no program source at {os.path.join(root, 'src', 'wiretap_regions')}",
              file=sys.stderr)
        return 2
    try:
        res = measure(root, args)
    except (RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(args, res)
    stale = res["detail"].get("stale_counters")
    if stale:
        print(f"error: traced run saw zero calls on {', '.join(stale)}; a wrapper no longer "
              f"sits where the program calls it", file=sys.stderr)
        return 3
    names = spec.per_layer_metrics() if args.trace else spec.END_TO_END
    print(json.dumps({
        "correct": not any(f["wrong_output"] for f in res["failures"]),
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {n: {"value": res["metrics"][n], "unit": u} for n, u, _ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
