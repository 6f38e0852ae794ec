"""Workload process of the ``wtr`` benchmark: one fresh interpreter per run.

Started by ``run.py``.  It imports ``wiretap_regions.cli``, generates the
workload's input files from the workload seed, prints ``ready`` and then
issues ``wtr`` commands in process through ``cli.main(argv)``: a closed loop
with one client, the next op starting when the previous one returns, and the
calibration kernel between ops.  It prints one JSON line with its
measurements on exit.

``--probe K`` runs op K * (number of op kinds), the same kind of command as
op 0 on another input, as its first and only op after ``ready``: ``run.py``
starts a few probes to take more samples of set-up and first-op time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import spec


@dataclass
class Result:
    index: int
    latency: float
    items: int


class Runner:
    """Issues the ops of one workload and checks every output."""

    def __init__(self, cli, workload: spec.Workload, seed: int, inputs: dict, workdir: str):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.inputs, self.workdir = inputs, workdir
        self.attempted = 0
        self.failures: list[dict] = []
        self.first_csv: dict[int, bytes] = {}

    def run(self, index: int, tag: str = "", remember: bool = False) -> Result:
        """Run op ``index``; a rerun's CSV must equal the remembered first one."""
        op = self.workload.op(self.seed, index, self.inputs, self.workdir, tag)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except SystemExit as e:           # argparse rejects the command
                rc = e.code
            except Exception:                 # noqa: BLE001 - recorded as a failed op
                rc = "exception"
                err.write(traceback.format_exc())
            latency = perf_counter() - t0
        self.attempted += 1
        items, reason, wrong = spec.check_output(op, rc, out.getvalue(), err.getvalue())
        if op.out is not None:
            data = _read_bytes(op.out)
            with contextlib.suppress(FileNotFoundError):
                os.remove(op.out)
            if index not in self.first_csv:
                if remember and not wrong:
                    self.first_csv[index] = data
            elif not wrong and data != self.first_csv[index]:
                mismatch = "determinism: CSV bytes differ from the first execution"
                reason = f"{reason}; {mismatch}" if reason else mismatch
                wrong = True
        if reason is not None:
            self.failures.append({"op": index, "seed": op.seed, "reason": reason,
                                  "wrong_output": wrong,
                                  "command": "wtr " + " ".join(op.argv)})
        return Result(index, latency, items)


def _read_bytes(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def tail(values: list[float]) -> tuple[float, float, bool]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, supported).  Below 21 samples that
    percentile falls under the median, so the median is returned, marked
    unsupported.
    """
    xs = sorted(values)
    i = len(xs) - 11
    if 2 * i < len(xs) - 1:
        return statistics.median(xs), 50.0, False
    return xs[i], 100.0 * i / (len(xs) - 1), True


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ.get(v) for v in spec.THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def timed(runner: Runner, n_warm: int, cal0: float) -> dict:
    """Run with tracing off: first op, ``n_warm`` warm ops, then op 0 again.

    ``spec.calibrate`` runs after every op; an op's host-normalised time
    uses the mean of the calibrations on either side of it (``cal0`` is the
    one taken just after ``ready``)."""
    cal = [cal0]
    ops: list[Result] = []
    for i in range(1 + n_warm):
        ops.append(runner.run(i, remember=(i == 0)))
        cal.append(spec.calibrate())
    ops.append(runner.run(0, tag="-replay"))
    cal.append(spec.calibrate())
    norm = [spec.normalise(r.latency, (cal[k] + cal[k + 1]) / 2) for k, r in enumerate(ops)]
    warm, warm_norm = ops[1:-1], norm[1:-1]
    value, pct, supported = tail(warm_norm)
    by_kind = {k.label: [x for r, x in zip(warm, warm_norm)
                         if runner.workload.kind(r.index) is k]
               for k in runner.workload.kinds}
    items = sum(r.items for r in warm)
    raw = [r.latency for r in warm]
    return {
        "metrics": {
            "op_p50_s": statistics.median(warm_norm),
            "op_tail_s": value,
            "items_per_s": items / sum(warm_norm),
        },
        "detail": {"warm_ops": len(warm), "tail_percentile": pct,
                   "tail_supported": supported, "items": items,
                   "raw": {"op_p50_s": statistics.median(raw),
                           "op_tail_s": tail(raw)[0], "items_per_s": items / sum(raw)},
                   "first_op": [ops[0].latency, norm[0]],
                   "calibration_s": statistics.median(cal),
                   "kind_p50_s": {k: [statistics.median(v), len(v)]
                                  for k, v in by_kind.items() if v}},
    }


def traced(runner: Runner, workload: spec.Workload, n_passes: int, spans_path: str) -> dict:
    """Traced run over a fixed op list: one untraced warm-up pass, then
    ``n_passes`` traced and untraced passes in turn.  Counters come from one
    traced pass (they repeat exactly for a seed), times are medians over
    passes, and the overhead is the median over ops of the host-normalised
    time of an op in a traced pass minus its time in the untraced pass after
    it."""
    import tracer as tracing

    runner.run(0, remember=True)                 # lazy imports and first calls
    ops = range(1, 1 + workload.trace_ops)
    for i in ops:
        runner.run(i, remember=True)
    tracer = tracing.Tracer()
    plain, timed_lat, passes = [], [], []
    cal = [spec.calibrate()]

    def normalised(i: int) -> float:
        latency = runner.run(i).latency
        cal.append(spec.calibrate())
        return spec.normalise(latency, (cal[-2] + cal[-1]) / 2)

    for _ in range(n_passes):
        tracer.reset()
        tracer.install()
        try:
            for i in ops:
                tracer.op = i
                timed_lat.append(normalised(i))
        finally:
            tracer.uninstall()
        passes.append(tracer.pass_metrics())
        plain += [normalised(i) for i in ops]
    runner.run(0, tag="-replay")
    metrics = dict(passes[0])
    for name, unit, _ in spec.per_layer_metrics():
        if unit == "s" and name in metrics:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(timed_lat, plain))
    repeat = all(p[n] == passes[0][n] for p in passes for n, u, _ in
                 spec.per_layer_metrics() if u == "count" and n in p)
    stale = [n for n in workload.expect_nonzero if not metrics[n]]
    unexpected = {n: metrics[n] for n in workload.expect_zero if metrics[n]}
    return {
        "metrics": metrics,
        "detail": {
            "passes": len(passes), "ops_per_pass": len(ops),
            "untraced_op_p50_s": statistics.median(plain),
            "traced_op_p50_s": statistics.median(timed_lat),
            "counts_repeat": repeat,
            "stale_counters": stale,
            "unexpected_nonzero": unexpected,
            "bindings": tracer.bindings,
            "spans": tracer.write_spans(spans_path),
            "spans_file": spans_path,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--probe", type=int, default=0,
                    help="set up, run one op of op 0's kind as the first op and exit")
    args = ap.parse_args(argv)

    from wiretap_regions import cli

    workload = spec.WORKLOADS[args.workload]
    if args.probe:
        indices = [args.probe * len(workload.kinds)]      # op 0's kind, another input
    elif args.trace:
        indices = range(1 + workload.trace_ops)
    else:
        indices = range(1 + workload.warm_ops(args.seconds))
    inputs = spec.make_inputs(workload, args.seed, indices, args.workdir)
    print("ready", flush=True)
    spec.calibrate()                    # its first call pays one-off costs
    cal0 = spec.calibrate()
    runner = Runner(cli, workload, args.seed, inputs, args.workdir)
    if args.probe:
        latency = runner.run(indices[0]).latency
        cal1 = spec.calibrate()
        res = {"detail": {"first_op": [latency, spec.normalise(latency, (cal0 + cal1) / 2)]}}
    elif args.trace:
        res = traced(runner, workload, workload.trace_passes(args.seconds), args.spans)
    else:
        res = timed(runner, len(indices) - 1, cal0)
        res["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res.update(attempted=runner.attempted, failures=runner.failures, ready_calibration_s=cal0,
               env=environment(args.seed))
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
