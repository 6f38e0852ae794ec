"""Compare what two source trees of the package print and write, command by command.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout holding ``src/wiretap_regions``.  The script runs the
same ``wtr`` commands in one fresh interpreter per tree (``PYTHONPATH`` set to
the tree's ``src``, one BLAS thread), each command in process through
``cli.main(argv)``, and compares, per command, the exit code, stdout, stderr
and the bytes of every file the command wrote.  The commands are:

- the benchmark ops of every workload at seeds 0 and 1: the ops a
  ``perfbench/run.py`` run of ``PARENT_TREE/BENCHMARK.json``'s
  ``run_seconds`` issues (op 0 and its warm ops, which include the probes'
  ops), built with the workload's own input generator from
  ``PARENT_TREE/perfbench/spec.py``, the only file of ``perfbench/`` read;
- every ``wtr`` line of the ``sh`` blocks of ``CHANGE_TREE/README.md``, run
  beside small input files named as the README names them;
- lone ``region eval-*`` and ``gauss eval`` commands: every bound, with and
  without ``--vertices``, in both output formats, on generated channels,
  auxes and splits, and the refusals (exit 1 or 2) of inputs they refuse,
  the aux files the parser refuses included;
- ``fisher lemmas --budget 1000 --mixtures``, ``fisher debruijn --budget
  200`` and, on one generated scalar channel, ``fisher evidence --budget
  50`` at seeds 0 to 3 (``FISHER_SEEDS``), each writing its CSV: more
  instances and seeds than the benchmark's ``fisher`` ops, and evidence
  fronts that span several dominance LPs;
- ``fm verify-appendix`` at seeds 0 to 9 (``FM_SEEDS``), and at seed 0 with
  ``--instantiations 1`` and ``--instantiations 5``, each writing its CSV:
  more seeds than the benchmark's ``chain_replay`` ops.

A command that raises out of ``cli.main`` is recorded by the exception's
type and message, not its traceback, whose paths name the tree.  Prints one
line per group and one per differing command; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 1)   # the benchmark seeds whose ops are compared
FISHER_SEEDS = (0, 1, 2, 3)
FISHER_COMMANDS = (("fisher", "lemmas", "--budget", "1000", "--mixtures"),
                   ("fisher", "debruijn", "--budget", "200"),
                   ("fisher", "evidence", "--budget", "50"))
FM_SEEDS = range(10)


# --- worker: runs inside each tree's interpreter ------------------------------------


def worker() -> int:
    """Read ``[[group, argv], ...]`` as JSON on stdin; run each command in the
    current directory and print one JSON line per command."""
    from wiretap_regions import cli

    commands = json.load(sys.stdin)
    before = set(os.listdir("."))
    for group, argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as e:          # argparse refuses the command
                rc = e.code
            except Exception as e:           # noqa: BLE001 - recorded, not raised
                rc = f"exception {type(e).__name__}: {e}"
        files = {}
        for root, _, names in os.walk("."):
            for name in names:
                path = os.path.relpath(os.path.join(root, name))
                if path not in before:
                    with open(path, "rb") as fh:
                        files[path] = fh.read().decode("latin-1")
                    os.remove(path)
        print(json.dumps({"group": group, "argv": argv, "rc": rc, "stdout": out.getvalue(),
                          "stderr": err.getvalue(), "files": files}), flush=True)
    return 0


# --- inputs -------------------------------------------------------------------------


def _load_spec(tree: str):
    path = os.path.join(tree, "perfbench", "spec.py")
    mod = importlib.util.spec_from_file_location("perfbench_spec", path)
    spec = importlib.util.module_from_spec(mod)
    sys.modules["perfbench_spec"] = spec     # dataclasses look their module up
    mod.loader.exec_module(spec)
    return spec


def benchmark_commands(spec, seconds: float, inputs: str) -> list:
    """The ops of every workload and seed of a run of ``seconds``, their
    channel files under ``inputs`` and their ``--out`` files under ``out/``
    of the run directory."""
    commands = []
    for name, workload in spec.WORKLOADS.items():
        for seed in SEEDS:
            indices = range(1 + workload.warm_ops(seconds))
            folder = os.path.join(inputs, f"{name}-seed{seed}")
            os.makedirs(folder)
            paths = spec.make_inputs(workload, seed, indices, folder)
            for index in indices:
                op = workload.op(seed, index, paths, "out")
                commands.append([f"{name} seed {seed}", list(op.argv)])
    return commands


def _rows(m) -> list[str]:
    return [" ".join("%.17g" % x for x in row) for row in m]


def _matrix_file(kind: str, blocks: dict, header=()) -> str:
    lines = [f"kind: {kind}", *header]
    for name, m in blocks.items():
        lines += [f"{name}:", *_rows(m)]
    return "\n".join(lines) + "\n"


def _psd_under(rng, S):
    import numpy as np

    w, v = np.linalg.eigh(S)
    root = (v * np.sqrt(w)) @ v.T
    q, _ = np.linalg.qr(rng.normal(size=S.shape))
    return root @ (q * rng.uniform(0.0, 1.0, size=len(S))) @ q.T @ root


def readme_files() -> dict[str, str]:
    """The input files the README's commands name."""
    import numpy as np

    layered = np.einsum("qu,uabx->quabx", np.array([[0.3, 0.2], [0.1, 0.4]]),
                        np.full((2, 2, 2, 2), 1.0 / 8))
    return {
        "ch.txt": "kind: discrete\ninput: X 2\noutputs: Y1 2 Y2 2 Z 2\n"
                  "stage Y1|X:\n0.95 0.05\n0.05 0.95\nstage Y2|Y1:\n0.9 0.1\n0.1 0.9\n"
                  "stage Z|Y2:\n0.85 0.15\n0.15 0.85\n",
        "aux.txt": _matrix_file("aux", {"table": [[0.3, 0.2], [0.1, 0.4]]}, ["vars: U 2 X 2"]),
        "aux5.txt": _matrix_file("aux", {"table": layered.reshape(1, -1)},
                                 ["vars: Q 2 U 2 V1 2 V2 2 X 2"]),
        "g.txt": _matrix_file("gauss", {"S": [[1.0]], "Sigma1": [[0.5]], "Sigma2": [[1.0]],
                                        "SigmaZ": [[2.0]]}),
        "split.txt": _matrix_file("split", {"K": [[0.5]]}),
        "triple.txt": _matrix_file("split", {"K0": [[0.2]], "K1": [[0.3]], "K2": [[0.1]]}),
        "gh.txt": _matrix_file("gauss_h", {"H1": [[2.0, 0.0], [0.0, 1.5]],
                                           "H2": [[1.0, 0.0], [0.0, 1.0]],
                                           "HZ": [[0.5, 0.0], [0.0, 0.25]]}),
    }


def readme_commands(tree: str) -> list:
    text = open(os.path.join(tree, "README.md"), encoding="utf-8").read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("wtr "):
                commands.append(["README", shlex.split(line)[1:]])
    return commands


def lone_eval_commands(spec, inputs: str) -> list:
    """``region eval-*`` and ``gauss eval`` on generated inputs: every bound,
    with and without ``--vertices``, pretty and as CSV; then, per input set,
    five commands the evaluators refuse: ``--bound inner`` on a channel out of
    the degraded noise order and on a split over the cap (exit 1), a triple
    split with ``--bound inner`` and a single split with ``--bound general``
    (exit 2), and ``eval-general`` on an aux that breaks the layered
    factorization (exit 2); and every ``region eval-*`` command on three
    aux files the parser refuses (exit 2): one with a negative entry, one
    whose mass is off 1 by 1e-9 and a layered one that breaks the
    factorization."""
    import numpy as np

    def write(name, text):
        path = os.path.join(inputs, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    commands, shows = [], (["--format", "pretty"], ["--format", "csv"],
                           ["--vertices"], ["--vertices", "--format", "csv"])
    for k in range(6):
        rng = np.random.default_rng([7, k])
        ch = write(f"lone-ch{k}.txt", spec.CHANNELS["discrete3"](rng))
        ux = write(f"lone-ux{k}.txt", _matrix_file(
            "aux", {"table": rng.dirichlet(np.ones(18)).reshape(6, 3)}, ["vars: U 6 X 3"]))
        p_qu = rng.dirichlet(np.ones(4)).reshape(2, 2)
        rest = rng.dirichlet(np.ones(18), size=2).reshape(2, 3, 2, 3)
        if k % 2:   # a degenerate aux: V1 constant
            rest = np.zeros((2, 3, 2, 3))
            rest[:, 0] = rng.dirichlet(np.ones(6), size=2).reshape(2, 2, 3)
        layered = write(f"lone-layered{k}.txt", _matrix_file(
            "aux", {"table": np.einsum("qu,uabx->quabx", p_qu, rest).reshape(1, -1)},
            ["vars: Q 2 U 2 V1 3 V2 2 X 3"]))
        for cmd, aux in (("eval-inner", ux), ("eval-outer", ux), ("eval-general", layered)):
            for show in shows:
                commands.append(["lone region eval",
                                 ["region", cmd, "--channel", ch, "--aux", aux, *show]])
    for k in range(6):
        rng = np.random.default_rng([8, k])
        kind = ("gauss1", "gauss2")[k % 2]
        text = spec.CHANNELS[kind](rng)
        ch = write(f"lone-g{k}.txt", text)
        S = np.array([[float(x) for x in line.split()]
                      for line in text.split("S:\n")[1].split("Sigma1:")[0].splitlines()])
        single = write(f"lone-K{k}.txt", _matrix_file("split", {"K": _psd_under(rng, S)}))
        triple = write(f"lone-K012-{k}.txt", _matrix_file(
            "split", {name: _psd_under(rng, S / 3) for name in ("K0", "K1", "K2")}))
        for bound, split, orders in (("inner", single, ([],)), ("outer", single, ([],)),
                                     ("general", triple, ([], ["--order", "21"],
                                                          ["--order", "12"]))):
            for order in orders:
                for show in shows:
                    commands.append(["lone gauss eval",
                                     ["gauss", "eval", "--channel", ch, "--split", split,
                                      "--bound", bound, *order, *show]])
        if k < 2:   # refusals: a channel out of the degraded order, a split over the cap
            rev = write(f"lone-rev{k}.txt", _matrix_file("gauss", {
                "S": [[2.0 + k]], "Sigma1": [[2.0]], "Sigma2": [[1.0]], "SigmaZ": [[3.0]]}))
            half = write(f"lone-half{k}.txt", _matrix_file("split", {"K": [[0.5]]}))
            over = write(f"lone-over{k}.txt", _matrix_file("split", {"K": 2.0 * S}))
            for channel, split, bound in ((rev, half, "inner"), (ch, over, "inner"),
                                          (ch, triple, "inner"), (ch, single, "general")):
                commands.append(["lone gauss eval", ["gauss", "eval", "--channel", channel,
                                                     "--split", split, "--bound", bound]])
    heavy = np.full((2, 3), 1.0 / 6.0)
    heavy[1, 2] += 1e-9
    refused = {"negative": [[0.3, 0.2, 0.1], [0.3, 0.2, -0.1]], "heavy": heavy}
    for k in range(2):   # refusals of aux files the parser refuses
        rng = np.random.default_rng([9, k])
        ch = write(f"lone-refuse-ch{k}.txt", spec.CHANNELS["discrete3"](rng))
        auxes = [write(f"lone-broken{k}.txt", _matrix_file(   # breaks the layered factorization
            "aux", {"table": rng.dirichlet(np.ones(72)).reshape(1, -1)},
            ["vars: Q 2 U 2 V1 3 V2 2 X 3"]))]
        if k == 0:
            auxes += [write(f"lone-{name}.txt", _matrix_file("aux", {"table": table},
                                                             ["vars: U 2 X 3"]))
                      for name, table in refused.items()]
        for aux in auxes:
            for cmd in ("eval-inner", "eval-outer", "eval-general"):
                commands.append(["lone region eval",
                                 ["region", cmd, "--channel", ch, "--aux", aux]])
    return commands


def fisher_commands(spec, inputs: str) -> list:
    """Every command of ``FISHER_COMMANDS`` at every seed of ``FISHER_SEEDS``,
    its CSV written under ``out/`` of the run directory; ``fisher evidence``
    takes a scalar Gaussian channel written under ``inputs``."""
    import numpy as np

    path = os.path.join(inputs, "fisher-g.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.CHANNELS["gauss1"](np.random.default_rng(10)))
    return [["fisher", [*argv, *(["--channel", path] if argv[1] == "evidence" else []),
                        "--seed", str(seed), "--out", f"out/{argv[1]}-seed{seed}.csv"]]
            for seed in FISHER_SEEDS for argv in FISHER_COMMANDS]


def fm_commands() -> list:
    """``fm verify-appendix`` at every seed of ``FM_SEEDS`` and at seed 0
    with one and five instantiations, its CSV written under ``out/`` of the
    run directory."""
    runs = [(seed, []) for seed in FM_SEEDS] + [(0, ["--instantiations", n]) for n in ("1", "5")]
    return [["fm", ["fm", "verify-appendix", "--seed", str(seed), *extra,
                    "--out", f"out/fm-seed{seed}{'-' + extra[-1] if extra else ''}.csv"]]
            for seed, extra in runs]


# --- comparison ---------------------------------------------------------------------


def run_tree(tree: str, run_dir: str, commands: list, files: dict) -> subprocess.Popen:
    os.makedirs(os.path.join(run_dir, "out"))
    for name, text in files.items():
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.update({v: "1" for v in THREAD_VARS})
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker"],
                            cwd=run_dir, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(commands))
    proc.stdin.close()
    return proc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?", help="the parent source tree")
    ap.add_argument("change", nargs="?", help="the changed source tree")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker()
    if not (args.parent and args.change):
        ap.error("PARENT_TREE and CHANGE_TREE are required")
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "src", "wiretap_regions", "cli.py")):
            ap.error(f"no program source under {tree}")
    spec = _load_spec(args.parent)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        inputs = os.path.join(work, "inputs")
        os.makedirs(inputs)
        commands = (benchmark_commands(spec, seconds, inputs)
                    + readme_commands(args.change) + lone_eval_commands(spec, inputs)
                    + fisher_commands(spec, inputs) + fm_commands())
        files = readme_files()
        procs = [run_tree(tree, os.path.join(work, side), commands, files)
                 for tree, side in ((args.parent, "parent"), (args.change, "change"))]
        results = [[json.loads(line) for line in p.stdout] for p in procs]
        for p in procs:
            p.wait()
    if any(p.returncode for p in procs) or any(len(r) != len(commands) for r in results):
        print("error: a worker interpreter stopped before its last command", file=sys.stderr)
        return 1
    groups: dict[str, list] = {}
    differing = 0
    for a, b in zip(*results):
        what = [k for k in ("rc", "stdout", "stderr", "files") if a[k] != b[k]]
        groups.setdefault(a["group"], []).append((not what, a["rc"]))
        if what:
            differing += 1
            print(f"  differs ({', '.join(what)}): wtr {' '.join(a['argv'])}")
    for group, runs in groups.items():
        exits = {}
        for _, rc in runs:
            exits[rc] = exits.get(rc, 0) + 1
        print(f"{group}: {sum(same for same, _ in runs)} of {len(runs)} commands identical "
              f"(parent exits: {', '.join(f'{rc} x{n}' for rc, n in exits.items())})")
    print(f"same outputs: {len(commands) - differing} of {len(commands)} commands identical "
          f"(exit code, stdout, stderr, written files)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
