"""Command-line surface.

Exit codes: 0 on success, 1 when a checked property is violated (the message
names the violated invariant), 2 on input errors.  All randomness flows from
the single ``--seed`` through numpy's PCG64 generator, so identical
invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import fm_script
from .errors import WiretapError, ParseError, ValidationError, IoError, numbered
from .fisher_lab import (
    debruijn_check,
    gauss_pair_of,
    lemma_suite_check,
    random_mixture,
    sufficiency_evidence_scalar,
)
from .info_core import ChannelSpec
from .io_files import (
    check_matches_channel,
    csv_text,
    parse_aux_file,
    parse_channel_file,
    parse_split_file,
    pretty_text,
    region_csv_text,
    write_text,
)
from .polytope_fm import vertices
from .regions_discrete import (
    eval_degraded_inner,
    eval_degraded_outer,
    eval_general_inner,
    pareto_front,
    sweep_inner_region,
)
from .regions_gaussian import (
    GaussChannel,
    HGaussChannel,
    dpc_identity_check,
    eval_gauss_inner,
    eval_gauss_outer,
    eval_general_gauss,
    random_psd_under,
    sweep_covariances,
)

OK, VIOLATION, INPUT_ERROR = 0, 1, 2
# Floor of the second moment that fisher evidence divides 0.98 S by to scale
# a drawn mixture under the cap: a mixture at 0 is not divided by 0.
MOMENT_FLOOR = 1e-12


def _write_csv(path, text: str) -> None:
    """Write a command's CSV to its --out file and confirm it on stdout."""
    write_text(path, text)
    print(f"wrote {path}")


def _emit(obj, args) -> int:
    """End a region command: write the CSV to --out, else show it in --format."""
    if args.out:
        _write_csv(args.out, region_csv_text(obj))
    elif args.format == "csv":
        sys.stdout.write(region_csv_text(obj))
    else:
        print(pretty_text(obj))
    return OK


def _conclude(args, table, summary, violated: bool, invariant: str) -> int:
    """End a checking command: write ``table`` (header, rows) as CSV to --out,
    print the ``summary`` lines, then give the verdict."""
    if table is not None and args.out:
        _write_csv(args.out, csv_text(*table))
    for line in summary:
        print(line)
    if violated:
        print(f"violated invariant: {invariant}")
        return VIOLATION
    return OK


def _integer(flag: str, low: int):
    """argparse type of an integer option whose values start at ``low``."""
    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise ValidationError(f"{flag} must be at least {low}")
        return n
    return integer


def _tolerance(text: str) -> float:
    """argparse type of --tol: a positive, finite float."""
    tol = float(text)
    if not 0 < tol < math.inf:
        raise ValidationError(f"--tol must be positive and finite, got {text}")
    return tol


# The options several commands share, each declared once with its type and range.
_SHARED = {
    "channel": {},
    "budget": {"type": _integer("--budget", 1)},
    "instantiations": {"flags": ("--instantiations", "--budget"), "dest": "budget",
                       "type": _integer("--instantiations/--budget", 1),
                       "help": "random instantiations certifying each dropped row"},
    "seed": {"type": _integer("--seed", 0), "help": "PCG64 seed for all randomness"},
    "tol": {"type": _tolerance},
    "out": {"help": "write the CSV to this file"},
    "format": {"choices": ("csv", "pretty"), "help": "stdout only; default pretty"},
}


def _command(group, name, fn, *required, help=None, **defaults):
    """Add subcommand ``name`` running ``fn`` with the shared options it reads:
    those in ``required`` must be given, those in ``defaults`` default to the
    value given."""
    q = group.add_parser(name, help=help)
    for opt in (*required, *defaults):
        kw = {**_SHARED[opt], **({"default": defaults[opt]} if opt in defaults
                                 else {"required": True})}
        q.add_argument(*kw.pop("flags", (f"--{opt}",)), **kw)
    q.set_defaults(fn=fn)
    return q


_KINDS = {ChannelSpec: "discrete", GaussChannel: "gauss", HGaussChannel: "gauss_h"}


def _load_channel(path, *classes):
    """Parse a channel file and refuse a class the command does not take."""
    ch = parse_channel_file(path)
    if not isinstance(ch, classes):
        raise ValidationError(f"this command needs a "
                              f"{' or '.join(_KINDS[c] for c in classes)} channel file")
    return ch


def cmd_region_eval(args) -> int:
    ch = _load_channel(args.channel, ChannelSpec)
    fn, kind = {"eval-inner": (eval_degraded_inner, "ux"),
                "eval-outer": (eval_degraded_outer, "ux"),
                "eval-general": (eval_general_inner, "layered")}[args.cmd]
    aux = parse_aux_file(args.aux)
    if aux.kind != kind:
        raise ValidationError(f"this command takes a {kind} aux, got a {aux.kind} aux "
                              f"over {', '.join(aux.table.names)}")
    check_matches_channel(ch, aux)
    with numbered([()]):   # the file's one aux: its errors name no instance
        sys_ = fn(aux, ch)
    return _emit(vertices(sys_) if args.vertices else sys_, args)


def cmd_sweep(args) -> int:
    """``region sweep`` over aux joints, ``gauss sweep`` over covariance splits."""
    if args.group == "region":
        res = sweep_inner_region(_load_channel(args.channel, ChannelSpec), args.budget,
                                 seed=args.seed, mode=args.mode)
    else:
        res = sweep_covariances(_load_channel(args.channel, GaussChannel), args.budget,
                                seed=args.seed, mode=args.mode, trace_p=args.trace_p)
    return _emit(res, args)


def cmd_fm_verify(args) -> int:
    rep = fm_script.verify_builtin_chain(seed=args.seed, instantiations=args.budget,
                                         tol=args.tol)
    rows = []
    for s in rep.steps:
        print(f"step {s.index:2d}  {s.op:14s} {s.detail:24s} -> {s.expect:7s} "
              f"{'ok' if s.matched else 'MISMATCH':9s} extras={s.extras_dropped} {s.message}")
        rows.append([s.index, s.op, s.detail, s.expect, int(s.matched),
                     s.extras_dropped, f"{s.worst_drop_slack:.3e}", s.message])
    return _conclude(args, (["step", "op", "detail", "expect", "matched", "extras_dropped",
                             "worst_drop_slack", "message"], rows),
                     ["chain verified: every recorded system reproduced"] if rep.ok else [],
                     not rep.ok, "derivation chain reproduces every recorded system")


def cmd_gauss_eval(args) -> int:
    if args.order and args.bound != "general":
        raise ValidationError("--order is read only by --bound general")
    ch = _load_channel(args.channel, GaussChannel)
    split = parse_split_file(args.split)
    check_matches_channel(ch, split)
    if args.bound == "general":
        sys_ = eval_general_gauss(split, ch, order=args.order or "21")
    else:
        sys_ = {"inner": eval_gauss_inner, "outer": eval_gauss_outer}[args.bound](split, ch)
    return _emit(vertices(sys_) if args.vertices else sys_, args)


def cmd_gauss_dpc(args) -> int:
    ch = _load_channel(args.channel, GaussChannel)
    if args.split:
        if args.budget is not None or args.seed is not None:
            raise ValidationError("--split checks the one split given, so it takes no "
                                  "--budget or --seed")
        split = parse_split_file(args.split)
        check_matches_channel(ch, split)
        if split.K is not None:
            raise ValidationError("dpc-check needs a triple split (K0, K1, K2)")
        k0, k1, k2 = split.K0, split.K1, split.K2
    else:   # triple i is draws 3i, 3i + 1 and 3i + 2, checked as three stacks
        rng = np.random.default_rng(args.seed or 0)
        k0, k1, k2 = (random_psd_under(rng, ch.S / 3.0, size=3 * (args.budget or 100))
                      .reshape(-1, 3, ch.dim, ch.dim).swapaxes(0, 1))
    worst = max(0.0, *np.ravel(dpc_identity_check(k1, k2, k0, ch)).tolist())
    return _conclude(args, None, [f"max precoding-identity residual: {worst:.3e}"],
                     worst > args.tol, f"precoding identity within {args.tol}")


def cmd_gauss_degraded(args) -> int:
    ch = _load_channel(args.channel, GaussChannel, HGaussChannel)
    if isinstance(ch, GaussChannel):
        lines = [f"noise-covariance order holds: {ch.degraded}"]
        invariant = "noise covariances ordered Sigma1 <= Sigma2 <= SigmaZ"
    else:
        lines = [f"gain-quotient degradedness holds: {ch.degraded}"]
        for name, m in zip(("D21", "DZ2"), ch.quotients):
            lines += [f"{name}:", *("  " + " ".join(f"{x: .6g}" for x in row) for row in m)]
        invariant = "H2 = D21 H1 and HZ = DZ2 H2 with contractions D21, DZ2"
    return _conclude(args, None, lines, not ch.degraded, invariant)


def _gauss_draws(rng: np.random.Generator, budget: int, dim: int) -> dict:
    """The normal draws of the Gaussian instances of ``fisher debruijn``:
    instance i of dimension d = 1 + i % dim draws a 2d x 2d joint factor,
    then a d x d noise factor.  One ``normal`` call fills them all in stream
    order, the values a two-call-an-instance loop draws; returns
    d -> (instances, joint factors, noise factors), from d = 1 up."""
    dims = 1 + np.arange(budget) % dim
    ends = np.cumsum(5 * dims ** 2)
    z = rng.normal(size=int(ends[-1]))
    draws = {}
    for d in range(1, min(budget, dim) + 1):
        nums = np.flatnonzero(dims == d)
        start = ends[nums, None] - 5 * d * d
        draws[d] = (nums.tolist(), z[start + np.arange(4 * d * d)].reshape(-1, 2 * d, 2 * d),
                    z[start + np.arange(4 * d * d, 5 * d * d)].reshape(-1, d, d))
    return draws


def cmd_fisher_debruijn(args) -> int:
    rng = np.random.default_rng(args.seed)
    residual = {}   # every Gaussian instance drawn first, then one call per dimension
    for nums, joint, a in _gauss_draws(rng, args.budget, args.dim).values():
        with numbered(nums):
            r = debruijn_check(gauss_pair_of(joint),
                               a @ a.mT + 0.3 * np.eye(a.shape[-1]), step=args.step)
        residual.update(zip(nums, r.tolist()))
    rows = [["gauss", i, residual[i]] for i in range(args.budget)]
    mixes, variances = [], []   # every mixture and its noise variance, then one call
    for _ in range(max(1, args.budget // 5)):
        mixes.append(random_mixture(rng))
        variances.append(0.5 + rng.uniform(0, 1))
    r = debruijn_check(mixes, np.reshape(variances, (-1, 1, 1)), step=args.step)
    rows += [["mixture", i, ri] for i, ri in enumerate(r.tolist())]
    worst = max(0.0, *(r for _, _, r in rows))
    return _conclude(args, (["kind", "instance", "residual"],
                            [[kind, i, f"{r:.6e}"] for kind, i, r in rows]),
                     [f"max entropy-gradient residual: {worst:.3e}"],
                     worst > args.tol, f"entropy-gradient identity within {args.tol}")


def cmd_fisher_lemmas(args) -> int:
    rep = lemma_suite_check(seed=args.seed, count=args.budget,
                            include_mixtures=args.mixtures)
    rows = [[lemma, kind, idx, f"{slack:.6e}"] for lemma, kind, idx, slack in rep.rows]
    return _conclude(args, (["lemma", "kind", "instance", "min_slack"], rows),
                     [f"  {lemma:4s} min slack {slack: .3e}"
                      for lemma, slack in sorted(rep.min_slack().items())],
                     rep.worst < -args.tol, f"lemma slacks >= -{args.tol}")


def cmd_fisher_evidence(args) -> int:
    ch = _load_channel(args.channel, GaussChannel)
    s_cap = ch.scalars[0]
    rng = np.random.default_rng(args.seed)
    envelope = pareto_front(
        sweep_covariances(ch, budget=max(40, args.budget), seed=args.seed).points)
    mixes = []
    for _ in range(args.budget):
        mix = random_mixture(rng)
        scale = np.sqrt(0.98 * s_cap / max(mix.second_moment(), MOMENT_FLOOR))
        mixes.append(type(mix)(mix.u_points, mix.x_points * min(1.0, scale), mix.weights))
    reps = sufficiency_evidence_scalar(mixes, ch, envelope, slack_tol=args.tol)
    rows = [[i, f"{rep.max_slack:.6e}", int(rep.contained)] for i, rep in enumerate(reps)]
    worst = max(rep.max_slack for rep in reps)
    return _conclude(args, (["mixture", "max_slack", "contained"], rows),
                     [f"max dominance slack over {args.budget} mixtures: {worst:.3e}"],
                     worst > args.tol,
                     f"mixture regions inside the Gaussian envelope within {args.tol}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wtr", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)
    region, fm, gauss, fisher = (
        sub.add_parser(name, help=help).add_subparsers(dest="cmd", required=True)
        for name, help in (("region", "discrete-channel regions"),
                           ("fm", "inequality-system machinery"),
                           ("gauss", "Gaussian vector channels"),
                           ("fisher", "Fisher-information lab")))

    for name in ("eval-inner", "eval-outer", "eval-general"):
        q = _command(region, name, cmd_region_eval, "channel", out=None, format=None)
        q.add_argument("--aux", required=True)
        q.add_argument("--vertices", action="store_true", help="emit vertices, not constraints")
    q = _command(region, "sweep", cmd_sweep, "channel", "budget", seed=0, out=None, format=None)
    q.add_argument("--mode", choices=("degraded", "general"), default="degraded")

    _command(fm, "verify-appendix", cmd_fm_verify, help="replay the bundled derivation chain",
             instantiations=fm_script.CERT_INSTANTIATIONS, seed=0, tol=fm_script.CERT_TOL,
             out=None)

    q = _command(gauss, "eval", cmd_gauss_eval, "channel", out=None, format=None)
    q.add_argument("--split", required=True)
    q.add_argument("--bound", choices=("inner", "outer", "general"), default="inner")
    q.add_argument("--order", choices=("21", "12"), help="--bound general only; default 21")
    q.add_argument("--vertices", action="store_true")
    q = _command(gauss, "sweep", cmd_sweep, "channel", "budget", seed=0, out=None, format=None)
    q.add_argument("--mode", choices=("fixed_S", "trace_P"), default="fixed_S")
    q.add_argument("--trace-p", type=float, default=None)
    # --budget (default 100) and --seed (default 0) draw random triples; a
    # --split reads neither, so None marks an option the user did not give
    q = _command(gauss, "dpc-check", cmd_gauss_dpc, "channel", budget=None, seed=None,
                 tol=1e-9)
    q.add_argument("--split")
    _command(gauss, "degraded-check", cmd_gauss_degraded, "channel")

    q = _command(fisher, "debruijn", cmd_fisher_debruijn, budget=20, seed=0, tol=1e-4,
                 out=None)
    q.add_argument("--dim", type=_integer("--dim", 1), default=3)
    q.add_argument("--step", type=float, default=1e-4)
    q = _command(fisher, "lemmas", cmd_fisher_lemmas, budget=200, seed=0, tol=1e-8, out=None)
    q.add_argument("--mixtures", action="store_true")
    _command(fisher, "evidence", cmd_fisher_evidence, "channel", budget=50, seed=0, tol=1e-3,
             out=None)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "format", None) == "pretty" and args.out:
            raise ValidationError("--out writes CSV, so it takes no --format pretty")
        return args.fn(args)
    except (ParseError, ValidationError, IoError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except WiretapError as e:
        print(f"violated invariant: {e}", file=sys.stderr)
        return VIOLATION


if __name__ == "__main__":
    sys.exit(main())
