"""Command-line surface.

Exit codes: 0 on success, 1 when a checked property is violated (the message
names the violated invariant), 2 on input errors.  All randomness flows from
the single ``--seed`` through numpy's PCG64 generator, so identical
invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fm_script
from .errors import WiretapError, ParseError, ValidationError, IoError
from .fisher_lab import (
    debruijn_check,
    lemma_suite_check,
    random_gauss_pair,
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
    check_degraded_H,
    check_degraded_order,
    dpc_identity_check,
    eval_gauss_inner,
    eval_gauss_outer,
    eval_general_gauss,
    random_psd_under,
    sweep_covariances,
)

OK, VIOLATION, INPUT_ERROR = 0, 1, 2


def _write_csv(path, text: str) -> None:
    """Write a command's CSV to its --out file and confirm it on stdout."""
    write_text(path, text)
    print(f"wrote {path}")


def _emit(obj, args) -> None:
    if args.out:
        _write_csv(args.out, region_csv_text(obj))
    elif args.format == "csv":
        sys.stdout.write(region_csv_text(obj))
    else:
        print(pretty_text(obj))


def _common(p, seed=True, tol=None, out=False):
    if seed:
        p.add_argument("--seed", type=int, default=0, help="PCG64 seed for all randomness")
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)
    if out:
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--format", choices=("csv", "pretty"))  # stdout only; default pretty


_KINDS = {ChannelSpec: "discrete", GaussChannel: "gauss", HGaussChannel: "gauss_h"}


def _load_channel(path, *classes):
    """Parse a channel file and refuse a class the command does not take."""
    ch = parse_channel_file(path)
    if not isinstance(ch, classes):
        raise ValidationError(f"this command needs a "
                              f"{' or '.join(_KINDS[c] for c in classes)} channel file")
    return ch


def _verdict(violated: bool, invariant: str) -> int:
    if violated:
        print(f"violated invariant: {invariant}")
        return VIOLATION
    return OK


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
    sys_ = fn(aux, ch)
    _emit(vertices(sys_) if args.vertices else sys_, args)
    return OK


def cmd_region_sweep(args) -> int:
    ch = _load_channel(args.channel, ChannelSpec)
    res = sweep_inner_region(ch, args.budget, seed=args.seed, mode=args.mode)
    _emit(res, args)
    return OK


def cmd_fm_verify(args) -> int:
    rep = fm_script.verify_builtin_chain(seed=args.seed, instantiations=args.budget,
                                         tol=args.tol)
    rows = []
    for s in rep.steps:
        print(f"step {s.index:2d}  {s.op:14s} {s.detail:24s} -> {s.expect:7s} "
              f"{'ok' if s.matched else 'MISMATCH':9s} extras={s.extras_dropped} {s.message}")
        rows.append([s.index, s.op, s.detail, s.expect, int(s.matched),
                     s.extras_dropped, f"{s.worst_drop_slack:.3e}", s.message])
    if args.out:
        _write_csv(args.out, csv_text(["step", "op", "detail", "expect", "matched",
                                       "extras_dropped", "worst_drop_slack", "message"], rows))
    if rep.ok:
        print("chain verified: every recorded system reproduced")
    return _verdict(not rep.ok, "derivation chain reproduces every recorded system")


def cmd_gauss_eval(args) -> int:
    ch = _load_channel(args.channel, GaussChannel)
    split = parse_split_file(args.split)
    check_matches_channel(ch, split)
    if args.bound == "general":
        sys_ = eval_general_gauss(split, ch, order=args.order)
    elif args.bound == "outer":
        sys_ = eval_gauss_outer(split, ch)
    else:
        sys_ = eval_gauss_inner(split, ch)
    _emit(vertices(sys_) if args.vertices else sys_, args)
    return OK


def cmd_gauss_sweep(args) -> int:
    ch = _load_channel(args.channel, GaussChannel)
    res = sweep_covariances(ch, budget=args.budget, seed=args.seed, mode=args.mode,
                            trace_p=args.trace_p)
    _emit(res, args)
    return OK


def cmd_gauss_dpc(args) -> int:
    ch = _load_channel(args.channel, GaussChannel)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    if args.split:
        split = parse_split_file(args.split)
        check_matches_channel(ch, split)
        if split.K is not None:
            raise ValidationError("dpc-check needs a triple split (K0, K1, K2)")
        worst = dpc_identity_check(split.K1, split.K2, split.K0, ch)
    else:
        for _ in range(args.budget):
            k0 = random_psd_under(rng, ch.S / 3.0)
            k1 = random_psd_under(rng, ch.S / 3.0)
            k2 = random_psd_under(rng, ch.S / 3.0)
            worst = max(worst, dpc_identity_check(k1, k2, k0, ch))
    print(f"max precoding-identity residual: {worst:.3e}")
    return _verdict(worst > args.tol, f"precoding identity within {args.tol}")


def cmd_gauss_degraded(args) -> int:
    ch = _load_channel(args.channel, GaussChannel, HGaussChannel)
    if isinstance(ch, GaussChannel):
        ok = check_degraded_order(ch)
        print(f"noise-covariance order holds: {ok}")
        invariant = "noise covariances ordered Sigma1 <= Sigma2 <= SigmaZ"
    else:
        ok, d21, dz2 = check_degraded_H(ch)
        print(f"gain-quotient degradedness holds: {ok}")
        print("D21:")
        for row in d21:
            print("  " + " ".join(f"{x: .6g}" for x in row))
        print("DZ2:")
        for row in dz2:
            print("  " + " ".join(f"{x: .6g}" for x in row))
        invariant = "H2 = D21 H1 and HZ = DZ2 H2 with contractions D21, DZ2"
    return _verdict(not ok, invariant)


def cmd_fisher_debruijn(args) -> int:
    if args.dim < 1:
        raise ValidationError("--dim must be at least 1")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for i in range(args.budget):
        d = 1 + i % args.dim
        pair = random_gauss_pair(rng, d)
        a = rng.normal(size=(d, d))
        sn = a @ a.T + 0.3 * np.eye(d)
        r = debruijn_check(pair, sn, step=args.step)
        rows.append(["gauss", i, f"{r:.6e}"])
        worst = max(worst, r)
    for i in range(max(1, args.budget // 5)):
        mix = random_mixture(rng)
        r = debruijn_check(mix, [[0.5 + rng.uniform(0, 1)]], step=args.step)
        rows.append(["mixture", i, f"{r:.6e}"])
        worst = max(worst, r)
    if args.out:
        _write_csv(args.out, csv_text(["kind", "instance", "residual"], rows))
    print(f"max entropy-gradient residual: {worst:.3e}")
    return _verdict(worst > args.tol, f"entropy-gradient identity within {args.tol}")


def cmd_fisher_lemmas(args) -> int:
    rep = lemma_suite_check(seed=args.seed, count=args.budget,
                            include_mixtures=args.mixtures)
    if args.out:
        _write_csv(args.out, csv_text(
            ["lemma", "kind", "instance", "min_slack"],
            [[lemma, kind, idx, f"{slack:.6e}"] for lemma, kind, idx, slack in rep.rows]))
    for lemma, slack in sorted(rep.min_slack().items()):
        print(f"  {lemma:4s} min slack {slack: .3e}")
    return _verdict(rep.worst < -args.tol, f"lemma slacks >= -{args.tol}")


def cmd_fisher_evidence(args) -> int:
    ch = _load_channel(args.channel, GaussChannel)
    if ch.dim != 1:
        raise ValidationError("the evidence harness is scalar only")
    rng = np.random.default_rng(args.seed)
    envelope = pareto_front(
        sweep_covariances(ch, budget=max(40, args.budget), seed=args.seed).points)
    slacks, rows = [], []
    s_cap = float(ch.S[0, 0])
    for i in range(args.budget):
        mix = random_mixture(rng)
        scale = np.sqrt(0.98 * s_cap / max(mix.second_moment(), 1e-12))
        mix = type(mix)(mix.u_points, mix.x_points * min(1.0, scale), mix.weights)
        rep = sufficiency_evidence_scalar(mix, ch, envelope, slack_tol=args.tol)
        slacks.append(rep.max_slack)
        rows.append([i, f"{rep.max_slack:.6e}", int(rep.contained)])
    if args.out:
        _write_csv(args.out, csv_text(["mixture", "max_slack", "contained"], rows))
    worst = max(slacks)
    print(f"max dominance slack over {args.budget} mixtures: {worst:.3e}")
    return _verdict(worst > args.tol,
                    f"mixture regions inside the Gaussian envelope within {args.tol}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wtr", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    region = sub.add_parser("region", help="discrete-channel regions").add_subparsers(
        dest="cmd", required=True)
    for name in ("eval-inner", "eval-outer", "eval-general"):
        q = region.add_parser(name)
        q.add_argument("--channel", required=True)
        q.add_argument("--aux", required=True)
        q.add_argument("--vertices", action="store_true", help="emit vertices, not constraints")
        _common(q, seed=False, out=True)
        q.set_defaults(fn=cmd_region_eval)
    q = region.add_parser("sweep")
    q.add_argument("--channel", required=True)
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("--mode", choices=("degraded", "general"), default="degraded")
    _common(q, out=True)
    q.set_defaults(fn=cmd_region_sweep)

    fm = sub.add_parser("fm", help="inequality-system machinery").add_subparsers(
        dest="cmd", required=True)
    q = fm.add_parser("verify-appendix", help="replay the bundled derivation chain")
    q.add_argument("--instantiations", "--budget", dest="budget", type=int,
                   default=fm_script.CERT_INSTANTIATIONS,
                   help="random instantiations certifying each dropped row")
    q.add_argument("--out")
    _common(q, tol=fm_script.CERT_TOL)
    q.set_defaults(fn=cmd_fm_verify)

    gauss = sub.add_parser("gauss", help="Gaussian vector channels").add_subparsers(
        dest="cmd", required=True)
    q = gauss.add_parser("eval")
    q.add_argument("--channel", required=True)
    q.add_argument("--split", required=True)
    q.add_argument("--bound", choices=("inner", "outer", "general"), default="inner")
    q.add_argument("--order", choices=("21", "12"), default="21")
    q.add_argument("--vertices", action="store_true")
    _common(q, seed=False, out=True)
    q.set_defaults(fn=cmd_gauss_eval)
    q = gauss.add_parser("sweep")
    q.add_argument("--channel", required=True)
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("--mode", choices=("fixed_S", "trace_P"), default="fixed_S")
    q.add_argument("--trace-p", type=float, default=None)
    _common(q, out=True)
    q.set_defaults(fn=cmd_gauss_sweep)
    q = gauss.add_parser("dpc-check")
    q.add_argument("--channel", required=True)
    q.add_argument("--split")
    q.add_argument("--budget", type=int, default=100)
    _common(q, tol=1e-9)
    q.set_defaults(fn=cmd_gauss_dpc)
    q = gauss.add_parser("degraded-check")
    q.add_argument("--channel", required=True)
    q.set_defaults(fn=cmd_gauss_degraded)

    fisher = sub.add_parser("fisher", help="Fisher-information lab").add_subparsers(
        dest="cmd", required=True)
    q = fisher.add_parser("debruijn")
    q.add_argument("--budget", type=int, default=20)
    q.add_argument("--dim", type=int, default=3)
    q.add_argument("--step", type=float, default=1e-4)
    q.add_argument("--out")
    _common(q, tol=1e-4)
    q.set_defaults(fn=cmd_fisher_debruijn)
    q = fisher.add_parser("lemmas")
    q.add_argument("--budget", type=int, default=200)
    q.add_argument("--mixtures", action="store_true")
    q.add_argument("--out")
    _common(q, tol=1e-8)
    q.set_defaults(fn=cmd_fisher_lemmas)
    q = fisher.add_parser("evidence")
    q.add_argument("--channel", required=True)
    q.add_argument("--budget", type=int, default=50)
    q.add_argument("--out")
    _common(q, tol=1e-3)
    q.set_defaults(fn=cmd_fisher_evidence)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "tol", 1) <= 0:
            raise ValidationError("tolerances must be positive")
        if getattr(args, "budget", 1) < 1:
            raise ValidationError("budget must be at least 1")
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
