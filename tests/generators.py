"""Test inputs the package itself never builds: tables of one distribution,
random layered auxes, channel files written in the format
``io_files.parse_channel_file`` reads, and numeric systems written by hand or
taken apart for Fourier-Motzkin."""

import dataclasses

import numpy as np

from wiretap_regions.entropy_algebra import InfoExpr, evaluate_all
from wiretap_regions.info_core import ChannelSpec, take_stack
from wiretap_regions.io_files import _stage_blocks
from wiretap_regions.polytope_fm import IneqSystem, SystemStack
from wiretap_regions.regions_discrete import LAYERED_VARS, AuxJoint, _aux_vars, _layered_probs
from wiretap_regions.regions_gaussian import GaussChannel, HGaussChannel


def table_of(vars_, probs):
    """The validated table of the one distribution ``probs`` (copied): a
    stack of one."""
    return take_stack(vars_, np.array(probs, dtype=float)[None])


def random_aux_layered(rng: np.random.Generator, card_q: int, card_u: int,
                       card_v1: int, card_v2: int, card_x: int,
                       indep_v: bool = False) -> AuxJoint:
    """A random layered aux of one member, drawn as the general sweep draws
    its samples (``regions_discrete._layered_probs``)."""
    arr = _layered_probs(rng, card_q, card_u, card_v1, card_v2, card_x, indep_v)
    return AuxJoint(table_of(_aux_vars(LAYERED_VARS, arr.shape), arr))


def _mat_lines(name: str, m) -> list[str]:
    return [f"{name}:"] + [" ".join("%.17g" % x for x in row)
                           for row in np.atleast_2d(np.asarray(m, dtype=float))]


def emit_channel_file(ch, path) -> None:
    """Write a channel in the parse format, floats with 17 significant
    digits, so parsing it back gives the same matrices bit for bit."""
    if isinstance(ch, ChannelSpec):
        lines = ["kind: discrete", f"input: {ch.input.name} {ch.input.cardinality}",
                 "outputs: " + " ".join(f"{o.name} {o.cardinality}" for o in ch.outputs)]
        if ch.stages is not None:
            for n, s in zip(_stage_blocks(ch.input, ch.outputs), ch.stages):
                lines += _mat_lines(n, s)
        else:
            lines += _mat_lines("kernel", ch.kernel.reshape(ch.kernel.shape[0], -1))
    elif isinstance(ch, GaussChannel):
        lines = ["kind: gauss"]
        for name in ("S", "Sigma1", "Sigma2", "SigmaZ"):
            lines += _mat_lines(name, getattr(ch, name))
    elif isinstance(ch, HGaussChannel):
        lines = ["kind: gauss_h"]
        for name in ("H1", "H2", "HZ"):
            lines += _mat_lines(name, getattr(ch, name))
    else:
        raise TypeError(f"cannot emit {type(ch).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def stack_of(sys: IneqSystem) -> SystemStack:
    """A system with numeric right-hand sides (written by hand, or projected
    by Fourier-Motzkin on numbers) as a region stack of one, each
    right-hand side the float nearest its exact value."""
    return SystemStack(sys, [evaluate_all([q.rhs for q in sys.ineqs], ())])


def system_of(stack: SystemStack, k: int = 0) -> IneqSystem:
    """Member ``k`` of a region stack as a system whose right-hand sides are
    the exact values of its floats, for Fourier-Motzkin on numbers."""
    return stack.rows.with_ineqs([dataclasses.replace(q, rhs=InfoExpr(constant=b)) for q, b in
                                  zip(stack.rows.ineqs, stack.rhs[k].tolist())])


def by_label(stack: SystemStack, k: int = 0) -> dict:
    """Member ``k``'s right-hand sides by row label."""
    return dict(zip((q.label for q in stack.rows.ineqs), stack.rhs[k].tolist()))
