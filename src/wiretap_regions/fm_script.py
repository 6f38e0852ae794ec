"""Scripted elimination chains with recorded intermediate systems.

A chain is a start system, an ordered list of steps (variable eliminations,
rate transfers, final sign-row removal), and for each step a recorded system
the produced one must match.  Matching is symbolic: constraints are compared
modulo the system's own equalities on the left and modulo the entropy-algebra
equality span on the right.  Constraints the projection produces beyond the
recorded ones are dropped and certified redundant numerically on random
instantiations (two LPs per replay serve every dropped row of every step and
instantiation), never silently.

The bundled chain (``load_builtin_chain``) certifies that the superposition
/ binning / joint-encoding constraint system for two receivers with common
public and confidential rates projects exactly onto the ten-bound achievable
region over ``(Rp1, Rs1, Rp2, Rs2)``, ``target.sys``; the general inner
region (:func:`~.regions_discrete.eval_general_inner`) evaluates that target.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .entropy_algebra import (
    EqualitySet,
    FactorStructure,
    InfoExpr,
    atoms_by_table,
    derive_equalities,
    ent,
    expand_mi,
    lincomb,
    sym,
)
from .errors import ParseError, ScriptStepMismatch, ValidationError
from .info_core import (
    ProbTable,
    VarId,
    entropies,
    mi_sets,
    mutual_information,
    smallest_holding,
    take_stack,
)
from .io_files import parse_dag_file, text_lines
from .polytope_fm import (
    CERT_TOL,
    EQ,
    LE,
    IneqSystem,
    LinIneq,
    SystemStack,
    apply_rate_transfer,
    fm_eliminate,
    instantiate,
    substitute_equality,
    support_value,
)
from .regions_discrete import LAYERED_VARS, OUTPUTS, _check_layered, _layered_probs

CERT_INSTANTIATIONS = 3   # rounds of three random joints that certify dropped rows

MIN_UY = "Imin(U;Yj)"
MIN_UYQ = "Imin(U;Yj|Q)"

_LABEL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(Imin\([^)]*\)|I\([^)]*\)|H\([^)]*\)|[A-Za-z_][A-Za-z0-9_]*|\d+(?:/\d+)?)"
)


def _parse_atom(tok: str) -> InfoExpr:
    if tok.startswith("Imin("):
        return sym(tok)
    inner = tok[2:-1]
    if tok.startswith("H("):
        if "|" in inner:
            a, c = inner.split("|")
            names = [s.strip() for s in a.split(",")]
            cond = [s.strip() for s in c.split(",")]
            return ent(set(names) | set(cond)) - ent(set(cond))
        return ent({s.strip() for s in inner.split(",")})
    # I(A;B|C)
    cond = set()
    if "|" in inner:
        inner, c = inner.split("|")
        cond = {s.strip() for s in c.split(",")}
    a, b = inner.split(";")
    return expand_mi({s.strip() for s in a.split(",")},
                     {s.strip() for s in b.split(",")}, cond)


def _parse_side(text: str, ratevars: set[str], line_no):
    """Parse one side into (var coefficients, info expression)."""
    coeffs: dict[str, Fraction] = {}
    expr = InfoExpr()
    pos = 0
    text = text.strip()
    if text == "0" or text == "":
        return coeffs, expr
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ParseError(f"cannot parse term at ...{text[pos:]!r}", line=line_no)
        sign = -1 if m.group(1) == "-" else 1
        k = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        k *= sign
        tok = m.group(3)
        if tok in ratevars:
            coeffs[tok] = coeffs.get(tok, Fraction(0)) + k
        elif tok[0].isdigit():
            expr = expr + InfoExpr(constant=Fraction(tok) * k)
        elif tok.startswith(("I(", "H(", "Imin(")):
            expr = expr + _parse_atom(tok) * k
        else:
            raise ParseError(f"unknown identifier {tok!r} (not a declared rate variable)",
                             line=line_no)
        pos = m.end()
    return coeffs, expr


def parse_constraint(line: str, ratevars, line_no=None) -> LinIneq:
    """Parse ``[label:] <combo> <= <combo>`` or ``[label:] <combo> = <combo>``
    into a LinIneq.

    Rate-variable terms are collected on the left, information terms on the
    right, regardless of which side they were written on.  The label, an
    identifier, names the row in printed output; matching ignores it.
    """
    ratevars = set(ratevars)
    label = None
    if ":" in line:
        label, line = (part.strip() for part in line.split(":", 1))
        if not _LABEL.fullmatch(label):
            raise ParseError(f"malformed label {label!r}", line=line_no)
    if "<=" in line:
        lhs, rhs = line.split("<=")
        rel = LE
    elif "=" in line:
        lhs, rhs = line.split("=")
        rel = EQ
    else:
        raise ParseError(f"no relation in {line!r}", line=line_no)
    cl, el = _parse_side(lhs, ratevars, line_no)
    cr, er = _parse_side(rhs, ratevars, line_no)
    for v, k in cr.items():
        cl[v] = cl.get(v, Fraction(0)) - k
    return LinIneq.of(cl, er - el, rel, label)


def parse_system(text: str, ratevars) -> list[LinIneq]:
    return [parse_constraint(line, ratevars, line_no=no) for no, line in text_lines(text)]


# --- canonical matching --------------------------------------------------------


def _substitute_pivots(nums: dict, den: int, rhs, pivots):
    """Remove every pivot variable from the row ``sum(nums[v] * v) / den``
    using its pivot row.

    A pivot row ``(c, row, row_rhs)`` holds integer pairs ``row`` with ``c >
    0`` on the pivot and states ``sum(row[v] / c * v) = row_rhs``; a row with
    ``a`` on the pivot becomes ``(c * row - a * pivot row) / c`` over the
    integers (both divided by ``gcd(a, c)``), moving the information part to
    the right-hand side.  One pass in insertion order removes every pivot,
    because each pivot row holds only pivots inserted after it.  Returns the
    nonzero numerators, their denominator and the new right-hand side.
    """
    for pivot, (c, row, row_rhs) in pivots.items():
        a = nums.get(pivot)
        if a:
            rhs = rhs - row_rhs.scaled(a, den)
            g = math.gcd(a, c)
            nums = lincomb(nums.items(), c // g, row, -a // g)
            den *= c // g
    return nums, den, rhs


def _reduce_mod_equalities(q: LinIneq, eq_pivots, entropy_eqs: EqualitySet) -> LinIneq:
    nums, den, rhs = _substitute_pivots(dict(q.nums), q.den, q.rhs, eq_pivots)
    return LinIneq.exact(nums, den, entropy_eqs.reduce(rhs), q.rel, q.label).canonical()


def _equality_pivots(equalities, var_order):
    """Triangularize the equalities: pivot each on its first variable, as
    ``(c, ((v, k), ...), rhs)`` with ``k = c > 0`` on the pivot and
    ``sum(k / c * v) = rhs``."""
    pivots = {}
    for eq in equalities:
        nums, den, rhs = _substitute_pivots(dict(eq.nums), eq.den, eq.rhs, pivots)
        if not nums:
            continue
        pivot = next(v for v in var_order if nums.get(v))
        c = nums[pivot]
        sign = 1 if c > 0 else -1
        pivots[pivot] = (c * sign, tuple((v, k * sign) for v, k in nums.items()),
                         rhs.scaled(den, c))
    return pivots


@dataclass(frozen=True)
class MatchResult:
    missing: list[LinIneq]
    extras: list[LinIneq]

    @property
    def matched(self) -> bool:
        return not self.missing


def match_systems(produced: IneqSystem, recorded: IneqSystem,
                  entropy_eqs: EqualitySet) -> MatchResult:
    """Compare constraint sets modulo equalities (left) and entropy span (right).

    Every recorded constraint must appear among the produced ones; produced
    constraints beyond the recorded set are returned as extras.  An empty
    ``entropy_eqs`` compares right-hand sides exactly.
    """
    pivots = _equality_pivots(produced.equalities, produced.vars)

    def eq_key(q):
        # equalities compare by their own sign-normalized form (reducing them
        # against the pivot set would collapse every one of them to 0 = 0)
        r = q.canonical()
        return (r.nums, entropy_eqs.reduce(r.rhs).key())

    def canon_set(sys):
        eqs, ineqs = {}, {}
        for q in sys.ineqs:
            if q.rel == EQ:
                eqs[eq_key(q)] = q
                continue
            r = _reduce_mod_equalities(q, pivots, entropy_eqs)
            ineqs[(r.nums, r.rhs.key())] = q
        return eqs, ineqs

    p_eqs, p_ineqs = canon_set(produced)
    r_eqs, r_ineqs = canon_set(recorded)
    missing = [v for k, v in r_eqs.items() if k not in p_eqs]
    missing += [v for k, v in r_ineqs.items() if k not in p_ineqs]
    extras = [v for k, v in p_eqs.items() if k not in r_eqs]
    extras += [v for k, v in p_ineqs.items() if k not in r_ineqs]
    return MatchResult(missing=missing, extras=extras)


# --- numeric certification of dropped rows -------------------------------------


@functools.lru_cache(maxsize=None)
def layered_structure() -> FactorStructure:
    """The two-layer encoding factorization p(q,u) p(v1,v2,x|u) p(y1,y2,z|x),
    loaded from the bundled factorization fixture once per process."""
    path = resources.files("wiretap_regions").joinpath("data").joinpath(
        "factorizations").joinpath("layered.dag")
    with resources.as_file(path) as p:
        return parse_dag_file(p)


def random_layered_joint(rng: np.random.Generator, degraded: bool = False,
                         indep_v: bool = False) -> ProbTable:
    """Random joint over (Q,U,V1,V2,X,Y1,Y2,Z) consistent with the layered
    factorization, every alphabet binary, as a table of one member.

    ``degraded`` draws the channel as a cascade X -> Y1 -> Y2 -> Z (a special
    case of the general factorization); ``indep_v`` draws V1 and V2
    independent given U.  Both knobs bias instantiations toward nonnegative
    secrecy differences, which the redundancy certification needs (generic
    draws often give empty instantiated regions, which certify nothing).
    The table is not validated: :func:`verify_elimination_script` checks the
    stack of its draws once.
    """
    c = 2
    aux = _layered_probs(rng, c, c, c, c, c, indep_v)
    if degraded:
        s1 = rng.dirichlet(np.ones(c), size=c)
        s2 = rng.dirichlet(np.ones(c), size=c)
        s3 = rng.dirichlet(np.ones(c), size=c)
        p_out_x = np.einsum("xi,ij,jk->xijk", s1, s2, s3)
    else:
        p_out_x = rng.dirichlet(np.ones(c ** 3), size=c).reshape(c, c, c, c)
    joint = np.einsum("quabx,xijk->quabxijk", aux, p_out_x)
    return ProbTable(tuple(VarId(n, c) for n in LAYERED_VARS + OUTPUTS), joint[None])


def min_sym_values(tables, exprs=()) -> dict:
    """The two ``Imin`` symbols on the sequence of ``tables``, each
    an array with one value per member, each mutual information read from
    the smallest table that holds it, as :func:`~.polytope_fm.instantiate`
    reads them.  The entropies the symbols read and those of the atoms of
    ``exprs`` (right-hand sides about to be evaluated on the same
    ``tables``) are asked of each table in one :func:`~.info_core.entropies`
    batch, so a marginal both need is summed once."""
    mis = [(smallest_holding(tables, {"U", y, *cond}), {y}, set(cond))
           for cond in ((), {"Q"}) for y in OUTPUTS[:2]]
    batch = {key: (t, [a.subset for a in atoms])
             for key, (t, atoms) in atoms_by_table(exprs, tables).items()}
    for t, y, cond in mis:
        batch.setdefault(id(t), (t, []))[1].extend(mi_sets({"U"}, y, cond))
    for t, sets in batch.values():
        entropies(t, sets)
    a, b, aq, bq = (mutual_information(t, {"U"}, y, cond) for t, y, cond in mis)
    return {MIN_UY: np.where(b < a, b, a), MIN_UYQ: np.where(bq < aq, bq, aq)}


def _certify_redundant(jobs, tables, syms) -> list[list[tuple[LinIneq, float, int]]]:
    """Max violation of each dropped row over its kept region, per instantiation.

    ``jobs`` holds one ``(kept, extras)`` pair per step; ``tables`` holds the
    tables and ``syms`` the symbol arrays (``min_sym_values(tables)``)
    of the instantiations, one member each.  Every kept region is
    instantiated, with its dropped rows, once over all the members, and one
    :func:`support_value` call answers every row of every (step, member), from
    two LPs per replay, each step's members as one stack.  An instantiation
    whose kept region is empty certifies nothing (every dropped row is vacuous
    there); one that a single row proves empty costs no LP.  Returns, per job
    and per extra row, the worst slack over informative instantiations (<=
    tol required; ``inf`` once the kept region is unbounded in the row's
    direction, and later members are then not read for that row) and the
    count of informative instantiations (0 means the row was never
    exercised).
    """
    members = len(next(iter(syms.values())))
    lp_jobs, where, rhs = [], [], {}
    for n, (kept, extras) in enumerate(jobs):
        objs = [{v: float(c) for v, c in q.coeffs} for q in extras]
        m = len(kept.ineqs)
        both = instantiate(kept.with_ineqs(kept.ineqs + tuple(extras)), tables, syms).rhs
        # a <= row with no negative coefficient and a negative rhs holds no
        # point of the orthant: its left side is >= 0 there
        nonnegative = [q.rel == LE and all(c >= 0 for _, c in q.nums) for q in kept.ineqs]
        full = ~(both[:, :m][:, nonnegative] < 0).any(axis=1)
        lp_jobs.append((SystemStack(kept, both[full, :m]), objs))
        where += [(n, t) for t in np.flatnonzero(full).tolist()]
        rhs.update(((n, t), dropped) for t, dropped in enumerate(both[:, m:].tolist()))
    answers = dict(zip(where, support_value(lp_jobs)))
    out = []
    for n, (_, extras) in enumerate(jobs):
        worst = [-np.inf] * len(extras)
        informative = [0] * len(extras)
        for t in range(members):
            for i, val in enumerate(answers.get((n, t), ())):
                if worst[i] == np.inf or val == float("-inf"):
                    continue  # already unbounded, or an empty instantiated region
                if val is None:
                    worst[i] = np.inf  # unbounded in the dropped direction
                    continue
                informative[i] += 1
                worst[i] = max(worst[i], val - rhs[n, t][i])
        out.append([(q, 0.0 if w == -np.inf else w, k)   # -inf: never exercised
                    for q, w, k in zip(extras, worst, informative)])
    return out


# --- script ---------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    op: str                       # eliminate | transfer | transfer_full | drop_signs
    expect: str                   # fixture name
    var: str | None = None
    transfers: tuple = ()         # ((src, dst, slack), ...)


@dataclass
class StepReport:
    index: int
    op: str
    detail: str
    expect: str
    matched: bool
    extras_dropped: int
    worst_drop_slack: float
    message: str = ""


@dataclass
class ChainReport:
    steps: list[StepReport]

    @property
    def ok(self) -> bool:
        return all(s.matched for s in self.steps)


def run_step(sys: IneqSystem, step: Step) -> IneqSystem:
    if step.op == "eliminate":
        return fm_eliminate(sys, step.var)
    if step.op in ("transfer", "transfer_full"):
        pairs = [(s, d) for s, d, _ in step.transfers]
        slacks = [t for _, _, t in step.transfers]
        out = apply_rate_transfer(sys, pairs, slacks)
        if step.op == "transfer_full":
            src = step.transfers[0][0]
            out = substitute_equality(out, LinIneq(((src, 1),), rel=EQ), src)
        return out
    if step.op == "drop_signs":
        return sys.with_ineqs([q for q in sys.ineqs if q.nums])
    raise ScriptStepMismatch(f"unknown step op {step.op!r}")


def verify_elimination_script(start: IneqSystem, steps, fixtures: dict,
                              entropy_eqs: EqualitySet, rng: np.random.Generator,
                              instantiations: int = CERT_INSTANTIATIONS,
                              tol: float = CERT_TOL) -> ChainReport:
    """Replay a scripted chain against its recorded systems.

    Each step is executed, the produced system is matched against the recorded
    fixture its ``expect`` names (exact constraint-for-constraint match modulo
    entropy-algebra equality of right-hand sides), and any
    produced-but-not-recorded rows are certified redundant numerically before
    being dropped; a ``drop_signs`` step is checked the same way.  A step
    matches when no recorded row is missing and no dropped row's slack
    exceeds ``tol``; every step is reported, matched or not.  Raises
    ValidationError unless ``instantiations >= 1``: with none, no dropped row
    would be certified.
    """
    if instantiations < 1:
        raise ValidationError(f"instantiations must be at least 1, got {instantiations}")
    # biased pool: empty instantiated regions certify nothing, so lead with
    # degraded channels and conditionally independent inner layers
    draws = []
    for _ in range(instantiations):
        draws.append(random_layered_joint(rng, degraded=True, indep_v=True))
        draws.append(random_layered_joint(rng, degraded=True))
        draws.append(random_layered_joint(rng))
    tables = (take_stack(draws[0].vars, np.concatenate([t.probs for t in draws])),)
    _check_layered(tables[0])
    syms = min_sym_values(tables)
    # symbolic pass first: each step restarts from its recorded input, so no
    # step waits on the certification of an earlier one
    cur, matches = start, []
    for step in steps:
        produced = run_step(cur, step)
        matches.append((match_systems(produced, fixtures[step.expect], entropy_eqs),
                        produced))
        # continue from the recorded system (also after a mismatch, so every
        # later step is still certified against its own recorded input)
        cur = fixtures[step.expect]
    jobs = [(produced.with_ineqs([q for q in produced.ineqs if q not in res.extras]),
             res.extras) for res, produced in matches if res.matched and res.extras]
    certified = iter(_certify_redundant(jobs, tables, syms))
    reports = []
    for i, (step, (res, _)) in enumerate(zip(steps, matches)):
        detail = step.var or ",".join(f"{s}>{d}:{t}" for s, d, t in step.transfers)
        worst, starved, redundant = 0.0, 0, True
        if res.matched and res.extras:
            certs = next(certified)
            bad, worst, _ = max(certs, key=lambda c: c[1])
            starved = sum(n == 0 for _, _, n in certs)
            redundant = worst <= tol
        matched = res.matched and redundant
        if not res.matched:
            msg = f"missing recorded constraint: {res.missing[0]!r}"
        elif not matched:
            msg = f"dropped row is not redundant: {bad!r} (slack {worst:.3e})"
        elif starved:
            msg = f"{starved} dropped row(s) never exercised (all instantiations empty)"
        else:
            msg = ""
        reports.append(StepReport(i, step.op, detail, step.expect, matched,
                                  len(res.extras), worst, msg))
    return ChainReport(steps=reports)


# --- bundled chain ---------------------------------------------------------------


def _data_text(name: str) -> str:
    root = resources.files("wiretap_regions")
    return root.joinpath("data").joinpath("elimination_chain").joinpath(name).read_text()


CHAIN_VARS = ("Rp0", "Rpp0", "Rs0", "Rp1", "Rs1", "Rp2", "Rs2",
              "D0", "D1", "D2", "L1", "L2", "a1", "a2", "al", "be")


@functools.lru_cache(maxsize=None)
def load_fixture(name: str) -> IneqSystem:
    """The bundled recorded system ``<name>.sys`` over the chain variables it
    mentions, parsed once per process (systems are immutable, so callers
    share them)."""
    body = parse_system(_data_text(name + ".sys"), set(CHAIN_VARS))
    var_order = [v for v in CHAIN_VARS if any(q.coeff(v) != 0 for q in body)]
    return IneqSystem.of(tuple(var_order), body)


def load_builtin_chain():
    """Load the bundled start system, step list and recorded fixtures.

    Returns ``(start, steps, fixtures)``; the last step's ``expect`` names
    the target system.
    """
    fixtures = {}
    steps = []
    start_name = None
    for no, line in text_lines(_data_text("chain.script")):
        parts = line.split()
        if parts[0] == "start":
            start_name = parts[1]
        elif parts[0] == "step":
            op = parts[1]
            if parts[-2:-1] != ["expect"]:
                raise ParseError(f"step line does not end in 'expect <system>': {line!r}",
                                 line=no)
            expect = parts[-1]
            if op == "eliminate":
                steps.append(Step(op="eliminate", var=parts[2], expect=expect))
            elif op in ("transfer", "transfer_full"):
                transfers = []
                for spec in parts[2:-2]:
                    sd, slack = spec.split(":")
                    s, d = sd.split(">")
                    transfers.append((s, d, slack))
                steps.append(Step(op=op, transfers=tuple(transfers), expect=expect))
            elif op == "drop_signs":
                steps.append(Step(op="drop_signs", expect=expect))
            else:
                raise ParseError(f"unknown script op {op!r}", line=no)
        else:
            raise ParseError(f"unknown script line {line!r}", line=no)
    names = {start_name} | {s.expect for s in steps}
    for name in sorted(names):
        fixtures[name] = load_fixture(name)
    start = fixtures[start_name]
    return start, steps, fixtures


def verify_builtin_chain(seed: int, instantiations: int = CERT_INSTANTIATIONS,
                         tol: float = CERT_TOL) -> ChainReport:
    """Replay the bundled elimination chain end to end."""
    start, steps, fixtures = load_builtin_chain()
    return verify_elimination_script(start, steps, fixtures,
                                     derive_equalities(layered_structure()),
                                     np.random.default_rng(seed), instantiations, tol)
