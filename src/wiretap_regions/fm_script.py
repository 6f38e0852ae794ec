"""Scripted elimination chains with recorded intermediate systems.

A chain is a start system, an ordered list of steps (variable eliminations,
rate transfers, final sign-row removal), and for each step a recorded system
the produced one must match.  Matching is symbolic: constraints are compared
modulo the system's own equalities on the left and modulo the entropy-algebra
equality span on the right.  Constraints the projection produces beyond the
recorded ones are dropped and certified redundant numerically on random
instantiations (an LP per dropped row), never silently.

The bundled chain (``builtin_chain``) certifies that the superposition /
binning / joint-encoding constraint system for two receivers with common
public and confidential rates projects exactly onto the ten-bound achievable
region over ``(Rp1, Rs1, Rp2, Rs2)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

import numpy as np

from .entropy_algebra import (
    EqualitySet,
    FactorStructure,
    InfoExpr,
    derive_equalities,
    expand_mi,
    sym,
)
from .errors import ParseError, ScriptStepMismatch
from .info_core import ProbTable, VarId, make_table, mutual_information
from .polytope_fm import (
    EQ,
    LE,
    IneqSystem,
    LinIneq,
    apply_rate_transfer,
    fm_eliminate,
    instantiate,
    region_equal,
    substitute_equality,
    support_value,
)
from .regions_discrete import random_aux_layered

MIN_UY = "Imin(U;Yj)"
MIN_UYQ = "Imin(U;Yj|Q)"

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
            from .entropy_algebra import ent
            return ent(set(names) | set(cond)) - ent(set(cond))
        from .entropy_algebra import ent
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
    """Parse ``<combo> <= <combo>`` or ``<combo> = <combo>`` into a LinIneq.

    Rate-variable terms are collected on the left, information terms on the
    right, regardless of which side they were written on.
    """
    ratevars = set(ratevars)
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
    return LinIneq.of(cl, er - el, rel)


def parse_system(text: str, ratevars) -> list[LinIneq]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        out.append(parse_constraint(line, ratevars, line_no=i))
    return out


# --- canonical matching --------------------------------------------------------


def _reduce_mod_equalities(q: LinIneq, eq_pivots, entropy_eqs: EqualitySet | None) -> LinIneq:
    coeffs = q.coeff_dict()
    rhs = q.rhs
    changed = True
    while changed:
        changed = False
        for pivot, (row, row_rhs) in eq_pivots.items():
            a = coeffs.get(pivot)
            if a:
                # pivot = row_rhs - sum(row[v] * v); substitute and move the
                # information part to the right-hand side
                coeffs[pivot] = Fraction(0)
                for v, c in row.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) - a * c
                if isinstance(rhs, InfoExpr):
                    rhs = rhs - row_rhs * a
                changed = True
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if entropy_eqs is not None and isinstance(rhs, InfoExpr):
        rhs = entropy_eqs.reduce(rhs)
    return LinIneq.of(coeffs, rhs, q.rel, q.label).canonical()


def _equality_pivots(equalities, var_order):
    """Triangularize the equalities: pivot each on its first variable."""
    pivots = {}
    for eq in equalities:
        coeffs = eq.coeff_dict()
        rhs = eq.rhs
        for pivot, (row, row_rhs) in pivots.items():
            a = coeffs.get(pivot)
            if a:
                coeffs[pivot] = Fraction(0)
                for v, c in row.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) - a * c
                rhs = rhs - row_rhs * a
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not coeffs:
            continue
        pivot = next(v for v in var_order if coeffs.get(v))
        c = coeffs.pop(pivot)
        pivots[pivot] = ({v: k / c for v, k in coeffs.items()},
                         rhs * (Fraction(1) / c))
    return pivots


@dataclass
class MatchResult:
    matched: bool
    missing: list[LinIneq] = field(default_factory=list)
    extras: list[LinIneq] = field(default_factory=list)


def match_systems(produced: IneqSystem, recorded: IneqSystem,
                  entropy_eqs: EqualitySet | None) -> MatchResult:
    """Compare constraint sets modulo equalities (left) and entropy span (right).

    Every recorded constraint must appear among the produced ones; produced
    constraints beyond the recorded set are returned as extras.
    """
    pivots = _equality_pivots(produced.equalities, produced.vars)

    def eq_key(q):
        # equalities compare by their own sign-normalized form (reducing them
        # against the pivot set would collapse every one of them to 0 = 0)
        r = q.canonical()
        rhs = entropy_eqs.reduce(r.rhs) if entropy_eqs is not None and \
            isinstance(r.rhs, InfoExpr) else r.rhs
        return (r.coeffs, rhs.key() if isinstance(rhs, InfoExpr) else float(rhs))

    def canon_set(sys):
        eqs, ineqs = {}, {}
        for q in sys.ineqs:
            if q.rel == EQ:
                eqs[eq_key(q)] = q
                continue
            r = _reduce_mod_equalities(q, pivots, entropy_eqs)
            ineqs[(r.coeffs, r.rhs_key())] = q
        return eqs, ineqs

    p_eqs, p_ineqs = canon_set(produced)
    r_eqs, r_ineqs = canon_set(recorded)
    missing = [v for k, v in r_eqs.items() if k not in p_eqs]
    missing += [v for k, v in r_ineqs.items() if k not in p_ineqs]
    extras = [v for k, v in p_eqs.items() if k not in r_eqs]
    extras += [v for k, v in p_ineqs.items() if k not in r_ineqs]
    return MatchResult(matched=not missing, missing=missing, extras=extras)


# --- numeric certification of dropped rows -------------------------------------


def layered_structure() -> FactorStructure:
    """The two-layer encoding factorization p(q,u) p(v1,v2,x|u) p(y1,y2,z|x),
    loaded from the bundled factorization fixture."""
    from .io_files import parse_dag_file

    path = resources.files("wiretap_regions").joinpath("data").joinpath(
        "factorizations").joinpath("layered.dag")
    with resources.as_file(path) as p:
        return parse_dag_file(p)


def random_layered_joint(rng: np.random.Generator, card: int = 2,
                         degraded: bool = False, indep_v: bool = False) -> ProbTable:
    """Random joint over (Q,U,V1,V2,X,Y1,Y2,Z) consistent with the layered
    factorization, all alphabets of the given size.

    ``degraded`` draws the channel as a cascade X -> Y1 -> Y2 -> Z (a special
    case of the general factorization); ``indep_v`` draws V1 and V2
    independent given U.  Both knobs bias instantiations toward nonnegative
    secrecy differences, which the redundancy certification needs (generic
    draws often give empty instantiated regions, which certify nothing).
    """
    c = card
    aux = random_aux_layered(rng, c, c, c, c, c, indep_v=indep_v)
    if degraded:
        s1 = rng.dirichlet(np.ones(c), size=c)
        s2 = rng.dirichlet(np.ones(c), size=c)
        s3 = rng.dirichlet(np.ones(c), size=c)
        p_out_x = np.einsum("xi,ij,jk->xijk", s1, s2, s3)
    else:
        p_out_x = rng.dirichlet(np.ones(c ** 3), size=c).reshape(c, c, c, c)
    joint = np.einsum("quabx,xijk->quabxijk", aux.table.probs, p_out_x)
    names = ["Q", "U", "V1", "V2", "X", "Y1", "Y2", "Z"]
    return make_table(tuple(VarId(n, c) for n in names), joint)


def min_sym_values(table: ProbTable) -> dict[str, float]:
    return {
        MIN_UY: min(mutual_information(table, {"U"}, {"Y1"}),
                    mutual_information(table, {"U"}, {"Y2"})),
        MIN_UYQ: min(mutual_information(table, {"U"}, {"Y1"}, {"Q"}),
                     mutual_information(table, {"U"}, {"Y2"}, {"Q"})),
    }


def _certify_redundant(kept: IneqSystem, extras, tables,
                       tol: float) -> list[tuple[LinIneq, float, int]]:
    """Max violation of each dropped row over the kept region, per instantiation.

    Instantiations whose kept region is empty certify nothing (the dropped row
    was vacuous there) and are skipped.  Returns, per extra row, the worst
    slack over informative instantiations (<= tol required) and the count of
    informative instantiations (0 means the row was never exercised).
    """
    results = []
    for q in extras:
        worst = -np.inf
        informative = 0
        for table in tables:
            syms = min_sym_values(table)
            kept_num = instantiate(kept, table, syms)
            rhs = q.rhs.evaluate(table, syms) if isinstance(q.rhs, InfoExpr) else float(q.rhs)
            obj = {v: float(c) for v, c in q.coeffs}
            val = support_value(kept_num, obj)
            if val == float("-inf"):
                continue  # empty instantiated region: the dropped row is vacuous here
            if val is None:
                worst = np.inf  # unbounded in the dropped direction
                break
            informative += 1
            worst = max(worst, val - rhs)
        results.append((q, float(worst) if informative else 0.0, informative))
    return results


# --- script ---------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    op: str                       # eliminate | transfer | transfer_full | drop_signs
    var: str | None = None
    transfers: tuple = ()         # ((src, dst, slack), ...)
    expect: str | None = None     # fixture name


@dataclass
class StepReport:
    index: int
    op: str
    detail: str
    expect: str | None
    matched: bool
    extras_dropped: int
    worst_drop_slack: float
    message: str = ""


@dataclass
class ChainReport:
    steps: list[StepReport]
    final_matched: bool

    @property
    def ok(self) -> bool:
        return self.final_matched and all(s.matched for s in self.steps)


def run_step(sys: IneqSystem, step: Step) -> IneqSystem:
    if step.op == "eliminate":
        return fm_eliminate(sys, step.var)
    if step.op in ("transfer", "transfer_full"):
        pairs = [(s, d) for s, d, _ in step.transfers]
        slacks = [t for _, _, t in step.transfers]
        out = apply_rate_transfer(sys, pairs, slacks)
        if step.op == "transfer_full":
            src = step.transfers[0][0]
            out = substitute_equality(
                out, LinIneq.of({src: Fraction(1)}, out.rhs_zero(), rel=EQ), src)
        return out
    if step.op == "drop_signs":
        return sys.with_ineqs([q for q in sys.ineqs if q.coeffs])
    raise ScriptStepMismatch(f"unknown step op {step.op!r}")


def verify_elimination_script(start: IneqSystem, steps, fixtures: dict,
                              entropy_eqs: EqualitySet,
                              rng: np.random.Generator | None = None,
                              instantiations: int = 3,
                              tol: float = 1e-7,
                              strict: bool = True) -> ChainReport:
    """Replay a scripted chain against its recorded systems.

    Each step is executed, the produced system is matched against the recorded
    fixture (exact constraint-for-constraint match modulo entropy-algebra
    equality of right-hand sides), and any produced-but-not-recorded rows are
    certified redundant numerically before being dropped.  With ``strict`` a
    mismatch raises :class:`ScriptStepMismatch`; otherwise it is reported.
    """
    rng = rng or np.random.default_rng(0)
    # biased pool: empty instantiated regions certify nothing, so lead with
    # degraded channels and conditionally independent inner layers
    tables = []
    for _ in range(instantiations):
        tables.append(random_layered_joint(rng, degraded=True, indep_v=True))
        tables.append(random_layered_joint(rng, degraded=True))
        tables.append(random_layered_joint(rng))
    cur = start
    reports = []
    for i, step in enumerate(steps):
        produced = run_step(cur, step)
        detail = step.var or ",".join(f"{s}>{d}:{t}" for s, d, t in step.transfers)
        expect_sys = fixtures[step.expect] if step.expect else None
        if expect_sys is None:
            cur = produced
            reports.append(StepReport(i, step.op, detail, None, True, 0, 0.0))
            continue
        res = match_systems(produced, expect_sys, entropy_eqs)
        worst = 0.0
        msg = ""
        if res.matched and step.op == "drop_signs":
            # removal of variable-free sign rows: on instantiations where the
            # removed rows hold, the region with and without them must coincide
            dropped = [q for q in cur.ineqs if not q.coeffs]
            exercised = 0
            for table in tables:
                syms = min_sym_values(table)
                vals = [q.rhs.evaluate(table, syms) if isinstance(q.rhs, InfoExpr)
                        else float(q.rhs) for q in dropped]
                if any(v < -1e-9 for v in vals):
                    continue
                exercised += 1
                with_signs = instantiate(cur, table, syms)
                without = instantiate(produced, table, syms)
                if not region_equal(with_signs, without, 1e-9):
                    res.matched = False
                    msg = "region changed by removing sign rows"
                    break
            if res.matched and not exercised:
                msg = "sign-row removal never exercised (rows negative on all instantiations)"
        elif res.matched and res.extras:
            kept = produced.with_ineqs(
                [q for q in produced.ineqs if q not in res.extras])
            certs = _certify_redundant(kept, res.extras, tables, tol)
            worst = max(s for _, s, _ in certs) if certs else 0.0
            starved = [q for q, _, n in certs if n == 0]
            if worst > tol:
                bad = max(certs, key=lambda c: c[1])[0]
                res.matched = False
                msg = f"dropped row is not redundant: {bad!r} (slack {worst:.3e})"
            elif starved:
                msg = f"{len(starved)} dropped row(s) never exercised (all instantiations empty)"
        elif not res.matched:
            msg = f"missing recorded constraint: {res.missing[0]!r}"
        reports.append(StepReport(i, step.op, detail, step.expect, res.matched,
                                  len(res.extras), worst, msg))
        if not res.matched and strict:
            raise ScriptStepMismatch(
                f"step {i} ({step.op} {detail}): {msg}",
                step=i, constraint=(res.missing[0] if res.missing else None))
        # continue from the recorded system (also after a mismatch, so every
        # later step is still certified against its own recorded input)
        cur = expect_sys
    final_ok = all(r.matched for r in reports)
    return ChainReport(steps=reports, final_matched=final_ok)


# --- bundled chain ---------------------------------------------------------------


def _data_text(name: str) -> str:
    root = resources.files("wiretap_regions")
    return root.joinpath("data").joinpath("elimination_chain").joinpath(name).read_text()


CHAIN_VARS = ("Rp0", "Rpp0", "Rs0", "Rp1", "Rs1", "Rp2", "Rs2",
              "D0", "D1", "D2", "L1", "L2", "a1", "a2", "al", "be")


def load_builtin_chain():
    """Load the bundled start system, step list and recorded fixtures.

    Returns ``(start, steps, fixtures, target_name)``.
    """
    ratevars = set(CHAIN_VARS)
    fixtures = {}
    steps = []
    start_name = None
    for raw in _data_text("chain.script").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "start":
            start_name = parts[1]
        elif parts[0] == "step":
            op = parts[1]
            expect = parts[parts.index("expect") + 1] if "expect" in parts else None
            if op == "eliminate":
                steps.append(Step(op="eliminate", var=parts[2], expect=expect))
            elif op in ("transfer", "transfer_full"):
                transfers = []
                for spec in parts[2:parts.index("expect")]:
                    sd, slack = spec.split(":")
                    s, d = sd.split(">")
                    transfers.append((s, d, slack))
                steps.append(Step(op=op, transfers=tuple(transfers), expect=expect))
            elif op == "drop_signs":
                steps.append(Step(op="drop_signs", expect=expect))
            else:
                raise ParseError(f"unknown script op {op!r}")
        else:
            raise ParseError(f"unknown script line {line!r}")
    names = {start_name} | {s.expect for s in steps if s.expect}
    for name in sorted(names):
        body = parse_system(_data_text(name + ".sys"), ratevars)
        var_order = [v for v in CHAIN_VARS
                     if any(q.coeff(v) != 0 for q in body)]
        fixtures[name] = IneqSystem.of(tuple(var_order), body)
    start = fixtures[start_name]
    return start, steps, fixtures, steps[-1].expect


def verify_builtin_chain(seed: int = 0, instantiations: int = 3,
                         tol: float = 1e-7, strict: bool = True) -> ChainReport:
    """Replay the bundled elimination chain end to end."""
    start, steps, fixtures, _ = load_builtin_chain()
    eqs = derive_equalities(layered_structure())
    rng = np.random.default_rng(seed)
    return verify_elimination_script(start, steps, fixtures, eqs, rng=rng,
                                     instantiations=instantiations, tol=tol,
                                     strict=strict)
