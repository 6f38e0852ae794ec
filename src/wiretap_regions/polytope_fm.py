"""Linear inequality systems over rate variables and Fourier-Motzkin projection.

Systems live in the nonnegative orthant: every rate variable carries an
implicit ``v >= 0`` constraint (the "ambient" bounds).  Coefficients are exact
rationals, held as integer numerators over one positive denominator per row;
right-hand sides are either :class:`~.entropy_algebra.InfoExpr` values
(symbolic systems) or floats (numeric systems).  Every row operation
(scaling, the Fourier-Motzkin combination of two rows, substitution of an
equality) is integer cross-multiplication followed by division by the gcd,
so a row keeps its exact rational value.  ``Fraction`` appears only at the
boundary: :meth:`LinIneq.of` takes any rationals, and ``coeffs`` and
:meth:`LinIneq.coeff` give exact values.  A right-hand side is scaled by
:func:`scale_rhs`: exactly on an ``InfoExpr``, and on a float by the float
nearest the rational factor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .entropy_algebra import InfoExpr, common_denominator, evaluate_all, lincomb
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateSlackName,
    LPFailure,
    RowsDiffer,
    UnboundedRegion,
    UnknownVariable,
    ZeroCoefficient,
)

LE = "<="
EQ = "=="

VERTEX_TOL = 1e-9
CERT_TOL = 1e-9           # largest slack a dropped row may keep and count as redundant,
                          # and the largest row violation of a support LP's point
# HiGHS tolerances of every support LP.  At the default feasibility
# tolerances (1e-7) a certification slack carries noise up to about 6.5e-8,
# above the 1e-9 a dropped FM row may keep, and the optimum can stop up to
# 1e-7 * |x|_1 short of the maximum.  solve_lp runs every LP, these included,
# without HiGHS presolve: every LP here is small, feasible and bounded by
# construction, so presolve only adds time, and it reports some unbounded LPs
# as infeasible (x >= 0, x0 + x1 - x2 <= 0, x0 - x1 + x2 <= 1, max sum x),
# which would read a nonempty region as empty.
CERT_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                   "dual_feasibility_tolerance": 1e-10}


def _rhs_is_zero(rhs) -> bool:
    if isinstance(rhs, InfoExpr):
        return rhs.is_zero()
    return rhs == 0.0


def scale_rhs(rhs, p: int, q: int):
    """``rhs * p / q`` for ints ``p`` and ``q != 0``: exact on an ``InfoExpr``;
    a float is multiplied by the float nearest ``p / q``."""
    if isinstance(rhs, InfoExpr):
        return rhs.scaled(p, q)
    return rhs * p if q == 1 else rhs * float(Fraction(p, q))


@dataclass(frozen=True)
class LinIneq:
    """``sum(nums[v] * v) / den REL rhs`` with REL one of ``<=`` or ``==``.

    ``nums`` holds the nonzero integer numerators sorted by variable and
    ``den`` is positive, the two in lowest terms, so a row's value has one
    representation.  ``coeffs`` and :meth:`coeff` give the exact values.
    """

    nums: tuple[tuple[str, int], ...]
    rhs: object
    rel: str = LE
    label: str | None = None
    den: int = 1

    @staticmethod
    def of(coeffs: dict, rhs, rel: str = LE, label: str | None = None) -> "LinIneq":
        """The row with rational coefficients ``coeffs``; a right-hand side
        that is not an ``InfoExpr`` becomes a float."""
        items = sorted((v, c) for v, c in coeffs.items() if c != 0)
        nums, den = common_denominator([c for _, c in items])
        return LinIneq(tuple(zip([v for v, _ in items], nums)),
                       rhs if isinstance(rhs, InfoExpr) else float(rhs), rel, label, den)

    @staticmethod
    def exact(nums: dict, den: int, rhs, rel: str = LE, label: str | None = None) -> "LinIneq":
        """The row ``sum(nums[v] * v) / den REL rhs`` for int numerators and
        ``den > 0``, in lowest terms."""
        items = sorted((v, c) for v, c in nums.items() if c)
        if den != 1:
            g = math.gcd(den, *(c for _, c in items))
            if g != 1:
                items = [(v, c // g) for v, c in items]
                den //= g
        return LinIneq(tuple(items), rhs, rel, label, den)

    def num(self, var: str) -> int:
        """The numerator of ``var``'s coefficient (0 when absent)."""
        for v, c in self.nums:
            if v == var:
                return c
        return 0

    def coeff(self, var: str):
        c = self.num(var)
        return c if self.den == 1 else Fraction(c, self.den)

    @property
    def coeffs(self) -> tuple:
        """``(variable, value)`` pairs: ``nums`` itself when ``den`` is 1."""
        return self.nums if self.den == 1 else tuple(
            (v, Fraction(c, self.den)) for v, c in self.nums)

    def coeff_dict(self) -> dict:
        return dict(self.coeffs)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.nums)

    def with_rhs(self, rhs) -> "LinIneq":
        return LinIneq(self.nums, rhs, self.rel, self.label, self.den)

    def canonical(self) -> "LinIneq":
        """Positive content normalization: the primitive integer vector
        positively proportional to the coefficients, the row scaled with it.

        Equalities additionally get their leading coefficient made positive
        (negative scaling is sign-preserving for ``==``).
        """
        if not self.nums:
            return self
        g = math.gcd(*(c for _, c in self.nums))
        if self.rel == EQ and self.nums[0][1] < 0:
            g = -g
        if g == 1 and self.den == 1:
            return self
        return LinIneq(tuple((v, c // g) for v, c in self.nums), scale_rhs(self.rhs, self.den, g),
                       self.rel, self.label)

    def rhs_key(self):
        return self.rhs.key() if isinstance(self.rhs, InfoExpr) else self.rhs

    def key(self):
        return (self.rel, self.nums, self.den, self.rhs_key())

    def lhs_text(self) -> str:
        return " + ".join(f"{c}*{v}" if c != 1 else v for v, c in self.coeffs) or "0"

    def __repr__(self):
        return f"{self.lhs_text()} {self.rel} {self.rhs!r}"


@dataclass(frozen=True)
class IneqSystem:
    """Constraint set over an ordered tuple of nonnegative rate variables."""

    vars: tuple[str, ...]
    ineqs: tuple[LinIneq, ...]

    def __post_init__(self):
        known = set(self.vars)
        for q in self.ineqs:
            for v, _ in q.nums:
                if v not in known:
                    raise UnknownVariable(f"constraint mentions unknown variable {v!r}")

    @staticmethod
    def of(vars, ineqs) -> "IneqSystem":
        return IneqSystem(tuple(vars), tuple(ineqs))

    @property
    def equalities(self) -> tuple[LinIneq, ...]:
        return tuple(q for q in self.ineqs if q.rel == EQ)

    def rhs_zero(self):
        for q in self.ineqs:
            return InfoExpr() if isinstance(q.rhs, InfoExpr) else 0.0
        return 0.0

    def with_ineqs(self, ineqs) -> "IneqSystem":
        return IneqSystem(self.vars, tuple(ineqs))


def _dedup(ineqs) -> list[LinIneq]:
    seen, out = set(), []
    for q in ineqs:
        k = q.canonical().key()
        if k not in seen:
            seen.add(k)
            out.append(q)
    return out


def _ambient_implied(q: LinIneq) -> bool:
    """True when the row follows from the nonnegative orthant alone."""
    return (q.rel == LE and all(c <= 0 for _, c in q.nums)
            and (q.rhs.is_zero() if isinstance(q.rhs, InfoExpr) else q.rhs >= 0.0))


def substitute_equality(sys: IneqSystem, eq: LinIneq, var: str | None = None) -> IneqSystem:
    """Remove ``var`` from the system using the equality ``eq``.

    The equality is solved for ``var`` and substituted into every constraint;
    the ambient bound ``var >= 0`` becomes an explicit constraint on the
    substituted expression.  When the equality involves a single variable,
    ``var`` may be omitted.
    """
    if eq.rel != EQ:
        raise ZeroCoefficient("substitution requires an equality")
    if var is None:
        if len(eq.nums) != 1:
            raise ZeroCoefficient("equality has several variables; name the one to remove")
        var = eq.nums[0][0]
    c = eq.num(var)
    if c == 0:
        raise ZeroCoefficient(f"equality has zero coefficient on {var!r}")
    if var not in sys.vars:
        return sys
    # var = (eq.rhs * eq.den - rest) / c; a row with a on var becomes
    # (c * row - a * eq) / c, the sign moved so the denominator stays positive
    sign = 1 if c > 0 else -1

    def replace(q: LinIneq) -> LinIneq | None:
        a = q.num(var)
        if a == 0:
            return q
        out = LinIneq.exact(lincomb(q.nums, c * sign, eq.nums, -a * sign), q.den * c * sign,
                            q.rhs + scale_rhs(eq.rhs, -a * eq.den, q.den * c), q.rel, q.label)
        if out.rel == EQ and not out.nums and _rhs_is_zero(out.rhs):
            return None  # the consumed equality itself
        return out

    new = [r for r in (replace(q) for q in sys.ineqs) if r is not None]
    # ambient var >= 0  =>  -(substituted expression) <= 0
    ambient = replace(LinIneq(((var, -1),), sys.rhs_zero()))
    if ambient is not None and not _ambient_implied(ambient):
        new.append(ambient)
    return IneqSystem(tuple(v for v in sys.vars if v != var), tuple(_dedup(new)))


def fm_eliminate(sys: IneqSystem, var: str) -> IneqSystem:
    """Project the system onto the remaining variables.

    If an equality mentions ``var`` it is substituted first (consuming it);
    otherwise all positive/negative inequality combinations are formed, with
    the ambient ``var >= 0`` acting as one lower bound.  A lower row with
    numerator ``-a`` on ``var`` and an upper row with ``b`` combine as
    ``(b * lower + a * upper) / (a * b)`` over the integers: the sum of the
    two rows scaled to coefficients -1 and +1 on ``var``.  Rows implied by the
    nonnegative orthant and exact duplicates are removed; anything else,
    including pure sign rows with no variables, is kept.
    """
    if var not in sys.vars:
        return sys
    for eq in sys.equalities:
        if eq.num(var) != 0:
            return substitute_equality(sys, eq, var)
    uppers, lowers, rest = [], [], []
    for q in sys.ineqs:
        a = q.num(var)
        if a > 0:
            uppers.append((q, a))
        elif a < 0:
            lowers.append((q, -a))
        else:
            rest.append(q)
    # ambient lower bound 0 <= var
    lowers.append((LinIneq(((var, -1),), sys.rhs_zero()), 1))
    out = list(rest)
    for (lo, a), (up, b) in itertools.product(lowers, uppers):
        combo = LinIneq.exact(lincomb(lo.nums, b, up.nums, a), a * b,
                              scale_rhs(lo.rhs, lo.den, a) + scale_rhs(up.rhs, up.den, b))
        if not _ambient_implied(combo):
            out.append(combo)
    return IneqSystem(tuple(v for v in sys.vars if v != var), tuple(_dedup(out)))


def apply_rate_transfer(sys: IneqSystem, transfers, slack_names) -> IneqSystem:
    """Augment the system with rate-transfer slack variables.

    Each transfer ``(source, dest)`` introduces a fresh nonnegative slack
    ``t``, named by the matching entry of ``slack_names``: the achievable
    tuple ``(source, dest)`` is rewritten to ``(source + t, dest - t)`` in old
    coordinates, i.e. the new region point gave up ``t`` of ``source`` in
    favor of ``dest``.  Nonnegativity of the old destination rate becomes
    ``sum of incoming slacks <= dest``; the bound of the slack total by the
    old source rate is the ambient nonnegativity of the new source.
    Destinations absent from the system are treated as zero in old
    coordinates (they enter as fresh variables equal to their incoming
    slack).  The result is ready for :func:`fm_eliminate` of the slacks.
    """
    transfers = list(transfers)
    if len(slack_names) != len(transfers):
        raise DuplicateSlackName("one slack name per transfer required")
    taken = set(sys.vars)
    for name in slack_names:
        if name in taken:
            raise DuplicateSlackName(f"slack name {name!r} already in use")
        taken.add(name)
    for s, d in transfers:
        if s == d:
            raise DuplicateSlackName(f"transfer {s!r} -> {d!r} is not a pair of distinct rates")

    gains = {}   # var -> slacks it receives (dest side)
    losses = {}  # var -> slacks it gives (source side)
    new_vars = list(sys.vars)
    for (s, d), t in zip(transfers, slack_names):
        losses.setdefault(s, []).append(t)
        gains.setdefault(d, []).append(t)
        if d not in new_vars:
            new_vars.append(d)
    new_vars.extend(slack_names)

    def rewrite(q: LinIneq) -> LinIneq:
        nums = dict(q.nums)
        for v, a in q.nums:
            for t in losses.get(v, ()):
                nums[t] = nums.get(t, 0) + a
            for t in gains.get(v, ()):
                nums[t] = nums.get(t, 0) - a
        return LinIneq.exact(nums, q.den, q.rhs, q.rel, q.label)

    out = [rewrite(q) for q in sys.ineqs]
    for dest, ts in gains.items():
        row = {t: 1 for t in ts}
        row[dest] = -1
        # old dest >= 0 when dest existed; otherwise dest is exactly its inflow
        rel = LE if dest in sys.vars else EQ
        out.append(LinIneq.exact(row, 1, sys.rhs_zero(), rel=rel))
    return IneqSystem(tuple(new_vars), tuple(_dedup(out)))


# --- numeric view -------------------------------------------------------------


@dataclass(frozen=True)
class VPolytope:
    """Vertex lists of a stack of bounded numeric systems inside the orthant:
    ``vertices`` holds every member's vertices in member order and ``counts``
    how many each member has.  A lone polytope is a stack of one, its
    ``counts`` defaulting to ``[len(vertices)]``."""

    vars: tuple[str, ...]
    vertices: np.ndarray = field(repr=False)
    counts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        # "+ 0.0" copies the array and turns the -0.0 entries of a solve into 0.0
        arr = np.asarray(self.vertices, dtype=float).reshape(-1, len(self.vars)) + 0.0
        counts = np.array([len(arr)] if self.counts is None else self.counts, dtype=int)
        if counts.sum() != len(arr):
            raise DimensionMismatch(f"counts add up to {counts.sum()}, not the {len(arr)} vertices")
        for a, name in ((arr, "vertices"), (counts, "counts")):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _numeric_rows(systems, allow_eq: bool = False) -> list[tuple]:
    """``(A, b)`` of each numeric system, or ``(A, b, A_eq, b_eq)`` with
    ``allow_eq``.  The coefficient rows become floats once per distinct
    (variables, rows) set, and the systems that have it share that read-only
    ``A`` (and ``A_eq``); the right-hand sides are each system's own."""
    shared, out = [], []
    for sys in systems:
        if any(isinstance(q.rhs, InfoExpr) for q in sys.ineqs):
            raise ZeroCoefficient("numeric operation on a symbolic system; instantiate first")
        key = (sys.vars, tuple((q.rel, q.nums, q.den) for q in sys.ineqs))
        # systems that share rows come in runs, so the latest set is tried first
        mats = next((m for k, m in reversed(shared) if k == key), None)
        if mats is None:
            mats = _coefficient_rows(sys, allow_eq)
            shared.append((key, mats))
        b = np.array([q.rhs for q in sys.ineqs if q.rel == LE], dtype=float)
        if allow_eq:
            out.append((mats[0], b, mats[1], np.array([q.rhs for q in sys.ineqs if q.rel == EQ],
                                                      dtype=float)))
        else:
            out.append((mats[0], b))
    return out


def _coefficient_rows(sys: IneqSystem, allow_eq: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float matrices of the ``<=`` and the ``==`` rows of ``sys``."""
    d = len(sys.vars)
    idx = {v: i for i, v in enumerate(sys.vars)}
    ub, eq = [], []
    for q in sys.ineqs:
        if q.rel != LE and not allow_eq:
            raise ZeroCoefficient("numeric vertex enumeration expects pure <= systems")
        row = np.zeros(d)
        for v, c in q.coeffs:
            row[idx[v]] = float(c)
        (ub if q.rel == LE else eq).append(row)
    mats = np.array(ub).reshape(-1, d), np.array(eq).reshape(-1, d)
    for m in mats:
        m.setflags(write=False)
    return mats


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None), what="LP",
             options=None):
    """Solve ``min c.x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``, ``bounds`` by HiGHS.

    Every LP runs without presolve (see ``CERT_LP_OPTIONS``); ``options``
    adds HiGHS options (``None`` keeps HiGHS's default tolerances).  Every
    caller builds an LP that is feasible and bounded by construction, so
    there is one outcome rule: scipy's result when the LP ends optimal
    (status 0), and LPFailure naming ``what`` on any other status.
    """
    from scipy.optimize import linprog

    res = linprog(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options={**(options or {}), "presolve": False})
    if res.status != 0:
        raise LPFailure(f"{what} LP failed with status {res.status}: {res.message}")
    return res


def vertices(systems) -> VPolytope:
    """Exact vertex enumeration by active-set basis enumeration, of one
    numeric system or of a stack of systems that share their variables and
    coefficient rows (a lone system is a stack of one; members whose rows
    differ raise :class:`RowsDiffer`).

    All ``d``-subsets of the constraint rows (explicit plus the orthant walls)
    are solved and filtered by feasibility at ``VERTEX_TOL``; vertices are
    deduplicated at ``VERTEX_TOL``.  The region lies in the orthant, so it
    holds no line, and when nonempty it has a vertex: no surviving basis means
    an empty region, with no LP solved.  A nonempty region must be bounded,
    and its recession cone ``{r >= 0, A r <= 0}`` depends on the shared rows
    ``A`` only: one recession LP per call checks it when any member is
    nonempty, and raises :class:`UnboundedRegion` otherwise.  Requires
    dimension at most 6.

    The members share their bases, so the determinants and the mask of
    nonsingular bases are computed once.  Every (member, basis) pair is one
    instance of a broadcast solve, which gives each member the bits its lone
    call gets (the multi-right-hand-side form ``solve(M, R)`` does not), in
    blocks of at most ``_BLOCK_SOLVES`` pairs, so memory does not grow with
    the stack.  Returns one :class:`VPolytope` holding each member's vertices
    in member order, with per-member ``counts``.
    """
    members = [systems] if isinstance(systems, IneqSystem) else list(systems)
    names = members[0].vars
    d = len(names)
    if d > 6:
        raise DimensionTooLarge(f"vertex enumeration supports dimension <= 6, got {d}")
    rows = _numeric_rows(members)
    A_exp = rows[0][0]
    if any(A is not A_exp for A, _ in rows):
        raise RowsDiffer("stacked systems must share their variables and coefficient rows")
    A = np.vstack([A_exp, -np.eye(d)])
    b = np.stack([np.concatenate([b_exp, np.zeros(d)]) for _, b_exp in rows])   # (N, m)
    combos = _bases(A.shape[0], d)
    mats = A[combos]                       # (n, d, d)
    dets = np.linalg.det(mats)
    scale = np.abs(mats).max(axis=(1, 2)) + 1.0
    ok = np.abs(dets) > 1e-12 * scale**d
    mats, combos = mats[ok], combos[ok]    # (k, d, d), (k, d)
    per_block = max(1, _BLOCK_SOLVES // max(len(combos), 1))
    pts = []
    for lo in range(0, len(b), per_block):
        blk = b[lo:lo + per_block]
        sols = np.linalg.solve(mats[None], blk[:, combos][..., None])[..., 0]   # (N, k, d)
        feas = (sols @ A.T <= blk[:, None, :] + VERTEX_TOL).all(axis=2)
        pts += [_unique_points(s[f], VERTEX_TOL) if f.any() else s[f] for s, f in zip(sols, feas)]
    counts = [len(p) for p in pts]
    # max sum(r) over r >= 0, A r <= 0, sum(r) <= 1 is 1 when the cone holds a
    # nonzero direction and 0 otherwise
    if any(counts) and solve_lp(-np.ones(d), np.vstack([A_exp, np.ones(d)]),
                                np.append(np.zeros(A_exp.shape[0]), 1.0),
                                what="recession").fun < -0.5:
        raise UnboundedRegion("system has a recession direction inside the orthant")
    return VPolytope(names, np.concatenate(pts), counts)


# (member, basis) solves per block of a stacked vertices() call: about 2 MB of
# feasibility products at the 14 rows of the ten-bound region
_BLOCK_SOLVES = 1 << 14


@functools.lru_cache(maxsize=None)
def _bases(m: int, d: int) -> np.ndarray:
    """Index array of every ``d``-subset of ``m`` rows, shared read-only."""
    combos = np.array(list(itertools.combinations(range(m), d)), dtype=int)
    combos.setflags(write=False)
    return combos


def _unique_points(pts: np.ndarray, tol: float) -> np.ndarray:
    """Rows of ``pts`` in lexicographic order, deduplicated at ``tol`` in the
    max norm: each row is dropped when it lies within ``tol`` of the last kept
    lexsort neighbour, then each survivor when it lies within ``tol`` of an
    earlier kept survivor (lexsort adjacency can split near-duplicates)."""
    pts = pts[np.lexsort(pts.T[::-1])]
    close = np.ones((len(pts), len(pts)), dtype=bool)
    for col in pts.T:   # one coordinate at a time: a max over a short axis is slow
        close &= np.abs(col[:, None] - col[None, :]) <= tol
    close = close.tolist()
    keep = [0]
    for i in range(1, len(pts)):
        if not close[i][keep[-1]]:
            keep.append(i)
    uniq = []
    for i in keep:
        if not any(close[i][j] for j in uniq):
            uniq.append(i)
    return pts[uniq]


def max_violation(sys: IneqSystem, point, var_order=None) -> float:
    """Largest amount by which ``point`` violates the system (<=0 means inside)."""
    [(A, b)] = _numeric_rows([sys])
    x = np.asarray(point, dtype=float)
    if var_order is not None and tuple(var_order) != sys.vars:
        pos = {v: i for i, v in enumerate(var_order)}
        x = x[[pos[v] for v in sys.vars]]
    worst = float((A @ x - b).max()) if A.shape[0] else 0.0
    return max(worst, float((-x).max()) if x.size else 0.0)


def region_equal(a: IneqSystem, b: IneqSystem) -> bool:
    """True iff the two numeric regions coincide (mutual vertex containment
    within ``VERTEX_TOL``)."""
    va = vertices(a)
    vb = vertices(b)
    for p in va.vertices:
        if max_violation(b, p, var_order=va.vars) > VERTEX_TOL:
            return False
    for p in vb.vertices:
        if max_violation(a, p, var_order=vb.vars) > VERTEX_TOL:
            return False
    return True


def support_value(jobs) -> list[list]:
    """``max objective . x`` over a numeric system, for every ``(system,
    objectives)`` job.

    Returns, per job, one value per objective: ``-inf`` for every objective
    of an empty region and ``None`` for one unbounded above.  Any list of jobs
    costs at most two LPs of :func:`_block_lp`, both feasible and bounded by
    construction.  The classification LP gives each job an elastic block
    (``A x - e <= b``, ``|A_eq x - b_eq| <= e``, minimizing ``e``: the region
    is nonempty when ``e`` is at most the primal feasibility tolerance of
    ``CERT_LP_OPTIONS``) and each distinct (rows, objective) pair a recession
    block (``r >= 0``, ``A r <= 0``, ``A_eq r = 0``, ``sum(r) <= 1``,
    maximizing ``objective . r``: a nonempty region is unbounded in that
    direction when the optimum exceeds ``CERT_TOL``).  The support LP then
    maximizes each (nonempty job, bounded objective) block over its own copy
    of the job's variables and rows.  Unlike :func:`vertices` this accepts
    equality rows.
    """
    rows = _numeric_rows([sys for sys, _ in jobs], allow_eq=True)
    dirs = [_directions(sys, objectives) for sys, objectives in jobs]
    keys = [(A.tobytes(), A_eq.tobytes()) for A, _, A_eq, _ in rows]
    elastic, cones = [], {}   # a recession cone depends on A and A_eq only
    for k, (A, b, A_eq, b_eq), cs in zip(keys, rows, dirs):
        M = np.vstack([A, A_eq, -A_eq])
        elastic.append((np.hstack([M, -np.ones((len(M), 1))]), np.concatenate([b, b_eq, -b_eq]),
                        np.zeros((0, M.shape[1] + 1)), np.zeros(0),
                        np.append(np.zeros(M.shape[1]), -1.0)))
        for c in cs:
            cones.setdefault((k, c.tobytes()), (A, A_eq, c))
    parts = _block_lp(elastic + [(np.vstack([A, np.ones(len(c))]), np.append(np.zeros(len(A)), 1.0),
                                  A_eq, np.zeros(len(A_eq)), c) for A, A_eq, c in cones.values()])
    bounded = {k: c @ r <= CERT_TOL for (k, (_, _, c)), r in zip(cones.items(), parts[len(jobs):])}
    out, blocks, slots = [], [], []
    for j, ((A, b, A_eq, b_eq), cs, k, x) in enumerate(zip(rows, dirs, keys, parts)):
        empty = x[-1] > CERT_LP_OPTIONS["primal_feasibility_tolerance"]
        out.append([float("-inf") if empty else None] * len(cs))   # None: unbounded
        for i, c in enumerate(cs):
            if not empty and bounded[(k, c.tobytes())]:
                blocks.append((A, b, A_eq, b_eq, c))
                slots.append((j, i))
    for (j, i), (*_, c), x in zip(slots, blocks, _block_lp(blocks)):
        out[j][i] = float(c @ x)
    return out


def _block_lp(blocks) -> list[np.ndarray]:
    """Each block's part of the point that maximizes ``sum(c . x)`` over
    independent ``(A, b, A_eq, b_eq, c)`` blocks (``A x <= b``, ``A_eq x =
    b_eq``, ``x >= 0``), stacked block-diagonally into one LP at
    ``CERT_LP_OPTIONS``.  Raises LPFailure unless the LP ends optimal at a
    point that violates its rows by at most ``CERT_TOL``.  Only
    :func:`support_value` calls it, so the benchmark tracer charges every
    certification LP to that function."""
    if not blocks:
        return []
    A, b, A_eq, b_eq, c = zip(*blocks)
    A, A_eq = block_diagonal_csr(A), block_diagonal_csr(A_eq)
    b, b_eq = np.concatenate(b), np.concatenate(b_eq)
    res = solve_lp(-np.concatenate(c), A, b, A_eq, b_eq, what="support", options=CERT_LP_OPTIONS)
    worst = max((float(r.max()) for r in (A @ res.x - b, np.abs(A_eq @ res.x - b_eq), -res.x)
                 if r.size), default=0.0)
    if worst > CERT_TOL:
        raise LPFailure(f"support LP point violates its rows by {worst:.3e}")
    return np.split(res.x, np.cumsum([len(ci) for ci in c])[:-1])


def block_diagonal_csr(blocks):
    """The block-diagonal CSR matrix of dense 2-d ``blocks`` (a block may
    have no rows), storing only their nonzero entries: scipy stores every
    zero of a dense block until it is dropped."""
    from scipy.sparse import block_diag

    m = block_diag(blocks, format="csr")
    m.eliminate_zeros()
    return m


def _directions(sys: IneqSystem, objectives) -> list[np.ndarray]:
    """Each objective as a dense vector over ``sys.vars``."""
    pos = {v: i for i, v in enumerate(sys.vars)}
    out = []
    for objective in objectives:
        c = np.zeros(len(sys.vars))
        for v, w in objective.items():
            c[pos[v]] = w
        out.append(c)
    return out


def instantiate(sys: IneqSystem, tables, sym_values=None) -> list[IneqSystem]:
    """One system per member of the stacked :class:`~.info_core.ProbTable`
    values ``tables`` and symbol arrays ``sym_values``: in member k each
    symbolic right-hand side takes its value on member k of every table and
    entry k of every symbol, as :meth:`~.entropy_algebra.InfoExpr.evaluate`
    sums it on that member alone, bit for bit, each entropy read once for the
    whole stack (:func:`~.entropy_algebra.evaluate_all`).  Raises
    DimensionMismatch for a lone table, or for stacks of different lengths."""
    if not all(t.stacked for t in tables):
        raise DimensionMismatch("instantiate takes stacked tables, not a lone one")
    sizes = {len(t.probs) for t in tables} | {len(v) for v in (sym_values or {}).values()}
    if len(sizes) != 1:
        raise DimensionMismatch(f"stacks of {sorted(sizes)} members cannot be "
                                f"instantiated together")
    n = sizes.pop()
    rows = [i for i, q in enumerate(sys.ineqs) if isinstance(q.rhs, InfoExpr)]
    # a right-hand side that reads no table or symbol is one float for every member
    values = dict(zip(rows, (np.broadcast_to(v, n) for v in evaluate_all(
        [sys.ineqs[i].rhs for i in rows], tables, sym_values))))
    return [sys.with_ineqs([q.with_rhs(float(values[i][k])) if i in values else q
                            for i, q in enumerate(sys.ineqs)]) for k in range(n)]
