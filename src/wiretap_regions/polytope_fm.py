"""Linear inequality systems over rate variables and Fourier-Motzkin projection.

Systems live in the nonnegative orthant: every rate variable carries an
implicit ``v >= 0`` constraint (the "ambient" bounds).  Coefficients are exact
rationals, held as integer numerators over one positive denominator per row;
every right-hand side is an :class:`~.entropy_algebra.InfoExpr`, a number
being one with only a constant.  Every row operation (scaling, the
Fourier-Motzkin combination of two rows, substitution of an equality) is
integer cross-multiplication followed by division by the gcd, and scales the
right-hand side exactly (``InfoExpr.scaled``), so a row keeps its exact
rational value.  ``Fraction`` appears only at the boundary:
:meth:`LinIneq.of` takes any rationals, a number on the right included, and
``coeffs`` and :meth:`LinIneq.coeff` give exact values.

A numeric region is a :class:`SystemStack`, a lone one a stack of one, and
every routine that computes on numbers reads one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .entropy_algebra import (InfoExpr, OutputSource, common_denominator, evaluate_all,
                              lincomb)
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateSlackName,
    LPFailure,
    UnboundedRegion,
    UnknownVariable,
    ZeroCoefficient,
)

LE = "<="
EQ = "=="

# Rate slack in nats, absolute: the largest amount by which a basis solution
# of vertices() may exceed a row and stay feasible, and the largest gap below
# a row's right-hand side at which the row is active.
VERTEX_TOL = 1e-9
# |det| of a basis of vertices(), relative to (its largest |entry| + 1)^d,
# at or below which the basis is singular and gives no vertex.
BASIS_DET_RTOL = 1e-12
CERT_TOL = 1e-9           # largest slack a dropped row may keep and count as redundant,
                          # the largest row violation of a support LP's point, and
                          # the widest bracket of a dominance slack, times 1 + max|p|
# HiGHS tolerances of every support and dominance LP.  At the default feasibility
# tolerances (1e-7) a certification slack carries noise up to about 6.5e-8,
# above the 1e-9 a dropped FM row may keep, a dominance slack's bracket
# reaches 7.4e-8 on the benchmark's envelopes, and the optimum can stop up to
# 1e-7 * |x|_1 short of the maximum.  solve_lp runs every LP, these included,
# without HiGHS presolve: every LP here is small, feasible and bounded by
# construction, so presolve only adds time, and it reports some unbounded LPs
# as infeasible (x >= 0, x0 + x1 - x2 <= 0, x0 - x1 + x2 <= 1, max sum x),
# which would read a nonempty region as empty.
CERT_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                   "dual_feasibility_tolerance": 1e-10}


ZERO = InfoExpr()   # the right-hand side of a row written without one


@dataclass(frozen=True)
class LinIneq:
    """``sum(nums[v] * v) / den REL rhs`` with REL one of ``<=`` or ``==``.

    ``nums`` holds the nonzero integer numerators sorted by variable and
    ``den`` is positive, the two in lowest terms, so a row's value has one
    representation.  ``coeffs`` and :meth:`coeff` give the exact values.
    """

    nums: tuple[tuple[str, int], ...]
    rhs: InfoExpr = ZERO
    rel: str = LE
    label: str | None = None
    den: int = 1

    @staticmethod
    def of(coeffs: dict, rhs=ZERO, rel: str = LE, label: str | None = None) -> "LinIneq":
        """The row with rational coefficients ``coeffs``: a right-hand side
        that is a number (any rational, a float included) becomes the
        ``InfoExpr`` whose constant is its exact value."""
        items = sorted((v, c) for v, c in coeffs.items() if c != 0)
        nums, den = common_denominator([c for _, c in items])
        rhs = rhs if isinstance(rhs, InfoExpr) else InfoExpr(constant=rhs)
        return LinIneq(tuple(zip([v for v, _ in items], nums)), rhs, rel, label, den)

    @staticmethod
    def exact(nums: dict, den: int, rhs: InfoExpr, rel: str = LE,
              label: str | None = None) -> "LinIneq":
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
        return LinIneq(tuple((v, c // g) for v, c in self.nums), self.rhs.scaled(self.den, g),
                       self.rel, self.label)

    def key(self):
        return (self.rel, self.nums, self.den, self.rhs.key())

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
    """True for a ``<=`` row with no positive coefficient and a zero
    right-hand side, which the nonnegative orthant implies alone."""
    return q.rel == LE and all(c <= 0 for _, c in q.nums) and q.rhs.is_zero()


def substitute_equality(sys: IneqSystem, eq: LinIneq, var: str) -> IneqSystem:
    """Remove ``var`` from the system using the equality ``eq``.

    The equality is solved for ``var`` and substituted into every constraint;
    the ambient bound ``var >= 0`` becomes an explicit constraint on the
    substituted expression.  A system without ``var`` is returned as it is;
    ZeroCoefficient is raised for an inequality ``eq`` or one whose
    coefficient on ``var`` is zero.
    """
    if eq.rel != EQ:
        raise ZeroCoefficient("substitution requires an equality")
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
                            q.rhs + eq.rhs.scaled(-a * eq.den, q.den * c), q.rel, q.label)
        if out.rel == EQ and not out.nums and out.rhs.is_zero():
            return None  # the consumed equality itself
        return out

    new = [r for r in (replace(q) for q in sys.ineqs) if r is not None]
    # ambient var >= 0  =>  -(substituted expression) <= 0
    ambient = replace(LinIneq(((var, -1),)))
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
    two rows scaled to coefficients -1 and +1 on ``var``.  Exact duplicates
    are removed, and so are the rows the nonnegative orthant implies with a
    zero right-hand side (no positive coefficient); anything else is kept,
    including pure sign rows with no variables and rows such as ``-y <= 1``
    that the orthant implies through a nonzero right-hand side.
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
    lowers.append((LinIneq(((var, -1),)), 1))
    out = list(rest)
    for (lo, a), (up, b) in itertools.product(lowers, uppers):
        combo = LinIneq.exact(lincomb(lo.nums, b, up.nums, a), a * b,
                              lo.rhs.scaled(lo.den, a) + up.rhs.scaled(up.den, b))
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
        out.append(LinIneq.exact(row, 1, ZERO, rel=rel))
    return IneqSystem(tuple(new_vars), tuple(_dedup(out)))


# --- numeric view -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SystemStack:
    """N numeric systems that share one row set: ``rows`` holds their
    variables, coefficient rows, relations and labels (its rows' exact
    right-hand sides, symbolic or zero, are not read), and ``rhs`` the
    read-only ``(N, m)`` matrix whose row k holds member k's right-hand
    sides, one column per row of ``rows``.
    Stacks compare and hash by identity (``rhs`` is an array)."""

    rows: IneqSystem
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        rhs = np.array(self.rhs, dtype=float, ndmin=2)
        if rhs.ndim != 2 or rhs.shape[1] != len(self.rows.ineqs):
            raise DimensionMismatch(f"a right-hand-side matrix of shape {rhs.shape} does not "
                                    f"fit {len(self.rows.ineqs)} rows")
        rhs.setflags(write=False)
        object.__setattr__(self, "rhs", rhs)

    @property
    def vars(self) -> tuple[str, ...]:
        return self.rows.vars

    def __len__(self) -> int:
        return len(self.rhs)


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


def vertices(stack: SystemStack) -> VPolytope:
    """Exact vertex enumeration by active-set basis enumeration, of every
    member of a :class:`SystemStack` (a lone region is a stack of one).

    All ``d``-subsets of the constraint rows (explicit plus the orthant walls)
    are solved and filtered by feasibility at ``VERTEX_TOL``; a vertex is
    fixed by its rows active within ``VERTEX_TOL``, and the bases of one
    degenerate vertex give it once.  A coordinate the filter keeps below 0
    (by at most ``VERTEX_TOL``) is returned as 0, so every vertex lies in
    the orthant.  The region lies in the orthant, so it
    holds no line, and when nonempty it has a vertex: no surviving basis means
    an empty region, with no LP solved.  A nonempty region must be bounded,
    and its recession cone ``{r >= 0, A r <= 0}`` depends on the shared rows
    ``A`` only: one recession LP per call checks it when any member is
    nonempty, and raises :class:`UnboundedRegion` otherwise.  Requires
    dimension at most 6.

    The coefficient matrix is read once a call, from the stack's row set, and
    the right-hand sides are the stack's matrix.  The members share their
    bases, so the determinants, the mask of nonsingular bases and one inverse
    per nonsingular basis are computed once a call.  Each (member, basis)
    vertex is that inverse applied to the member's right-hand side by
    elementwise multiply-adds over the basis rows in a fixed order, with no
    BLAS call whose summation order could depend on the stack, so a member
    gets the bits its lone call gets.  The pairs are taken in blocks of at
    most ``_BLOCK_SOLVES``, so memory does not grow with the stack.  Returns
    one :class:`VPolytope` holding each member's vertices in member order,
    with per-member ``counts``.
    """
    d = len(stack.vars)
    if d > 6:
        raise DimensionTooLarge(f"vertex enumeration supports dimension <= 6, got {d}")
    A_exp = _coefficient_rows(stack.rows, allow_eq=False)[0]
    A = np.vstack([A_exp, -np.eye(d)])
    b = np.hstack([stack.rhs, np.zeros((len(stack), d))])   # (N, m)
    combos = _bases(A.shape[0], d)
    mats = A[combos]                       # (n, d, d)
    dets = np.linalg.det(mats)
    scale = np.abs(mats).max(axis=(1, 2)) + 1.0
    ok = np.abs(dets) > BASIS_DET_RTOL * scale**d
    inv, combos = np.linalg.inv(mats[ok]), combos[ok]    # (k, d, d), (k, d)
    per_block = max(1, _BLOCK_SOLVES // max(len(combos), 1))
    parts = []
    for lo in range(0, len(b), per_block):
        blk = b[lo:lo + per_block]
        rhs = blk[:, combos]                                  # (N, k, d)
        sols = inv[:, :, 0] * rhs[..., :1]                    # (N, k, d)
        for j in range(1, d):
            sols += inv[:, :, j] * rhs[..., j:j + 1]
        lhs = sols @ A.T                                      # (N, k, m)
        member, basis = np.nonzero((lhs <= blk[:, None, :] + VERTEX_TOL).all(axis=2))
        active = lhs[member, basis] >= blk[member] - VERTEX_TOL
        parts.append(_unique_vertices(sols[member, basis], member, active, len(blk)))
    pts, counts = (np.concatenate(x) for x in zip(*parts))
    # a vertex kept within VERTEX_TOL outside an orthant wall lies on it
    pts = np.maximum(pts, 0.0)
    # max sum(r) over r >= 0, A r <= 0, sum(r) <= 1 is 1 when the cone holds a
    # nonzero direction and 0 otherwise
    if counts.any() and solve_lp(-np.ones(d), np.vstack([A_exp, np.ones(d)]),
                                np.append(np.zeros(A_exp.shape[0]), 1.0),
                                what="recession").fun < -0.5:
        raise UnboundedRegion("system has a recession direction inside the orthant")
    return VPolytope(stack.vars, pts, counts)


# (member, basis) pairs per block of a stacked vertices() call: about 2 MB of
# row products (feasibility and active rows) at the 14 rows of the ten-bound region
_BLOCK_SOLVES = 1 << 14


@functools.lru_cache(maxsize=None)
def _bases(m: int, d: int) -> np.ndarray:
    """Index array of every ``d``-subset of ``m`` rows, shared read-only."""
    combos = np.array(list(itertools.combinations(range(m), d)), dtype=int)
    combos.setflags(write=False)
    return combos


def _unique_vertices(pts: np.ndarray, member: np.ndarray, active: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """One row of ``pts`` per (member, set of active rows): row i belongs to
    member ``member[i]`` of ``n`` and ``active[i]`` marks the rows active at
    it, which fix a vertex.  Keeps the first row of each key in lexicographic
    order; returns the kept rows in member and lexicographic order and each
    member's count."""
    order = np.lexsort((*pts.T[::-1], member))
    key = np.column_stack([member[order], np.packbits(active[order], axis=1)])
    first = np.sort(unique_rows(key)[1])
    return pts[order[first]], np.bincount(member[order[first]], minlength=n)


def unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of the 2-d array ``a`` in lexicographic order, the
    index in ``a`` of each one's first occurrence, and for each row of ``a``
    the position of its distinct row: what ``np.unique(a, axis=0,
    return_index=True, return_inverse=True)`` returns (equal rows compare
    by value, so 0.0 and -0.0 are one value and the first occurrence's is
    kept), from one stable lexsort."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return s[new], order[new], inverse


def _check_known(names, known, what: str) -> None:
    """UnknownVariable naming the first of ``names`` not in ``known``."""
    for v in names:
        if v not in known:
            raise UnknownVariable(f"{what} names variable {v!r}, not one of {tuple(known)}")


def max_violation(stack: SystemStack, points, var_order=None) -> float:
    """Largest amount by which a point (one point, or the rows of
    ``points``; coordinates in ``var_order``, default ``stack.vars``) violates
    a member of ``stack``, the orthant walls included (<= 0 means every point
    lies inside every member).  UnknownVariable when ``var_order`` lacks a
    variable of the stack."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if var_order is not None and tuple(var_order) != stack.vars:
        _check_known(stack.vars, var_order, "the stack")
        pos = {v: i for i, v in enumerate(var_order)}
        x = x[:, [pos[v] for v in stack.vars]]
    A = _coefficient_rows(stack.rows, allow_eq=False)[0]
    rows = (x @ A.T)[:, None, :] - stack.rhs
    return float(max(rows.max(initial=-np.inf), (-x).max(initial=-np.inf)))


def region_equal(a: SystemStack, b: SystemStack) -> bool:
    """True iff each member of ``a`` coincides with the same member of ``b``
    (mutual vertex containment within ``VERTEX_TOL``); DimensionMismatch for
    stacks of different lengths, UnknownVariable for stacks over different
    variables."""
    if len(a) != len(b):
        raise DimensionMismatch(f"stacks of {len(a)} and {len(b)} members compared")
    _check_known(a.vars, b.vars, "the first stack")
    _check_known(b.vars, a.vars, "the second stack")
    va, vb = vertices(a), vertices(b)
    for other, vp in ((b, va), (a, vb)):
        for k, pts in enumerate(np.split(vp.vertices, np.cumsum(vp.counts)[:-1])):
            if max_violation(SystemStack(other.rows, other.rhs[k]), pts, vp.vars) > VERTEX_TOL:
                return False
    return True


def support_value(jobs) -> list[list]:
    """``max objective . x`` over each member of a numeric region stack, for
    every ``(stack, objectives)`` job.

    Returns one answer list per member, the jobs' members in order, with
    one value per objective: ``-inf`` for every objective of an empty region
    and ``None`` for one unbounded above.  Each stack's coefficient matrices
    are read once from its rows.  Any list of jobs costs at most two LPs of
    :func:`_block_lp`, both feasible and bounded by construction.  The
    classification LP gives each member an elastic block (``A x - e <= b``,
    ``|A_eq x - b_eq| <= e``, minimizing ``e``: the region is nonempty when
    ``e`` is at most the primal feasibility tolerance of
    ``CERT_LP_OPTIONS``) and each distinct (rows, objective) pair a recession
    block (``r >= 0``, ``A r <= 0``, ``A_eq r = 0``, ``sum(r) <= 1``,
    maximizing ``objective . r``: a nonempty region is unbounded in that
    direction when the optimum exceeds ``CERT_TOL``).  The support LP then
    maximizes each (nonempty member, bounded objective) block over its own
    copy of the member's variables and rows.  Unlike :func:`vertices` this
    accepts equality rows.  UnknownVariable for an objective naming a
    variable outside its stack.
    """
    rows = []   # (A, b, A_eq, b_eq, objective vectors) of each member
    for stack, objectives in jobs:
        for o in objectives:
            _check_known(o, stack.vars, "an objective")
        A, A_eq = _coefficient_rows(stack.rows, allow_eq=True)
        le = np.array([q.rel == LE for q in stack.rows.ineqs], dtype=bool)
        cs = [np.array([o.get(v, 0.0) for v in stack.vars], dtype=float) for o in objectives]
        rows += [(A, b[le], A_eq, b[~le], cs) for b in stack.rhs]
    keys = [(A.tobytes(), A_eq.tobytes()) for A, _, A_eq, _, _ in rows]
    elastic, cones = [], {}   # a recession cone depends on A and A_eq only
    for k, (A, b, A_eq, b_eq, cs) in zip(keys, rows):
        M = np.vstack([A, A_eq, -A_eq])
        elastic.append((np.hstack([M, -np.ones((len(M), 1))]), np.concatenate([b, b_eq, -b_eq]),
                        np.zeros((0, M.shape[1] + 1)), np.zeros(0),
                        np.append(np.zeros(M.shape[1]), -1.0)))
        for c in cs:
            cones.setdefault((k, c.tobytes()), (A, A_eq, c))
    parts = _block_lp(elastic + [(np.vstack([A, np.ones(len(c))]), np.append(np.zeros(len(A)), 1.0),
                                  A_eq, np.zeros(len(A_eq)), c) for A, A_eq, c in cones.values()])
    bounded = {k: c @ r <= CERT_TOL for (k, (_, _, c)), r in zip(cones.items(), parts[len(rows):])}
    out, blocks, slots = [], [], []
    for j, ((A, b, A_eq, b_eq, cs), k, x) in enumerate(zip(rows, keys, parts)):
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
    have no rows), storing only their nonzero entries: every block's rows
    laid out in one array as wide as the widest block, at the block's
    column offset, for :func:`csr_rows`."""
    heights, widths = [len(b) for b in blocks], [b.shape[1] for b in blocks]
    vals = np.zeros((sum(heights), max(widths)))
    for b, lo in zip(blocks, itertools.accumulate(heights, initial=0)):
        vals[lo:lo + len(b), :b.shape[1]] = b
    offsets = np.cumsum([0] + widths)
    cols = np.repeat(offsets[:-1], heights)[:, None] + np.arange(vals.shape[1])
    return csr_rows(vals, cols, offsets[-1])


def csr_rows(vals: np.ndarray, cols: np.ndarray, width: int):
    """The CSR matrix of ``width`` columns whose row i holds ``vals[i]`` at
    the ascending columns ``cols[i]`` (2-d arrays of one shape), storing only
    the nonzero entries: the sparse assembly of every stacked LP."""
    from scipy.sparse import csr_matrix

    nz = vals != 0
    return csr_matrix((vals[nz], cols[nz], np.append(0, np.cumsum(nz.sum(axis=1)))),
                      shape=(len(vals), width))


def instantiate(sys: IneqSystem, tables, sym_values=None) -> SystemStack:
    """The :class:`SystemStack` of ``sys`` on the
    :class:`~.info_core.ProbTable` values ``tables`` (or an
    :class:`~.entropy_algebra.OutputSource`) and symbol arrays
    ``sym_values``, one member per member of the tables: in member k each
    symbolic right-hand side takes its value on member k of every table and
    entry k of every symbol, as :func:`~.entropy_algebra.evaluate_all` sums
    it on that member's tables as stacks of one, bit for bit, each entropy
    read once for the whole stack; one that reads no table or symbol is
    every member's.  Raises DimensionMismatch for tables or symbols of
    different lengths."""
    sizes = ({len(tables)} if isinstance(tables, OutputSource) else
             {len(t.probs) for t in tables}) | {len(v) for v in (sym_values or {}).values()}
    if len(sizes) != 1:
        raise DimensionMismatch(f"stacks of {sorted(sizes)} members cannot be "
                                f"instantiated together")
    rhs = np.empty((sizes.pop(), len(sys.ineqs)))
    for i, value in enumerate(evaluate_all([q.rhs for q in sys.ineqs], tables, sym_values)):
        rhs[:, i] = value
    return SystemStack(sys, rhs)
