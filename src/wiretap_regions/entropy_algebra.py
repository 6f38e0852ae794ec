"""Exact linear algebra over joint-entropy atoms, in integer arithmetic.

An :class:`InfoExpr` is a rational-coefficient combination of entropy atoms
H(S) plus named opaque symbols (used for quantities, such as a minimum of two
mutual informations, that are linear to carry but not entropy-decomposable),
held as integer numerators over one positive denominator.  An
:class:`EntropyAtom` is the bitmask of its variables over a process-wide name
registry, interned, so hashing, equality and ordering cost one int.
``Fraction`` appears only at the boundary: :func:`common_denominator` takes
any rationals in, and the ``terms``, ``syms`` and ``constant`` views and the
printed form give exact values out.  Chain-rule manipulations hold
identically at the atom level; conditional independences contributed by a
fixed factorization are carried as an :class:`EqualitySet`, and expression
equality is decided by exact span membership over that set.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .errors import CyclicStructure, EmptyArgument, OverlappingSets, UnknownVariable
from .info_core import entropy, smallest_holding


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of the rationals ``values`` over their least common
    denominator, and that denominator (1 when every value is an int): the one
    place a coefficient enters the integer core.  Each value is exact in
    lowest terms, so numerators and denominator share no factor."""
    values = [v if type(v) is int else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


_BITS: dict[str, int] = {}               # variable name -> its bit, in first-seen order
_ATOMS: dict[int, "EntropyAtom"] = {}    # mask -> the one atom over it


class EntropyAtom(int):
    """H(subset) for a nonempty set of variable names: the bitmask of the
    names over a process-wide registry, so hashing, equality and ordering are
    an int's.  :meth:`of` interns one atom per subset; ``subset`` holds its
    names sorted, which evaluation and printing read.  Atoms order by mask,
    not by name."""

    @staticmethod
    def of(names) -> "EntropyAtom":
        names = set(names)
        mask = 0
        for n in names:
            bit = _BITS.get(n)
            if bit is None:
                bit = _BITS[n] = 1 << len(_BITS)
            mask |= bit
        atom = _ATOMS.get(mask)
        if atom is None:
            if not mask:
                raise EmptyArgument("entropy atom over the empty set")
            atom = _ATOMS[mask] = int.__new__(EntropyAtom, mask)
            atom.subset = tuple(sorted(names))
        return atom

    def __repr__(self):
        return f"H({','.join(self.subset)})"


def lincomb(x, a: int, y, b: int) -> dict:
    """``a * x + b * y`` for iterables ``x`` and ``y`` of ``(key, int)``
    pairs, as a dict without zero entries: the one integer row operation of
    expressions, inequality rows and pivot rows."""
    out = dict(x) if a == 1 else {k: c * a for k, c in x}
    for k, c in y:
        v = out.get(k, 0) + b * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _fill(e, nums, snums, cnum, den):
    setattr_ = object.__setattr__
    setattr_(e, "nums", nums)
    setattr_(e, "snums", snums)
    setattr_(e, "cnum", cnum)
    setattr_(e, "den", den)
    return e


def _expr(nums: dict, snums: dict, cnum: int, den: int) -> "InfoExpr":
    """The expression ``(nums, snums, cnum) / den`` (``den > 0``, no zero
    entries), divided by the common factor of all four."""
    if den != 1:
        g = math.gcd(den, cnum, *nums.values(), *snums.values())
        if g != 1:
            nums = {a: c // g for a, c in nums.items()}
            snums = {n: c // g for n, c in snums.items()}
            cnum, den = cnum // g, den // g
    return _fill(object.__new__(InfoExpr), nums, snums, cnum, den)


class InfoExpr:
    """Immutable rational-linear combination of atoms, symbols and a constant.

    Held as integer numerators (``nums`` over atoms, ``snums`` over symbols,
    ``cnum``) over one positive denominator ``den``, in lowest terms, so the
    representation of a value is unique.  The constructor takes any
    rationals; ``terms``, ``syms`` and ``constant`` are the exact values
    (ints when ``den`` is 1, which they then share with the numerators).
    """

    # _floats: the float constant and coefficients, set by the first evaluation
    __slots__ = ("nums", "snums", "cnum", "den", "_floats")

    def __init__(self, terms=None, syms=None, constant=0):
        t = [(a, c) for a, c in (terms or {}).items() if c != 0]
        s = [(n, c) for n, c in (syms or {}).items() if c != 0]
        nums, den = common_denominator([c for _, c in t] + [c for _, c in s] + [constant])
        _fill(self, dict(zip([a for a, _ in t], nums)),
              dict(zip([n for n, _ in s], nums[len(t):])), nums[-1], den)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("InfoExpr is immutable")

    # -- values at the boundary ----------------------------------------------

    def _values(self, nums: dict) -> dict:
        return nums if self.den == 1 else {k: Fraction(c, self.den) for k, c in nums.items()}

    @property
    def terms(self) -> dict:
        return self._values(self.nums)

    @property
    def syms(self) -> dict:
        return self._values(self.snums)

    @property
    def constant(self):
        return self.cnum if self.den == 1 else Fraction(self.cnum, self.den)

    # -- algebra -------------------------------------------------------------

    def plus(self, other: "InfoExpr", k: int = 1) -> "InfoExpr":
        """``self + k * other`` for an int ``k``."""
        d1, d2 = self.den, other.den
        g = d1 if d1 == d2 else math.gcd(d1, d2)
        a, b = d2 // g, k * (d1 // g)
        return _expr(lincomb(self.nums.items(), a, other.nums.items(), b),
                     lincomb(self.snums.items(), a, other.snums.items(), b),
                     self.cnum * a + other.cnum * b, d1 // g * d2)

    def scaled(self, p: int, q: int = 1) -> "InfoExpr":
        """``self * p / q`` for ints ``p`` and ``q != 0``."""
        if q < 0:
            p, q = -p, -q
        if p == q:
            return self
        if p == 0:
            return InfoExpr()
        return _expr({a: c * p for a, c in self.nums.items()},
                     {n: c * p for n, c in self.snums.items()}, self.cnum * p, self.den * q)

    def __add__(self, other):
        return self.plus(other if isinstance(other, InfoExpr) else InfoExpr(constant=other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.plus(other if isinstance(other, InfoExpr) else InfoExpr(constant=other), -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self.scaled(-1)

    def __mul__(self, k):
        k = k if type(k) is int else Fraction(k)
        return self.scaled(k.numerator, k.denominator)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.nums and not self.snums and self.cnum == 0

    def key(self):
        return (tuple(sorted(self.nums.items())), tuple(sorted(self.snums.items())),
                self.cnum, self.den)

    def __eq__(self, other):
        return isinstance(other, InfoExpr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for a, c in sorted(self.terms.items(), key=lambda t: t[0].subset):
            bits.append(f"{c}*{a!r}")
        for n, c in sorted(self.syms.items()):
            bits.append(f"{c}*{n}")
        if self.constant:
            bits.append(str(self.constant))
        return " + ".join(bits)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, tables, sym_values=None):
        """Numeric value in nats, each entropy read from the smallest of the
        sequence ``tables`` of lone :class:`~.info_core.ProbTable` values
        holding its variables (see :func:`evaluate_all`, which also takes
        stacked ones).  Raises UnknownVariable for a symbol without a value
        in ``sym_values`` or an atom that no table holds."""
        return evaluate_all((self,), tables, sym_values)[0]


def evaluate_all(exprs, tables, sym_values=None) -> list:
    """The numeric values of ``exprs``, each entropy read once for all of
    them from the smallest of the sequence ``tables`` holding its variables.

    Each value is summed as the constant, then every atom term, then every
    symbol term, in the expression's order.  ``tables`` are
    lone :class:`~.info_core.ProbTable` values (each value a float) or
    stacked ones with ``sym_values`` arrays of the same length (each value
    that reads one an array, entry k the value on member k of every stacked
    table and entry k of every symbol, bit for bit).
    Raises UnknownVariable for a symbol without a value in ``sym_values`` or
    an atom that no table holds."""
    known, out = {}, []
    for e in exprs:
        try:
            val, terms, syms = e._floats
        except AttributeError:   # converted once, and only for expressions evaluated
            val, terms, syms = floats = (
                float(e.constant), [(a, float(c)) for a, c in e.terms.items()],
                [(n, float(c)) for n, c in e.syms.items()])
            object.__setattr__(e, "_floats", floats)
        for a, c in terms:
            h = known.get(a)
            if h is None:
                h = known[a] = entropy(smallest_holding(tables, a.subset), a.subset)
            val = val + c * h
        for n, c in syms:
            if not sym_values or n not in sym_values:
                raise UnknownVariable(f"no numeric value supplied for symbol {n!r}")
            val = val + c * sym_values[n]
        out.append(val)
    return out


def ent(names) -> InfoExpr:
    return _expr({EntropyAtom.of(names): 1}, {}, 0, 1)


def sym(name) -> InfoExpr:
    return _expr({}, {name: 1}, 0, 1)


def expand_mi(a, b, c=()) -> InfoExpr:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), with H of the empty set dropped."""
    a, b, c = set(a), set(b), set(c)
    if not a or not b:
        raise EmptyArgument("both argument sets of a mutual information must be nonempty")
    if a & b or a & c or b & c:
        raise OverlappingSets(f"sets {sorted(a)}, {sorted(b)}, {sorted(c)} overlap")
    e = ent(a | c) + ent(b | c) - ent(a | b | c)
    if c:
        e = e - ent(c)
    return e


# --- factorization structures and d-separation --------------------------------


class FactorStructure:
    """Directed acyclic factorization over named variables, immutable and
    hashable.

    Hash and equality use the ordered ``(node, parents)`` items: node order
    fixes the order in which :func:`derive_equalities` inserts equalities,
    and so the basis rows it returns.
    """

    __slots__ = ("parents", "children", "ancestors")

    def __init__(self, parents=None):
        par = {n: tuple(ps) for n, ps in (parents or {}).items()}
        ch = {n: [] for n in par}
        for n, ps in par.items():
            for p in ps:
                if p not in ch:
                    raise UnknownVariable(f"parent {p!r} of {n!r} is not a node")
                ch[p].append(n)
        # ancestors by depth-first search, which also rejects cycles
        anc, state = {}, {}

        def visit(n):
            if state.get(n) == 1:
                raise CyclicStructure(f"cycle through {n!r}")
            if n not in anc:
                state[n] = 1
                anc[n] = frozenset().union(*(visit(p) | {p} for p in par[n]))
                state[n] = 2
            return anc[n]

        for n in par:
            visit(n)
        object.__setattr__(self, "parents", MappingProxyType(par))
        object.__setattr__(self, "children",
                           MappingProxyType({n: tuple(c) for n, c in ch.items()}))
        object.__setattr__(self, "ancestors", MappingProxyType(anc))

    def __setattr__(self, *a):
        raise AttributeError("FactorStructure is immutable")

    def __eq__(self, other):
        return (isinstance(other, FactorStructure)
                and tuple(self.parents.items()) == tuple(other.parents.items()))

    def __hash__(self):
        return hash(tuple(self.parents.items()))

    def __repr__(self):
        return f"FactorStructure({dict(self.parents)!r})"

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.parents)


def d_separated(st: FactorStructure, a: str, b: str, cond) -> bool:
    """Classic active-trail reachability test between single nodes a, b given cond."""
    cond = set(cond)
    parents, children = st.parents, st.children
    unknown = ({a, b} | cond) - parents.keys()
    if unknown:
        raise UnknownVariable(f"{sorted(unknown)} are not nodes of the structure")
    # the conditioning set and its ancestors (for v-structure activation)
    anc = cond.union(*(st.ancestors[n] for n in cond))
    # (node, direction): direction "up" = arrived from a child, "down" = from a parent
    visited = set()
    frontier = [(a, "up")]
    while frontier:
        node, d = frontier.pop()
        if (node, d) in visited:
            continue
        visited.add((node, d))
        if node not in cond and node == b:
            return False
        if d == "up" and node not in cond:
            for p in parents[node]:
                frontier.append((p, "up"))
            for c in children[node]:
                frontier.append((c, "down"))
        elif d == "down":
            if node not in cond:
                for c in children[node]:
                    frontier.append((c, "down"))
            if node in anc:
                for p in parents[node]:
                    frontier.append((p, "up"))
    return True


class EqualitySet:
    """A set of InfoExpr values asserted equal to zero, with a fully reduced basis.

    Each pivot atom appears in its own basis row only, so every expression has
    one reduced form: the one free of pivot atoms.  Membership of an
    expression in the rational span of the equalities is the equality decision
    used throughout: it is sound (never claims equality that can fail
    numerically) though deliberately not complete for all of Shannon
    inference.

    The basis is built fraction-free: each row is a primitive integer vector
    (its content divided out) with a positive pivot coefficient, and a new
    pivot leaves an older row by cross-multiplication, ``p * row - k * new``.
    """

    __slots__ = ("equalities", "_pivots")

    def __init__(self, equalities):
        equalities = tuple(equalities)
        pivots = {}
        for e in equalities:
            e = _reduce(pivots, e)
            # deterministic pivot choice: largest subset first, then lexicographic
            order = sorted(e.nums, key=lambda a: (-len(a.subset), a.subset))
            if not order:
                continue
            pivot = order[0]
            e = _primitive(e, e.nums[pivot])
            p = e.nums[pivot]
            # keep the basis fully reduced: the new pivot leaves every older row
            for a, row in pivots.items():
                k = row.nums.get(pivot)
                if k:
                    pivots[a] = _primitive(row.scaled(p).plus(e, -k), 1)
            pivots[pivot] = e
        object.__setattr__(self, "equalities", equalities)
        # read-only, so one derived set can be shared by every caller
        object.__setattr__(self, "_pivots", MappingProxyType(pivots))

    def __setattr__(self, *a):
        raise AttributeError("EqualitySet is immutable")

    def reduce(self, expr: InfoExpr) -> InfoExpr:
        return _reduce(self._pivots, expr)

    def contains_zero(self, expr: InfoExpr) -> bool:
        return _reduce(self._pivots, expr).is_zero()


def _primitive(e: InfoExpr, sign: int) -> InfoExpr:
    """The integer numerators of ``e`` divided by their content, negated when
    ``sign`` is negative: a row that states ``e = 0`` at its smallest scale."""
    g = math.gcd(e.cnum, *e.nums.values(), *e.snums.values())
    if sign < 0:
        g = -g
    return _expr({a: c // g for a, c in e.nums.items()},
                 {n: c // g for n, c in e.snums.items()}, e.cnum // g, 1)


def _reduce(pivots, expr: InfoExpr) -> InfoExpr:
    """The pivot-free form of ``expr`` over a fully reduced basis."""
    # no pivot row holds another row's pivot atom, so subtracting one row
    # only rescales every other pivot coefficient: one pass suffices
    hits = [a for a in expr.nums if a in pivots]
    if not hits:
        return expr
    nums, snums, cnum, den = expr.nums, expr.snums, expr.cnum, expr.den
    for a in hits:
        row = pivots[a]
        # expr - k / p * row, fraction-free: scale expr by p / gcd(k, p)
        k, p = nums[a], row.nums[a]
        g = math.gcd(k, p)
        m, k = p // g, k // g
        nums = lincomb(nums.items(), m, row.nums.items(), -k)
        snums = lincomb(snums.items(), m, row.snums.items(), -k)
        cnum, den = cnum * m - k * row.cnum, den * m
    return _expr(nums, snums, cnum, den)


@functools.lru_cache(maxsize=None)
def derive_equalities(st: FactorStructure) -> EqualitySet:
    """Emit I(a;b|C) = 0 for every d-separated single pair (a,b) and every
    conditioning subset C of the remaining variables.

    By the graphoid properties of d-separation, every grouped conditional
    independence implied by the structure lies in the rational span of this
    family together with atom-level chain-rule identities, so span membership
    over the returned set decides all of them.

    Derived once per structure and process; every caller shares the
    (immutable) set.
    """
    nodes = st.nodes
    eqs = []
    for a, b in combinations(nodes, 2):
        rest = [n for n in nodes if n not in (a, b)]
        for r in range(len(rest) + 1):
            for cond in combinations(rest, r):
                if d_separated(st, a, b, cond):
                    eqs.append(expand_mi({a}, {b}, set(cond)))
    return EqualitySet(eqs)
