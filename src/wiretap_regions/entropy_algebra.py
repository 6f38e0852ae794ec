"""Exact linear algebra over joint-entropy atoms.

An :class:`InfoExpr` is a rational-coefficient combination of entropy atoms
H(S) plus named opaque symbols (used for quantities, such as a minimum of two
mutual informations, that are linear to carry but not entropy-decomposable).
Chain-rule manipulations hold identically at the atom level; conditional
independences contributed by a fixed factorization are carried as an
:class:`EqualitySet`, and expression equality is decided by exact span
membership over that set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .errors import CyclicStructure, EmptyArgument, OverlappingSets, UnknownVariable
from .info_core import entropy, smallest_holding

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class EntropyAtom:
    """H(subset) for a nonempty set of variable names (canonical: sorted)."""

    subset: tuple[str, ...]

    @staticmethod
    def of(names) -> "EntropyAtom":
        t = tuple(sorted(set(names)))
        if not t:
            raise EmptyArgument("entropy atom over the empty set")
        return EntropyAtom(t)


class InfoExpr:
    """Immutable rational-linear combination of atoms, symbols and a constant."""

    # _floats: the float constant and coefficients, set by the first evaluate
    __slots__ = ("terms", "syms", "constant", "_floats")

    def __init__(self, terms=None, syms=None, constant=ZERO):
        t = {a: Fraction(c) for a, c in (terms or {}).items() if c != 0}
        s = {n: Fraction(c) for n, c in (syms or {}).items() if c != 0}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "syms", s)
        object.__setattr__(self, "constant", Fraction(constant))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("InfoExpr is immutable")

    # -- algebra -------------------------------------------------------------

    def _merge(self, other, sign):
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, ZERO) + sign * c
        syms = dict(self.syms)
        for n, c in other.syms.items():
            syms[n] = syms.get(n, ZERO) + sign * c
        return InfoExpr(terms, syms, self.constant + sign * other.constant)

    def __add__(self, other):
        if isinstance(other, InfoExpr):
            return self._merge(other, ONE)
        return InfoExpr(self.terms, self.syms, self.constant + Fraction(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, InfoExpr):
            return self._merge(other, -ONE)
        return InfoExpr(self.terms, self.syms, self.constant - Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self * -1

    def __mul__(self, k):
        k = Fraction(k)
        return InfoExpr({a: c * k for a, c in self.terms.items()},
                        {n: c * k for n, c in self.syms.items()},
                        self.constant * k)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms and not self.syms and self.constant == 0

    def key(self):
        return (tuple(sorted(self.terms.items())),
                tuple(sorted(self.syms.items())),
                self.constant)

    def __eq__(self, other):
        return isinstance(other, InfoExpr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for a, c in sorted(self.terms.items()):
            bits.append(f"{c}*H({','.join(a.subset)})")
        for n, c in sorted(self.syms.items()):
            bits.append(f"{c}*{n}")
        if self.constant:
            bits.append(str(self.constant))
        return " + ".join(bits)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, tables, sym_values=None) -> float:
        """Numeric value in nats, each entropy read from the smallest of the
        sequence ``tables`` of :class:`~.info_core.ProbTable` holding its
        variables.  Raises UnknownVariable for a symbol without a value in
        ``sym_values`` or an atom that no table holds."""
        try:
            val, terms, syms = self._floats
        except AttributeError:   # converted once, and only for expressions evaluated
            val, terms, syms = floats = (
                float(self.constant), [(a.subset, float(c)) for a, c in self.terms.items()],
                [(n, float(c)) for n, c in self.syms.items()])
            object.__setattr__(self, "_floats", floats)
        for subset, c in terms:
            val += c * entropy(smallest_holding(tables, subset), subset)
        for n, c in syms:
            if not sym_values or n not in sym_values:
                raise UnknownVariable(f"no numeric value supplied for symbol {n!r}")
            val += c * sym_values[n]
        return val


def ent(names) -> InfoExpr:
    return InfoExpr({EntropyAtom.of(names): ONE})


def sym(name) -> InfoExpr:
    return InfoExpr(syms={name: ONE})


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
    """

    __slots__ = ("equalities", "_pivots")

    def __init__(self, equalities):
        equalities = tuple(equalities)
        pivots = {}
        for e in equalities:
            e = _reduce(pivots, e)
            # deterministic pivot choice: largest subset first, then lexicographic
            order = sorted(e.terms, key=lambda a: (-len(a.subset), a.subset))
            if not order:
                continue
            pivot = order[0]
            e = e * (ONE / e.terms[pivot])
            # keep the basis fully reduced: the new pivot leaves every older row
            for a, row in pivots.items():
                k = row.terms.get(pivot)
                if k:
                    pivots[a] = row - e * k
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


def _reduce(pivots, expr: InfoExpr) -> InfoExpr:
    """The pivot-free form of ``expr`` over a fully reduced basis."""
    # no pivot row holds another row's pivot atom, so subtracting one row
    # leaves every other pivot coefficient as it was: one pass suffices
    terms, syms, constant = dict(expr.terms), dict(expr.syms), expr.constant
    for a in [a for a in expr.terms if a in pivots]:
        k = terms.pop(a)
        row = pivots[a]
        for b, c in row.terms.items():
            if b != a:
                terms[b] = terms.get(b, ZERO) - k * c
        for n, c in row.syms.items():
            syms[n] = syms.get(n, ZERO) - k * c
        constant -= k * row.constant
    return InfoExpr(terms, syms, constant)


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
