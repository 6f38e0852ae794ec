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

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CyclicStructure, EmptyArgument, OverlappingSets

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

    __slots__ = ("terms", "syms", "constant")

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

    def evaluate(self, table, sym_values=None) -> float:
        """Numeric value on a :class:`~.info_core.ProbTable` (entropies in nats)."""
        from .info_core import entropy

        val = float(self.constant)
        for a, c in self.terms.items():
            val += float(c) * entropy(table, a.subset)
        for n, c in self.syms.items():
            if not sym_values or n not in sym_values:
                raise KeyError(f"no numeric value supplied for symbol {n!r}")
            val += float(c) * sym_values[n]
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


@dataclass(frozen=True)
class FactorStructure:
    """Directed acyclic factorization over named variables."""

    parents: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        # topological check
        order, seen = [], {}

        def visit(n):
            state = seen.get(n)
            if state == 1:
                raise CyclicStructure(f"cycle through {n!r}")
            if state == 2:
                return
            seen[n] = 1
            for p in self.parents.get(n, ()):
                visit(p)
            seen[n] = 2
            order.append(n)

        for n in self.parents:
            visit(n)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self.parents)

    def children(self):
        ch = {n: [] for n in self.parents}
        for n, ps in self.parents.items():
            for p in ps:
                ch[p].append(n)
        return ch


def d_separated(st: FactorStructure, a: str, b: str, cond) -> bool:
    """Classic active-trail reachability test between single nodes a, b given cond."""
    cond = set(cond)
    children = st.children()
    # ancestors of the conditioning set (for v-structure activation)
    anc = set()
    stack = list(cond)
    while stack:
        n = stack.pop()
        for p in st.parents.get(n, ()):
            if p not in anc:
                anc.add(p)
                stack.append(p)
    anc |= cond
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
            for p in st.parents.get(node, ()):
                frontier.append((p, "up"))
            for c in children.get(node, ()):
                frontier.append((c, "down"))
        elif d == "down":
            if node not in cond:
                for c in children.get(node, ()):
                    frontier.append((c, "down"))
            if node in anc:
                for p in st.parents.get(node, ()):
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

    def __init__(self, equalities):
        self.equalities: tuple[InfoExpr, ...] = tuple(equalities)
        self._pivots: dict = {}
        for e in self.equalities:
            self._insert(e)

    @staticmethod
    def _atom_order(expr):
        # deterministic pivot choice: largest subset first, then lexicographic
        return sorted(expr.terms, key=lambda a: (-len(a.subset), a.subset))

    def _reduce(self, expr: InfoExpr) -> InfoExpr:
        # no pivot row holds another row's pivot atom, so subtracting one row
        # leaves every other pivot coefficient as it was: one pass suffices
        terms, syms, constant = dict(expr.terms), dict(expr.syms), expr.constant
        for a in [a for a in expr.terms if a in self._pivots]:
            k = terms.pop(a)
            row = self._pivots[a]
            for b, c in row.terms.items():
                if b != a:
                    terms[b] = terms.get(b, ZERO) - k * c
            for n, c in row.syms.items():
                syms[n] = syms.get(n, ZERO) - k * c
            constant -= k * row.constant
        return InfoExpr(terms, syms, constant)

    def _insert(self, e: InfoExpr):
        e = self._reduce(e)
        order = self._atom_order(e)
        if not order:
            return
        pivot = order[0]
        e = e * (ONE / e.terms[pivot])
        # keep the basis fully reduced: the new pivot leaves every older row
        for a, row in self._pivots.items():
            k = row.terms.get(pivot)
            if k:
                self._pivots[a] = row - e * k
        self._pivots[pivot] = e

    def reduce(self, expr: InfoExpr) -> InfoExpr:
        return self._reduce(expr)

    def contains_zero(self, expr: InfoExpr) -> bool:
        return self._reduce(expr).is_zero()


def derive_equalities(st: FactorStructure) -> EqualitySet:
    """Emit I(a;b|C) = 0 for every d-separated single pair (a,b) and every
    conditioning subset C of the remaining variables.

    By the graphoid properties of d-separation, every grouped conditional
    independence implied by the structure lies in the rational span of this
    family together with atom-level chain-rule identities, so span membership
    over the returned set decides all of them.
    """
    from itertools import combinations

    nodes = st.nodes
    eqs = []
    for a, b in combinations(nodes, 2):
        rest = [n for n in nodes if n not in (a, b)]
        for r in range(len(rest) + 1):
            for cond in combinations(rest, r):
                if d_separated(st, a, b, cond):
                    eqs.append(expand_mi({a}, {b}, set(cond)))
    return EqualitySet(eqs)


def exprs_equal(e1: InfoExpr, e2: InfoExpr, eqs: EqualitySet | None = None) -> bool:
    """True iff e1 - e2 lies in the rational span of ``eqs`` (identically zero
    when ``eqs`` is None)."""
    d = e1 - e2
    if eqs is None:
        return d.is_zero()
    return eqs.contains_zero(d)
