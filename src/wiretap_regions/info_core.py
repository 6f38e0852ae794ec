"""Dense joint probability tables and discrete information quantities.

All logarithms are natural (nats).  Zero-probability cells follow the
convention ``0 * log 0 = 0``.  Tables are immutable after construction, and
each memoises the joint entropies asked of it: every mutual information is a
signed sum of those entropies, so a table computes each marginal entropy once
whichever quantity asks for it.  A stacked table holds tables over the same
variables along a leading member axis; :func:`entropy`,
:func:`mutual_information` and :func:`validate_table` marginalise each
variable set once for all its members, giving each member the value it gets
alone, bit for bit.  All operations are pure functions, so values can be
shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeMass,
    NotNormalized,
    OverlappingSets,
    ShapeMismatch,
    TableTooLarge,
    UnknownVariable,
    raise_for_first,
)

NORMALIZATION_TOL = 1e-12
NEGATIVE_MASS_TOL = -1e-15
MI_CLAMP = -1e-12
MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class VarId:
    """A named finite random variable with its alphabet size."""

    name: str
    cardinality: int

    def __post_init__(self):
        if self.cardinality < 1:
            raise ShapeMismatch(f"cardinality of {self.name!r} must be >= 1")


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def check_vars(vars) -> None:
    """Refuse duplicate variable names, and a table (or a member of a
    stacked one) of more than ``MAX_CELLS`` cells before any array exists."""
    names = [v.name for v in vars]
    if len(set(names)) != len(names):
        raise ShapeMismatch(f"duplicate variable names in {names}")
    ncells = math.prod(v.cardinality for v in vars)
    if ncells > MAX_CELLS:
        raise TableTooLarge(f"{ncells} cells exceeds the cap of {MAX_CELLS}")


@dataclass(frozen=True)
class ProbTable:
    """Dense joint distribution over an ordered list of named variables, or
    a stack of them over the same variables: a ``stacked`` table holds its
    members' arrays along a leading axis of ``probs``."""

    vars: tuple[VarId, ...]
    probs: np.ndarray = field(repr=False)
    stacked: bool = False
    # read-only arrays of per-member joint entropies, by frozenset of names
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_vars(self.vars)
        object.__setattr__(self, "probs", _readonly(self.probs))

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"variable {name!r} not in table {self.names}") from None


def _marginal_array(t: ProbTable, names) -> np.ndarray:
    """Marginal of ``t.probs`` over ``names`` in table order (not reordered),
    one row per member of ``t``: shape ``(members, cells)``."""
    keep = {t.axis(n) for n in names}
    lead = int(t.stacked)
    drop = tuple(lead + i for i in range(len(t.vars)) if i not in keep)
    arr = t.probs.sum(axis=drop) if drop else t.probs
    return arr.reshape(len(arr) if t.stacked else 1, -1)


def _row_entropies(m: np.ndarray) -> np.ndarray:
    """-sum p log p over the positive cells of each row of ``m``.  A row with
    a zero cell sums its positive cells alone, as a 1-d array of just those
    cells sums them: summing its zero terms too would change the pairwise
    summation and so the last bits."""
    pos = m > 0.0
    full = pos.all(axis=1)
    if full.all():
        return -(m * np.log(m)).sum(axis=1)
    out = np.empty(len(m))
    f = m[full]
    out[full] = -(f * np.log(f)).sum(axis=1)
    for k in np.flatnonzero(~full):
        p = m[k][pos[k]]
        out[k] = -(p * np.log(p)).sum()
    return out


def make_table(vars, probs) -> ProbTable:
    """Build and validate a lone :class:`ProbTable`."""
    t = ProbTable(tuple(vars), probs)
    validate_table(t)
    return t


def make_stack(vars, probs) -> ProbTable:
    """Build and validate a stacked :class:`ProbTable` whose member k holds
    ``probs[k]``."""
    t = ProbTable(tuple(vars), probs, stacked=True)
    validate_table(t)
    return t


def validate_table(t: ProbTable) -> None:
    """Check the shape, nonnegativity and normalization of a table, or of
    every member of a stacked one at once (an error names the first member
    that fails, ``instance k: ...``).

    Raises
    ------
    ShapeMismatch, NegativeMass, NotNormalized
    """
    lead = t.probs.shape[:1] if t.stacked else ()
    cards = tuple(v.cardinality for v in t.vars)
    if t.probs.shape != lead + cards:
        raise ShapeMismatch(f"tensor shape {t.probs.shape} != "
                            f"{'a member axis and ' if t.stacked else ''}cardinalities {cards}")
    flat = t.probs.reshape(lead + (-1,))
    # written so that a NaN entry fails each comparison
    mn = flat.min(axis=-1)
    raise_for_first(~(mn >= NEGATIVE_MASS_TOL), NegativeMass,
                    lambda k: f"entry {mn[k]} below tolerance {NEGATIVE_MASS_TOL}")
    s = flat.sum(axis=-1)
    raise_for_first(~(abs(s - 1.0) <= NORMALIZATION_TOL), NotNormalized,
                    lambda k: f"total mass {s[k]} deviates from 1 by more than "
                              f"{NORMALIZATION_TOL}")


def entropy(t: ProbTable, names=None):
    """Joint entropy H(names) in nats (all variables when ``names`` is None),
    computed once per table and set of names: a float on a lone table, and
    on a stacked one a read-only array with each member's value, equal to
    the value that member gets alone, bit for bit."""
    key = frozenset(t.names if names is None else names)
    h = t._entropies.get(key)
    if h is None:
        h = t._entropies[key] = _row_entropies(_marginal_array(t, key))
        h.setflags(write=False)
    return h if t.stacked else float(h[0])


def smallest_holding(tables, names):
    """The table with the fewest cells, the first of equal ones, among the
    sequence ``tables`` whose variables include every name in ``names``;
    raises UnknownVariable when none does.  Stacked tables of equal length
    compare as their members do."""
    names, best = set(names), None
    for t in tables:
        if names.issubset(t.names) and (best is None or t.probs.size < best.probs.size):
            best = t
    if best is None:
        raise UnknownVariable(f"no supplied table holds {sorted(names)}")
    return best


def mutual_information(t, a, b, c=()):
    """Conditional mutual information I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
    in nats, each joint entropy read from the table's memoised :func:`entropy`
    (H(C) is dropped when C is empty); on a stacked table, an array with
    one value per member, each equal to that member's value alone.

    ``a``, ``b`` and ``c`` are iterables of variable names; they must be
    pairwise disjoint.  A result in ``[-1e-12, 0)`` is clamped to zero; one
    below it raises NegativeMass, naming its member of a stacked table.
    """
    a, b, c = set(a), set(b), set(c)
    if a & b or a & c or b & c:
        raise OverlappingSets(f"sets {sorted(a)}, {sorted(b)}, {sorted(c)} overlap")
    for n in a | b | c:
        t.axis(n)
    val = entropy(t, a | c) + entropy(t, b | c) - entropy(t, a | b | c)
    if c:
        val -= entropy(t, c)
    # beyond accumulated-rounding territory for well-formed tables
    raise_for_first(np.asarray(val < MI_CLAMP), NegativeMass,
                    lambda k: f"mutual information {np.asarray(val)[k]} below clamp {MI_CLAMP}")
    if t.stacked:
        return np.where(val < 0.0, 0.0, val)
    return 0.0 if val < 0.0 else val


def _check_stochastic(name: str, m: np.ndarray) -> None:
    """Raise unless every row of ``m`` is a probability distribution (a NaN
    entry fails both comparisons)."""
    if not m.min() >= NEGATIVE_MASS_TOL:
        raise NegativeMass(f"{name} entry {m.min()} below tolerance {NEGATIVE_MASS_TOL}")
    if not np.abs(m.sum(axis=1) - 1.0).max() <= NORMALIZATION_TOL:
        raise NotNormalized(f"{name} rows must each sum to 1")


@dataclass(frozen=True)
class ChannelSpec:
    """Memoryless channel p(y1, y2, z | x).

    The kernel is either a dense tensor of shape ``(|X|, |Y1|, |Y2|, |Z|)`` or
    a degraded cascade of three row-stochastic stage matrices
    ``p(y1|x), p(y2|y1), p(z|y2)``.  The cascade form avoids materializing the
    full tensor for fine alphabets.
    """

    input: VarId
    outputs: tuple[VarId, VarId, VarId]
    kernel: np.ndarray | None = field(default=None, repr=False)
    stages: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.kernel is None) == (self.stages is None):
            raise ShapeMismatch("exactly one of kernel/stages must be given")
        names = [self.input.name, *self.output_names]
        if len(set(names)) != len(names):
            raise ShapeMismatch(f"duplicate variable names in {names}")
        dims = [self.input.cardinality] + [o.cardinality for o in self.outputs]
        if self.kernel is not None:
            k = _readonly(self.kernel)
            if k.shape != tuple(dims):
                raise ShapeMismatch(f"kernel shape {k.shape} != {tuple(dims)}")
            _check_stochastic("kernel", k.reshape(k.shape[0], -1))
            object.__setattr__(self, "kernel", k)
        else:
            st = tuple(_readonly(s) for s in self.stages)
            for i, s in enumerate(st):
                if s.shape != (dims[i], dims[i + 1]):
                    raise DimensionMismatch(
                        f"stage {i} shape {s.shape} incompatible with {(dims[i], dims[i + 1])}")
                _check_stochastic(f"stage {i}", s)
            object.__setattr__(self, "stages", st)

    @functools.cached_property
    def degraded(self) -> bool:
        """Whether X -> Y1 -> Y2 -> Z is a Markov chain: always for a cascade,
        and for a dense kernel at the 1e-10 tolerance of :func:`check_markov`.

        The chain holds for every input distribution iff it holds under one with
        full support, so the uniform input decides it.
        """
        if self.stages is not None:
            return True
        n = self.input.cardinality
        t = channel_joint(self, np.full(n, 1.0 / n))
        return check_markov(t, (self.input.name,) + self.output_names)

    @property
    def output_names(self) -> tuple[str, str, str]:
        return tuple(o.name for o in self.outputs)

    def pair_kernel(self, name: str) -> np.ndarray:
        """Marginal kernel p(out | x) for one named output, shape (|X|, |out|)."""
        idx = self.output_names.index(name) if name in self.output_names else None
        if idx is None:
            raise UnknownVariable(f"{name!r} is not an output of this channel")
        if self.stages is not None:
            m = self.stages[0]
            for s in self.stages[1:idx + 1]:
                m = m @ s
            return m
        axes = tuple(1 + i for i in range(3) if i != idx)
        return self.kernel.sum(axis=axes)

    def full_kernel(self) -> np.ndarray:
        """Dense p(y1,y2,z|x) tensor (subject to the global cell cap)."""
        if self.kernel is not None:
            return self.kernel
        ncells = self.input.cardinality * int(np.prod([o.cardinality for o in self.outputs]))
        if ncells > MAX_CELLS:
            raise TableTooLarge(f"materializing the cascade needs {ncells} cells")
        s1, s2, s3 = self.stages
        k = np.einsum("xa,ab,bc->xabc", s1, s2, s3)
        return k


def build_degraded_joint(p_y1_given_x, p_y2_given_y1, p_z_given_y2) -> ChannelSpec:
    """Compose three stage kernels into a degraded channel over (X, Y1, Y2, Z).

    Each argument is a row-stochastic matrix; the composed channel satisfies
    p(y1,y2,z|x) = p(y1|x) p(y2|y1) p(z|y2) and is degraded.
    """
    s1 = np.asarray(p_y1_given_x, dtype=float)
    s2 = np.asarray(p_y2_given_y1, dtype=float)
    s3 = np.asarray(p_z_given_y2, dtype=float)
    if s1.shape[1] != s2.shape[0] or s2.shape[1] != s3.shape[0]:
        raise DimensionMismatch(
            f"cascade stages {s1.shape}, {s2.shape}, {s3.shape} do not chain")
    x = VarId("X", s1.shape[0])
    outs = (VarId("Y1", s1.shape[1]), VarId("Y2", s2.shape[1]), VarId("Z", s3.shape[1]))
    return ChannelSpec(input=x, outputs=outs, stages=(s1, s2, s3))


def channel_joint(ch: ChannelSpec, p_x) -> ProbTable:
    """Joint table over (X, Y1, Y2, Z) from an input distribution."""
    k = ch.full_kernel()
    arr = np.asarray(p_x, dtype=float).reshape(-1, 1, 1, 1) * k
    return make_table((ch.input,) + ch.outputs, arr)


def check_markov(t: ProbTable, chain, tol: float = 1e-10) -> bool:
    """True iff every cut of the chain satisfies I(past; future | present) <= tol."""
    chain = list(chain)
    for n in chain:
        t.axis(n)
    for i in range(1, len(chain) - 1):
        past, present, future = chain[:i], [chain[i]], chain[i + 1:]
        if mutual_information(t, past, future, present) > tol:
            return False
    return True
