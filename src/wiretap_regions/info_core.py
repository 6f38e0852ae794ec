"""Dense joint probability tables and discrete information quantities.

All logarithms are natural (nats).  Zero-probability cells follow the
convention ``0 * log 0 = 0``.  Tables are immutable after construction, and
each memoises the joint entropies asked of it: every mutual information is a
signed sum of those entropies, so a table computes each marginal entropy once
whichever quantity asks for it.  Marginals follow one canonical chain: the
marginal over a set S is summed over one axis of its parent, S plus the
first table variable not in S, the full table being the top, so its bits
depend only on the table and S, never on which entropies were asked first.
A table holds distributions over the same variables along a leading member
axis, a single distribution being a stack of one; :func:`entropies`,
:func:`mutual_information` and :func:`validate_table` marginalise each
variable set once for all the members, giving each member the value it gets
as a stack of one, bit for bit, and an error names the first member that
fails (``instance k: ...``; the caller that holds a single input strips the
name with :func:`~.errors.numbered`).  All operations are pure functions, so
values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

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
# Largest I(past; future | present) of a cut, in nats, that check_markov takes as 0.
MARKOV_TOL = 1e-10
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
    """Refuse duplicate variable names, and a member of a table of more than
    ``MAX_CELLS`` cells before any array exists."""
    names = [v.name for v in vars]
    if len(set(names)) != len(names):
        raise ShapeMismatch(f"duplicate variable names in {names}")
    ncells = math.prod(v.cardinality for v in vars)
    if ncells > MAX_CELLS:
        raise TableTooLarge(f"{ncells} cells exceeds the cap of {MAX_CELLS}")


@dataclass(frozen=True)
class ProbTable:
    """Dense joint distributions over an ordered list of named variables, a
    stack of them: member k's array is ``probs[k]``."""

    vars: tuple[VarId, ...]
    probs: np.ndarray = field(repr=False)
    # read-only arrays of per-member joint entropies, by frozenset of names
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # internal: take over ``probs``, a fresh float array that nothing else
    # holds, made read-only instead of copied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        check_vars(self.vars)
        if _fresh:
            self.probs.setflags(write=False)
        else:
            object.__setattr__(self, "probs", _readonly(self.probs))

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"variable {name!r} not in table {self.names}") from None


def _chain_marginal(t: ProbTable, key: frozenset, held: dict) -> np.ndarray:
    """Marginal of ``t.probs`` over the names ``key``, in table order (not
    reordered): the sum over one axis of its parent, ``key`` plus the first
    table variable not in it.  ``held`` maps name sets to the marginals
    summed so far and holds the full table."""
    arr = held.get(key)
    if arr is None:
        i = next(i for i, n in enumerate(t.names) if n not in key)
        arr = held[key] = _sum_axis(_chain_marginal(t, key | {t.names[i]}, held), 1 + i)
    return arr


def _sum_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    """``arr`` summed over ``axis``, each cell the sum of its entries in axis
    order, one slice at a time: a member of a stack gets the bits it gets in
    a stack of one, and no short axis is reduced in numpy's slow inner loop."""
    parts = np.moveaxis(arr, axis, 0)
    out = parts[0] + parts[1] if len(parts) > 1 else parts[0].copy()
    for p in parts[2:]:
        out += p
    return out


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


def take_stack(vars, probs: np.ndarray) -> ProbTable:
    """Build and validate a :class:`ProbTable` from a fresh float64 array
    that nothing else holds (an ``np.stack`` or ``einsum`` result, or
    ``p[None]`` for a single fresh ``p``), member k being ``probs[k]``: the
    table takes it over, read-only, with no copy."""
    t = ProbTable(tuple(vars), probs, _fresh=True)
    validate_table(t)
    return t


def validate_table(t: ProbTable) -> None:
    """Check the shape, nonnegativity and normalization of every member of a
    table at once (an error names the first member that fails,
    ``instance k: ...``).

    Raises
    ------
    ShapeMismatch, NegativeMass, NotNormalized
    """
    cards = tuple(v.cardinality for v in t.vars)
    if t.probs.ndim != 1 + len(cards) or t.probs.shape[1:] != cards:
        raise ShapeMismatch(f"tensor shape {t.probs.shape} != "
                            f"a member axis and cardinalities {cards}")
    flat = t.probs.reshape(len(t.probs), -1)
    # written so that a NaN entry fails each comparison
    mn = flat.min(axis=-1)
    raise_for_first(~(mn >= NEGATIVE_MASS_TOL), NegativeMass,
                    lambda k: f"entry {mn[k]} below tolerance {NEGATIVE_MASS_TOL}")
    s = flat.sum(axis=-1)
    raise_for_first(~(abs(s - 1.0) <= NORMALIZATION_TOL), NotNormalized,
                    lambda k: f"total mass {s[k]} deviates from 1 by more than "
                              f"{NORMALIZATION_TOL}")


def entropies(t: ProbTable, sets) -> list:
    """Joint entropies H(S) in nats of each set of names S in ``sets``, each
    computed once per table and set from its marginal on the canonical chain
    (the marginals are held for this call only): read-only arrays with each
    member's value, equal to the value that member gets as a stack of one,
    bit for bit."""
    keys = [frozenset(s) for s in sets]
    held = None
    for key in keys:
        if key not in t._entropies:
            for n in key.difference(t.names):
                t.axis(n)   # raises UnknownVariable
            if held is None:
                held = {frozenset(t.names): t.probs}
            m = _chain_marginal(t, key, held)
            h = t._entropies[key] = _row_entropies(m.reshape(len(m), -1))
            h.setflags(write=False)
    return [t._entropies[key] for key in keys]


def smallest_holding(tables, names):
    """The table with the fewest cells, the first of equal ones, among the
    sequence ``tables`` whose variables include every name in ``names``;
    raises UnknownVariable when none does.  Tables of equal length compare as
    their members do."""
    names, best = set(names), None
    for t in tables:
        if names.issubset(t.names) and (best is None or t.probs.size < best.probs.size):
            best = t
    if best is None:
        raise UnknownVariable(f"no supplied table holds {sorted(names)}")
    return best


def mi_sets(a, b, c=()) -> list:
    """The name sets whose joint entropies :func:`mutual_information` reads
    for I(A;B|C): AC, BC, ABC and, when C is not empty, C."""
    a, b, c = set(a), set(b), set(c)
    return [a | c, b | c, a | b | c] + ([c] if c else [])


def mutual_information(t, a, b, c=()):
    """Conditional mutual information I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
    in nats, its joint entropies read in one call of the table's memoised
    :func:`entropies` (H(C) is dropped when C is empty): an array with one
    value per member, each equal to that member's value as a stack of one.

    ``a``, ``b`` and ``c`` are iterables of variable names; they must be
    pairwise disjoint.  A result in ``[MI_CLAMP, 0)`` is clamped to zero; one
    below it raises NegativeMass, naming its member.  On a table of mass m,
    H(A) + H(B) - H(AB) is m I(A;B) - m log m, so for an unconditional
    I(A;B) on a table heavier than 1 (a product of checked tables, each
    within ``NORMALIZATION_TOL`` of 1) the floor is ``MI_CLAMP - m log m``;
    the value itself is not corrected.
    """
    a, b, c = set(a), set(b), set(c)
    if a & b or a & c or b & c:
        raise OverlappingSets(f"sets {sorted(a)}, {sorted(b)}, {sorted(c)} overlap")
    for n in a | b | c:
        t.axis(n)
    hac, hbc, habc, *hc = entropies(t, mi_sets(a, b, c))
    val = hac + hbc - habc
    if c:
        val -= hc[0]
    # beyond accumulated-rounding territory for well-formed tables; the mass
    # is summed only when a value falls below MI_CLAMP
    floor = np.full(val.shape, MI_CLAMP)
    if not c and np.any(val < MI_CLAMP):
        m = t.probs.reshape(len(val), -1).sum(axis=-1)
        floor -= np.maximum(m * np.log(m), 0.0)
    raise_for_first(val < floor, NegativeMass,
                    lambda k: f"mutual information {val[k]} below clamp {float(floor[k])}")
    return np.where(val < 0.0, 0.0, val)


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
        and for a dense kernel at the ``MARKOV_TOL`` of :func:`check_markov`.

        The chain holds for every input distribution iff it holds under one with
        full support, so the uniform input decides it.
        """
        if self.stages is not None:
            return True
        n = self.input.cardinality
        t = take_stack((self.input,) + self.outputs,
                       (np.full((n, 1, 1, 1), 1.0 / n) * self.kernel)[None])
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


def check_markov(t: ProbTable, chain) -> bool:
    """True iff every cut of the chain satisfies I(past; future | present) <=
    MARKOV_TOL in every member of the table."""
    chain = list(chain)
    for n in chain:
        t.axis(n)
    for i in range(1, len(chain) - 1):
        past, present, future = chain[:i], [chain[i]], chain[i + 1:]
        if (mutual_information(t, past, future, present) > MARKOV_TOL).any():
            return False
    return True
