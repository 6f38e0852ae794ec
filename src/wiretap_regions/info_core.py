"""Dense joint probability tables and discrete information quantities.

All logarithms are natural (nats).  Zero-probability cells follow the
convention ``0 * log 0 = 0``.  Tables are immutable after construction, and
each memoises the joint entropies asked of it: every mutual information is a
signed sum of those entropies, so a table computes each marginal entropy once
whichever quantity asks for it.  All operations are pure functions, so values
can be shared freely across threads.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class ProbTable:
    """Dense joint distribution over an ordered list of named variables."""

    vars: tuple[VarId, ...]
    probs: np.ndarray = field(repr=False)
    # joint entropies already computed, by frozenset of names (None: all)
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ShapeMismatch(f"duplicate variable names in {names}")
        object.__setattr__(self, "probs", _readonly(self.probs))
        ncells = int(np.prod([v.cardinality for v in self.vars], dtype=np.int64))
        if ncells > MAX_CELLS:
            raise TableTooLarge(f"{ncells} cells exceeds the cap of {MAX_CELLS}")

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"variable {name!r} not in table {self.names}") from None


def _marginal_array(t: ProbTable, names) -> np.ndarray:
    """Marginal of ``t.probs`` over ``names`` in table order (not reordered)."""
    keep = sorted(t.axis(n) for n in names)
    drop = tuple(i for i in range(len(t.vars)) if i not in keep)
    return t.probs.sum(axis=drop) if drop else t.probs


def make_table(vars, probs) -> ProbTable:
    """Build and validate a :class:`ProbTable`."""
    t = ProbTable(tuple(vars), probs)
    validate_table(t)
    return t


def validate_table(t: ProbTable) -> None:
    """Check nonnegativity, normalization and shape of a table.

    Raises
    ------
    ShapeMismatch, NegativeMass, NotNormalized
    """
    expected = tuple(v.cardinality for v in t.vars)
    if t.probs.shape != expected:
        raise ShapeMismatch(f"tensor shape {t.probs.shape} != cardinalities {expected}")
    # written so that a NaN entry fails each comparison
    mn = float(t.probs.min()) if t.probs.size else 0.0
    if not mn >= NEGATIVE_MASS_TOL:
        raise NegativeMass(f"entry {mn} below tolerance {NEGATIVE_MASS_TOL}")
    s = float(t.probs.sum())
    if not abs(s - 1.0) <= NORMALIZATION_TOL:
        raise NotNormalized(f"total mass {s} deviates from 1 by more than {NORMALIZATION_TOL}")


def entropy(t: ProbTable, names=None) -> float:
    """Joint entropy H(names) in nats (all variables when ``names`` is None),
    computed once per table and set of names."""
    key = None if names is None else frozenset(names)
    h = t._entropies.get(key)
    if h is None:
        arr = t.probs if names is None else _marginal_array(t, names)
        p = arr[arr > 0.0]
        h = t._entropies[key] = float(-(p * np.log(p)).sum())
    return h


def smallest_holding(tables, names) -> ProbTable:
    """The table with the fewest cells, the first of equal ones, among the
    sequence ``tables`` whose variables include every name in ``names``;
    raises UnknownVariable when none does."""
    names, best = set(names), None
    for t in tables:
        if names.issubset(t.names) and (best is None or t.probs.size < best.probs.size):
            best = t
    if best is None:
        raise UnknownVariable(f"no supplied table holds {sorted(names)}")
    return best


def mutual_information(t: ProbTable, a, b, c=()) -> float:
    """Conditional mutual information I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
    in nats, each joint entropy read from the table's memoised :func:`entropy`
    (H(C) is dropped when C is empty).

    ``a``, ``b`` and ``c`` are iterables of variable names; they must be
    pairwise disjoint.  The result is clamped to zero when it falls in
    ``[-1e-12, 0)``.
    """
    a, b, c = set(a), set(b), set(c)
    if a & b or a & c or b & c:
        raise OverlappingSets(f"sets {sorted(a)}, {sorted(b)}, {sorted(c)} overlap")
    for n in a | b | c:
        t.axis(n)
    val = entropy(t, a | c) + entropy(t, b | c) - entropy(t, a | b | c)
    if c:
        val -= entropy(t, c)
    if val < 0.0:
        if val < MI_CLAMP:
            # Beyond accumulated-rounding territory for well-formed tables.
            raise NegativeMass(f"mutual information {val} below clamp {MI_CLAMP}")
        val = 0.0
    return val


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
