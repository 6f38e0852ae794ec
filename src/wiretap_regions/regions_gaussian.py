"""Gaussian vector channel instances and closed-form log-det rate regions.

Channels are ``Y1 = X + N1``, ``Y2 = X + N2``, ``Z = X + NZ`` with an input
covariance cap ``E[X X'] <= S``; a channel's ``degraded`` property is the
noise-covariance order ``0 < S1 <= S2 <= SZ`` (or, for channels given by gain
matrices with unit noise, the contraction test on the gain quotients).  All
bounds are halves of natural-log determinant ratios, in nats.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetZero,
    CapExceeded,
    DimensionMismatch,
    NotDegraded,
    NotPSD,
    SingularMatrix,
    UnknownCorollary,
    ValidationError,
    WiretapError,
    at_instance,
    raise_for_first,
)
from .entropy_algebra import OutputSource
from .info_core import VarId, build_degraded_joint, take_stack
from .polytope_fm import IneqSystem, LinIneq, SystemStack, unique_rows
from .regions_discrete import (FIVE_BOUNDS, OUTPUTS, RATES, AuxJoint, SweepResult, outer_of,
                               region_of, region_stack, specialize_corollary, sweep_systems)

# Semidefinite-order slack, unitless: relative to the larger spectral norm of
# the two matrices compared (psd_leq), and for a gain quotient's contraction
# test relative to 1.
ORDER_TOL = 1e-10
# Largest |a_ij - a_ji| of a matrix taken as symmetric, unitless: relative to
# the matrix's largest |entry|.
SYM_TOL = 1e-12
# check_psd refuses an eigenvalue below -PSD_RTOL times the largest |eigenvalue|.
PSD_RTOL = 1e-10
# Largest residual of a gain quotient's reproduction of the smaller gain,
# relative to that gain's norm.
GAIN_RTOL = 1e-9
# Eigenvalue of a covariance, relative to its largest, above which its
# eigenvector spans the covariance's range.
RANGE_RTOL = 1e-12
# Smallest eigenvalue of a cap a trace_P sweep samples, relative to P, so that
# every sampled cap is positive definite.
CAP_EIG_FLOOR = 1e-9
# Largest magnitude of a GaussChannel entry: eight orders below the largest
# double, so the sums and constant multiples of channel matrices that the
# evaluators form (symmetrization included) stay finite.
MAX_ENTRY = 1e300
# Smallest largest |entry| of a GaussChannel matrix: the squares and products
# of entries that the quadrature and the precoding check form stay normal.
MIN_SCALE = 1e-150

# _sym, check_psd, check_pd, psd_leq, cholesky, logdet, dpc_matrix, project_range,
# gauss_mi, dpc_identity_check and random_psd_under take matrices (..., d, d),
# whose leading axes ``lead`` are the stack (a lone matrix has lead == (); a 0-d
# input is no matrix), and compute each instance exactly as alone, on one path,
# giving a result of shape lead.  The first instance k that breaks a check
# raises, naming k (see errors.at_instance); a lone matrix names no instance.


def _first_failure(fn, *stacks) -> tuple[tuple, Exception]:
    """``(k, error)`` for the first instance k of ``stacks`` on which ``fn``
    fails when called on that instance alone."""
    lead = np.broadcast_shapes(*(s.shape[:-2] for s in stacks))
    for k in np.ndindex(lead):
        try:
            fn(*(np.broadcast_to(s, lead + s.shape[-2:])[k] for s in stacks))
        except (WiretapError, np.linalg.LinAlgError) as e:
            return k, e
    raise RuntimeError("a stack failed where none of its instances fails alone")


def _sym(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotPSD(f"matrix of shape {a.shape} is not square")
    at = a.mT
    # the tolerance is relative to each matrix's largest |entry| at every
    # scale: products of symmetric matrices keep relative, not absolute,
    # symmetry.  Entrywise relative symmetry implies it in one comparison (a
    # NaN entry fails it).
    d = np.abs(a - at)
    if not (d <= SYM_TOL * np.abs(a)).all():
        r = d.max(axis=(-2, -1))
        tol = SYM_TOL * np.abs(a).max(axis=(-2, -1))
        raise_for_first(~(r <= tol), NotPSD,
                        lambda k: f"symmetry residual {r[k]:.2e} exceeds {tol[k]:g}")
    return 0.5 * (a + at)


def check_psd(m, name: str = "matrix") -> np.ndarray:
    """Validate positive semidefiniteness, clipping tiny negative eigenvalues
    to zero.  The floor is ``-PSD_RTOL * max|eigenvalue|``, relative to the
    matrix, so scaling a matrix does not change its verdict and a small
    indefinite matrix is refused rather than clipped."""
    a = _sym(m)
    w, v = np.linalg.eigh(a)
    low = w.min(axis=-1)
    floor = -PSD_RTOL * np.abs(w).max(axis=-1)
    raise_for_first(low < floor, NotPSD, lambda k: f"{name} has eigenvalue {low[k]:.3e} "
                                                   f"below tolerance {floor[k]:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * w[..., None, :]) @ v.mT


def check_pd(m, name: str = "matrix") -> np.ndarray:
    a = _sym(m)
    low = np.linalg.eigvalsh(a).min(axis=-1)
    raise_for_first(low <= 0, NotPSD, lambda k: f"{name} must be positive definite; "
                                                f"min eigenvalue {low[k]:.3e}")
    return a


def _check_core(name: str, m: np.ndarray, shape: tuple) -> None:
    if m.shape[-2:] != tuple(shape):
        raise DimensionMismatch(f"{name} is {'x'.join(map(str, m.shape[-2:]))} where "
                                f"{'x'.join(map(str, shape))} is needed")


def psd_leq(a, b):
    """a <= b in the semidefinite order, within a slack relative to the
    matrices compared: ``lambda_min(b - a) >= -ORDER_TOL * max(|a|_2, |b|_2)``
    (spectral norms, the largest |eigenvalue|), so scaling a and b together
    does not change the verdict.  A numpy bool of shape ``lead``;
    DimensionMismatch for matrices of two sizes."""
    a, b = _sym(a), _sym(b)
    _check_core("b", b, a.shape[-2:])
    w = np.linalg.eigvalsh(np.stack(np.broadcast_arrays(a, b, b - a)))
    return w[2].min(axis=-1) >= -ORDER_TOL * np.abs(w[:2]).max(axis=(0, -1))


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of a positive definite matrix (of each matrix of
    a stack), read from its lower triangle; SingularMatrix otherwise."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise at_instance(SingularMatrix, _first_failure(np.linalg.cholesky, a)[0],
                          "nonpositive pivot in Cholesky factorization") from None


def logdet(m):
    """log det of a positive definite matrix via Cholesky, of shape ``lead``;
    raises on failure."""
    chol = cholesky(_sym(m))
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def scalar_of(m, what: str) -> float:
    """The entry of a 1 x 1 matrix; ValidationError for any other shape, a
    stack of 1 x 1 matrices included."""
    a = np.asarray(m, dtype=float)
    if a.shape != (1, 1):
        raise ValidationError(f"{what} must be a 1x1 matrix, got shape {a.shape}")
    return float(a[0, 0])


def _check_entries(m, name: str) -> None:
    """ValidationError unless every entry of the channel matrix ``m`` (of each
    matrix of a stack) is finite and at most ``MAX_ENTRY`` in magnitude and
    the matrix holds an entry of magnitude at least ``MIN_SCALE``."""
    a = np.abs(np.asarray(m, dtype=float))
    big = a.max(initial=0.0)
    if not big <= MAX_ENTRY:
        raise ValidationError(f"{name} has an entry of magnitude {big:.3g}; channel "
                              f"entries must be finite and at most {MAX_ENTRY:g}")
    scale = np.atleast_2d(a).max(axis=(-2, -1), initial=0.0)
    raise_for_first(scale < MIN_SCALE, ValidationError,
                    lambda k: f"{name} has largest entry magnitude {scale[k]:.3g}; "
                              f"channel matrices must hold an entry of at least {MIN_SCALE:g}")


@dataclass(frozen=True)
class GaussChannel:
    """Input covariance cap and the three noise covariances (all d x d).  The
    cap ``S`` may also be a stack of caps, one per sample of a sweep.  Every
    entry must be finite and at most ``MAX_ENTRY`` in magnitude, and each
    matrix must hold an entry of magnitude at least ``MIN_SCALE``
    (ValidationError otherwise)."""

    S: np.ndarray
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    SigmaZ: np.ndarray

    def __post_init__(self):
        names = ("S", "Sigma1", "Sigma2", "SigmaZ")
        for name in names:
            _check_entries(getattr(self, name), name)
        for name in names:
            object.__setattr__(self, name, check_pd(getattr(self, name), name))
        d = self.S.shape[-1]
        for m in (self.Sigma1, self.Sigma2, self.SigmaZ):
            if m.shape != (d, d):
                raise DimensionMismatch("all channel matrices must share one dimension")

    def with_caps(self, S) -> GaussChannel:
        """This channel with the cap ``S`` (a stack of caps of its dimension),
        checking only ``S``: the checked noise covariances and their cached
        order carry over."""
        _check_entries(S, "S")
        out = copy.copy(self)
        object.__setattr__(out, "S", check_pd(S, "S"))
        return out

    @property
    def dim(self) -> int:
        return self.S.shape[-1]

    @property
    def scalars(self) -> tuple[float, float, float, float]:
        """``(S, Sigma1, Sigma2, SigmaZ)`` of a scalar channel; ValidationError
        for any other dimension."""
        return tuple(scalar_of(getattr(self, name), name)
                     for name in ("S", "Sigma1", "Sigma2", "SigmaZ"))

    @functools.cached_property
    def degraded(self) -> np.bool_:
        """Noise-covariance order Sigma1 <= Sigma2 <= SigmaZ (Sigma1 > 0 holds
        by construction)."""
        return psd_leq(self.Sigma1, self.Sigma2) and psd_leq(self.Sigma2, self.SigmaZ)


@dataclass(frozen=True)
class HGaussChannel:
    """Gain-matrix channel form with identity noise at every receiver."""

    H1: np.ndarray
    H2: np.ndarray
    HZ: np.ndarray

    def __post_init__(self):
        h1 = np.atleast_2d(np.asarray(self.H1, dtype=float))
        h2 = np.atleast_2d(np.asarray(self.H2, dtype=float))
        hz = np.atleast_2d(np.asarray(self.HZ, dtype=float))
        if not (h1.shape[1] == h2.shape[1] == hz.shape[1]):
            raise DimensionMismatch("gain matrices must agree on the input dimension")
        if not all(np.isfinite(h).all() for h in (h1, h2, hz)):
            raise ValidationError("gain matrices must be finite")
        object.__setattr__(self, "H1", h1)
        object.__setattr__(self, "H2", h2)
        object.__setattr__(self, "HZ", hz)

    @functools.cached_property
    def quotients(self) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares gain quotients ``(D21, DZ2) = (H2 H1^+, HZ H2^+)``, read-only."""
        quotients = self.H2 @ np.linalg.pinv(self.H1), self.HZ @ np.linalg.pinv(self.H2)
        for q in quotients:
            q.setflags(write=False)
        return quotients

    @functools.cached_property
    def degraded(self) -> bool:
        """Whether the quotients reproduce the smaller gains (H2 = D21 H1,
        HZ = DZ2 H2, each up to GAIN_RTOL of the gain's norm, so the verdict does
        not depend on the channel's scale) and are contractions."""
        d21, dz2 = self.quotients
        return bool(np.linalg.norm(self.H2 - d21 @ self.H1) <= GAIN_RTOL * np.linalg.norm(self.H2)
                    and np.linalg.norm(self.HZ - dz2 @ self.H2)
                    <= GAIN_RTOL * np.linalg.norm(self.HZ)
                    and all(np.linalg.eigvalsh(d @ d.T).max() <= 1.0 + ORDER_TOL
                            for d in (d21, dz2)))


@dataclass(frozen=True)
class CovSplit:
    """Covariance allocation: either a single K <= S or a triple summing under S."""

    K: np.ndarray | None = None
    K0: np.ndarray | None = None
    K1: np.ndarray | None = None
    K2: np.ndarray | None = None

    def __post_init__(self):
        single = self.K is not None
        triple = all(m is not None for m in (self.K0, self.K1, self.K2))
        if single == triple:
            raise ValidationError("provide either K or the triple (K0, K1, K2)")
        if single:
            object.__setattr__(self, "K", check_psd(self.K, "K"))
        else:
            object.__setattr__(self, "K0", check_psd(self.K0, "K0"))
            object.__setattr__(self, "K1", check_psd(self.K1, "K1"))
            object.__setattr__(self, "K2", check_psd(self.K2, "K2"))

    def validate_cap(self, S) -> None:
        total = self.K if self.K is not None else self.K0 + self.K1 + self.K2
        raise_for_first(~psd_leq(total, S), CapExceeded,
                        lambda k: "covariance allocation exceeds the input cap S")


def _half_logdet_ratio(num, den) -> float:
    return 0.5 * (logdet(num) - logdet(den))


class _GaussSource(OutputSource):
    """The entropy source of X = U + V, Cov(V) = K and Cov(U) = S - K (a stack
    of K, and of S, is one member per K): h(Y), h(Y | U) and h(Y | X) are
    ½ log det of S + Σ_Y, K + Σ_Y and Σ_Y less ½ d log 2πe, from one logdet."""

    outputs = OUTPUTS

    def __init__(self, K, ch: GaussChannel):
        self.cov = {"": ch.S, "U": K, "X": 0.0}   # Cov(X | W) for each W
        self.noise = dict(zip(OUTPUTS, (ch.Sigma1, ch.Sigma2, ch.SigmaZ)))

    def __len__(self) -> int:
        return math.prod(np.broadcast_shapes(self.cov[""].shape[:-2], self.cov["U"].shape[:-2]))

    def _entropies(self, wanted) -> list:
        mats = np.broadcast_arrays(*(self.cov[w] + self.noise[y] for y, w in wanted))
        return list(0.5 * logdet(np.stack(mats)).reshape(len(wanted), -1))


def eval_gauss_inner(split: CovSplit, ch: GaussChannel) -> SystemStack:
    """Five-bound achievable region for a degraded channel and a fixed K <= S,
    a stack of one; a split whose K is a stack (and a channel whose S is one
    cap or a stack of as many) gives one region per K, from one cap check
    and one logdet."""
    if not ch.degraded:
        raise NotDegraded("inner bound needs the degraded noise order")
    if split.K is None:
        raise ValidationError("inner bound takes a single-matrix split K")
    split.validate_cap(ch.S)
    return region_of(FIVE_BOUNDS, _GaussSource(split.K, ch))


def eval_gauss_outer(split: CovSplit, ch: GaussChannel) -> SystemStack:
    """Outer bound of the degraded channel for a fixed K <= S."""
    return outer_of(eval_gauss_inner(split, ch))


def specialize_gauss_corollary(stack: SystemStack, which: str) -> SystemStack:
    """Specializations mirroring the discrete ones (cor4/cor5/cor6)."""
    mapping = {"cor4": "cor1", "cor5": "cor2", "cor6": "cor3"}
    if which not in mapping:
        raise UnknownCorollary(f"unknown specialization {which!r}")
    return specialize_corollary(stack, mapping[which])


def dpc_matrix(K1, Sigma1) -> np.ndarray:
    """Precoding matrix K1 (K1 + Sigma1)^{-1} against known interference;
    DimensionMismatch for matrices of two sizes."""
    k1 = check_psd(K1, "K1")
    s1 = _sym(Sigma1)
    _check_core("Sigma1", s1, k1.shape[-2:])
    m = k1 + s1
    try:
        return np.linalg.solve(m.mT, k1.mT).mT
    except np.linalg.LinAlgError:
        raise at_instance(SingularMatrix, _first_failure(np.linalg.solve, m.mT, k1.mT)[0],
                          "K1 + Sigma1 is singular") from None


def _range_columns(a: np.ndarray):
    """Eigenvectors of each covariance and which of them span its range: the
    eigenvalues above RANGE_RTOL of the largest, so the range does not depend on
    the covariance's scale (an all-zero covariance keeps none)."""
    w, v = np.linalg.eigh(a)
    return v, w > RANGE_RTOL * w.max(axis=-1)[..., None]


def _by_pattern(*keeps):
    """Group a stack's instances by their kept-column patterns, one mask
    ``(..., d_i)`` per covariance: yields ``(where, patterns)`` with ``where``
    the boolean mask of shape ``lead`` selecting the instances whose masks
    equal ``patterns``.  A lone instance is one group whose ``where`` is a 0-d
    True, which indexes it as a stack of one."""
    joint = np.concatenate(keeps, axis=-1)
    patterns, _, which = unique_rows(joint.reshape(-1, joint.shape[-1]))
    cuts = np.cumsum([k.shape[-1] for k in keeps])[:-1]
    for g, pattern in enumerate(patterns):
        yield which.reshape(joint.shape[:-1]) == g, np.split(pattern, cuts)


def project_range(cov) -> list:
    """Orthonormal bases of the range of a covariance, as columns, grouped
    by the eigenvector columns kept: ``[(where, basis)]``, ``basis`` the
    ``(n, d, r)`` stack of the bases of the n covariances ``where`` selects
    (see :func:`_by_pattern`; n = 1 for a lone covariance)."""
    v, keep = _range_columns(_sym(cov))
    return [(where, v[where][..., p]) for where, (p,) in _by_pattern(keep)]


def gauss_mi(Saa, Sab, Sbb):
    """Mutual information of a jointly Gaussian pair from covariance blocks,
    of shape ``lead``.

    Degenerate marginals are projected onto their range first; a singular
    conditional covariance (deterministic dependence) raises SingularMatrix,
    and a cross block that does not fit the two marginals DimensionMismatch.
    Each instance of a stack is computed with the others of its range
    pattern.
    """
    Saa, Sab, Sbb = _sym(Saa), np.atleast_2d(np.asarray(Sab, dtype=float)), _sym(Sbb)
    _check_core("Sab", Sab, (Saa.shape[-1], Sbb.shape[-1]))
    try:
        return _gauss_mi(Saa, Sab, Sbb)
    except WiretapError:
        k, e = _first_failure(_gauss_mi, Saa, Sab, Sbb)
        raise at_instance(type(e), k, e.detail) from None


def _gauss_mi(Saa, Sab, Sbb) -> np.ndarray:
    """:func:`gauss_mi` of symmetric blocks; an error names its instance in a group."""
    lead = np.broadcast_shapes(Saa.shape[:-2], Sab.shape[:-2], Sbb.shape[:-2])
    Saa, Sab, Sbb = (np.broadcast_to(m, lead + m.shape[-2:]) for m in (Saa, Sab, Sbb))
    (va, ka), (vb, kb) = _range_columns(Saa), _range_columns(Sbb)
    out = np.zeros(lead)
    for where, (pa, pb) in _by_pattern(ka, kb):
        if not (pa.any() and pb.any()):
            continue
        Pa, Pb = va[where][..., pa], vb[where][..., pb]
        a = Pa.mT @ Saa[where] @ Pa
        b = Pb.mT @ Sbb[where] @ Pb
        c = Pa.mT @ Sab[where] @ Pb
        cond = b - c.mT @ np.linalg.solve(a, c)
        out[where] = 0.5 * (logdet(b) - logdet(cond))
    return out


def dpc_identity_check(K1, K2, K0, ch: GaussChannel):
    """Residual of the interference-free rate identity under precoding, of
    the triples' broadcast shape ``lead``.

    Builds the jointly Gaussian layered selection (V1 = U1 + A U2 + U with
    A = K1 (K1+Sigma1)^{-1}, V2 = U + U2, X = U + U1 + U2) and compares
    I(V1;Y1|U) - I(V1;V2|U) against  0.5 log |K1+Sigma1|/|Sigma1|.
    """
    k1 = check_psd(K1, "K1")
    k2 = check_psd(K2, "K2")
    check_psd(K0, "K0")
    s1 = ch.Sigma1
    A = dpc_matrix(k1, s1)
    # conditioned on U everything is a function of (U1, U2, N1)
    v1 = k1 + A @ k2 @ A.mT              # Cov(V1 - U)
    y1 = k1 + k2 + s1                    # Cov(Y1 - U)
    v1y1 = k1 + A @ k2                   # Cov(V1 - U, Y1 - U)
    v1v2 = A @ k2                        # Cov(V1 - U, V2 - U)
    lhs = gauss_mi(v1, v1y1, y1) - gauss_mi(v1, v1v2, k2)
    rhs = _half_logdet_ratio(k1 + s1, s1)
    return abs(lhs - rhs)


# The rows of the eight-bound region with a zero right-hand side, built once:
# order "21" lists them as _general_bounds gives its bounds, and order "12" is
# the same rows with the two users' rates and labels swapped.
_GENERAL_21 = IneqSystem.of(RATES, [LinIneq.of(dict.fromkeys(rates.split(), 1), label=l)
                                    for rates, l in (
    ("Rs1", "rs1"), ("Rs2", "rs2"), ("Rs1 Rs2", "rs12"), ("Rs1 Rp1", "rs1p1"),
    ("Rs2 Rp2", "rs2p2"), ("Rs1 Rp1 Rs2", "rs1p1s2"), ("Rs1 Rs2 Rp2", "rs12p2"),
    ("Rp1 Rs1 Rp2 Rs2", "total"))])
_SWAP = str.maketrans("12", "21")
_GENERAL = {"21": _GENERAL_21, "12": IneqSystem.of(RATES, [
    LinIneq.of({v.translate(_SWAP): c for v, c in q.coeffs}, label=q.label.translate(_SWAP))
    for q in _GENERAL_21.ineqs])}


def eval_general_gauss(split: CovSplit, ch: GaussChannel, order: str = "21") -> SystemStack:
    """Eight-bound layered region for a covariance triple (K0, K1, K2), a
    stack of one; a triple of stacks gives one region per instance.

    ``order="21"`` encodes the second user's layer first and precodes the
    first user's layer against it; ``order="12"`` swaps the roles of the two
    users (indices of K, Sigma and the rate labels all swap).
    """
    if split.K is not None:
        raise ValidationError("general region takes a triple split (K0, K1, K2)")
    split.validate_cap(ch.S)
    if order not in _GENERAL:
        raise UnknownCorollary(f"unknown encoding order {order!r}")
    k1, k2, s1, s2 = split.K1, split.K2, ch.Sigma1, ch.Sigma2
    if order == "12":
        k1, k2, s1, s2 = k2, k1, s2, s1
    return region_stack(_GENERAL[order],
                        _general_bounds(split.K0, k1, k2, ch.S, s1, s2, ch.SigmaZ))


def _general_bounds(K0, K1, K2, S, s1, s2, sz) -> tuple:
    """The right-hand sides of the ``"21"`` rows (arrays for stacks)."""
    tot = K0 + K1 + K2
    inner12 = K1 + K2

    def min_j(num_fn):
        return np.minimum(num_fn(s1), num_fn(s2))

    cloud = min_j(lambda s: _half_logdet_ratio(tot + s, inner12 + s))
    cloud_cap = min_j(lambda s: _half_logdet_ratio(S + s, inner12 + s))
    dirty = _half_logdet_ratio(K1 + s1, s1)
    layer2 = _half_logdet_ratio(inner12 + s2, K1 + s2)
    return (cloud + dirty - _half_logdet_ratio(tot + sz, inner12 + sz)
            - _half_logdet_ratio(K1 + sz, sz),
            cloud + layer2 - _half_logdet_ratio(tot + sz, K1 + sz),
            cloud + layer2 + dirty - _half_logdet_ratio(tot + sz, sz),
            cloud_cap + dirty,
            cloud_cap + layer2,
            cloud_cap + dirty + layer2 - _half_logdet_ratio(inner12 + sz, K1 + sz),
            cloud_cap + layer2 + dirty - _half_logdet_ratio(K1 + sz, sz),
            cloud_cap + layer2 + dirty)


# --- scalar discretization ---------------------------------------------------

# A variance of U or of X given U at most this times S is discretized as a
# point mass.
POINT_MASS_TOL = 1e-12


def discretize_scalar(ch: GaussChannel, k_alloc: float):
    """Fine discrete twin of a scalar channel and its Gaussian aux selection.

    Returns ``(aux, channel)`` suitable for the discrete degraded evaluation:
    U on a 61-point grid carrying N(0, S-K) out to 6 standard deviations,
    X | U ~ N(u, K) quantized onto a 61-point grid, and the cascade stages of
    the degraded noise increments row-discretized on 122 points each (a zero
    increment is the identity stage).  Used to cross-check the closed-form
    bounds against the discrete path.  Raises NotDegraded for a channel out
    of the degraded noise order, NotPSD for K < 0 and CapExceeded for K > S.
    """
    S, s1, s2, sz = ch.scalars
    if not ch.degraded:
        raise NotDegraded("discretization needs the degraded noise order")
    CovSplit(K=np.atleast_2d(float(k_alloc))).validate_cap(ch.S)
    su = S - k_alloc
    m, span = 61, 6.0

    def centered_grid(var, n):
        if var > POINT_MASS_TOL * S:
            g = np.linspace(-span * math.sqrt(var), span * math.sqrt(var), n)
            p = np.exp(-g ** 2 / (2.0 * var))
            return g, p / p.sum()
        return np.array([0.0]), np.array([1.0])

    ug, pu = centered_grid(su, m)
    xg = np.linspace(-1.2 * span * math.sqrt(S), 1.2 * span * math.sqrt(S), m)
    if k_alloc > POINT_MASS_TOL * S:
        pxu = np.exp(-(xg[None, :] - ug[:, None]) ** 2 / (2.0 * k_alloc))
        pxu /= pxu.sum(axis=1, keepdims=True)
    else:
        pxu = np.zeros((ug.size, xg.size))
        for i, u in enumerate(ug):
            pxu[i, int(np.argmin(np.abs(xg - u)))] = 1.0
    aux_arr = pu[:, None] * pxu

    def stage(src, var, n):
        if var <= 0.0:   # equal noise, up to the order's tolerance
            return src, np.eye(src.size)
        dst = np.linspace(src[0] - span * math.sqrt(var), src[-1] + span * math.sqrt(var), n)
        kmat = np.exp(-(dst[None, :] - src[:, None]) ** 2 / (2.0 * var))
        return dst, kmat / kmat.sum(axis=1, keepdims=True)

    y1g, k1 = stage(xg, s1, 2 * m)
    y2g, k2 = stage(y1g, s2 - s1, 2 * m)
    _, k3 = stage(y2g, sz - s2, 2 * m)
    channel = build_degraded_joint(k1, k2, k3)
    aux = AuxJoint(take_stack((VarId("U", ug.size), VarId("X", xg.size)), aux_arr[None]))
    return aux, channel


# --- sweeps -----------------------------------------------------------------


def random_psd_under(rng: np.random.Generator, S: np.ndarray, size: int) -> np.ndarray:
    """A stack of ``size`` random PSD matrices K <= S, each a congruence of a
    random contraction by S^1/2, drawn in stream order one matrix at a time."""
    d = S.shape[-1]
    g, u = np.empty((size, d, d)), np.empty((size, d))
    for k in range(size):   # the values and stream of normal(size=(d, d)), uniform(0, 1, d)
        rng.standard_normal(out=g[k])
        rng.random(out=u[k])
    return _psd_under(S, g, u)


def _psd_under(S, g, u) -> np.ndarray:
    """``S^1/2 Q diag(u) Q' S^1/2`` for the Q of the QR factorization of the
    normal draw ``g`` and the uniform draw ``u``; stacks of S broadcast
    against stacks of draws."""
    w, v = np.linalg.eigh(S)
    root = (v * np.sqrt(np.clip(w, 0, None))[..., None, :]) @ v.mT
    q, _ = np.linalg.qr(g)
    contraction = (q * u[..., None, :]) @ q.mT
    return check_psd(root @ contraction @ root, "K")


def sweep_covariances(ch: GaussChannel, budget: int, seed: int = 0,
                      mode: str = "fixed_S", trace_p: float | None = None) -> SweepResult:
    """Seeded sweep of covariance splits; fixed-prefix sampling as in the
    discrete sweeps.  ``trace_P`` mode additionally samples the cap S on the
    trace simplex ``tr(S) <= P``, with ``P = trace_p`` (default ``tr(S)``);
    ``trace_p`` in any other mode is an input error.

    The sweep is evaluated as one stack: every sample is drawn first, in the
    order a per-sample loop draws them, then one :func:`eval_gauss_inner`
    call checks every cap at once and gives the stack of every sample's
    region, and :func:`sweep_systems` enumerates it in one
    :func:`~.polytope_fm.vertices` call.
    Nothing about the channel (noise covariances, degradedness) is checked
    per sample."""
    if budget < 1:
        raise BudgetZero("sweep budget must be >= 1")
    if mode not in ("fixed_S", "trace_P"):
        raise ValidationError(f"unknown sweep mode {mode!r}")
    if trace_p is not None and mode != "trace_P":
        raise ValidationError("a trace cap applies only to the trace_P mode")
    if trace_p is not None and not 0 < trace_p < math.inf:
        raise ValidationError(f"trace cap must be positive and finite, got {trace_p}")
    if not ch.degraded:
        raise NotDegraded("covariance sweep expects a degraded channel")
    rng = np.random.default_rng(seed)
    d = ch.dim
    if mode == "fixed_S":
        K = np.stack([np.zeros((d, d)), ch.S, 0.5 * ch.S])[:budget]
        if budget > 3:
            K = np.concatenate([K, random_psd_under(rng, ch.S, size=budget - 3)])
    else:
        p = trace_p if trace_p is not None else float(np.trace(ch.S))
        rot, lam = np.empty((budget, d, d)), np.empty((budget, d))
        g, u = np.empty((budget, d, d)), np.empty((budget, d))
        for k in range(budget):   # the stream of normal, dirichlet, normal, uniform(0, 1)
            rng.standard_normal(out=rot[k])
            lam[k] = rng.dirichlet(np.ones(d)) * p
            rng.standard_normal(out=g[k])
            rng.random(out=u[k])
        q, _ = np.linalg.qr(rot)
        S = (q * np.clip(lam, CAP_EIG_FLOOR * p, None)[:, None, :]) @ q.mT
        ch = ch.with_caps(S)
        K = _psd_under(ch.S, g, u)
    return sweep_systems([f"K{i}" for i in range(budget)], eval_gauss_inner(CovSplit(K=K), ch))
