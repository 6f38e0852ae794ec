"""Gaussian vector channel instances and closed-form log-det rate regions.

Channels are ``Y1 = X + N1``, ``Y2 = X + N2``, ``Z = X + NZ`` with an input
covariance cap ``E[X X'] <= S``; a channel's ``degraded`` property is the
noise-covariance order ``0 < S1 <= S2 <= SZ`` (or, for channels given by gain
matrices with unit noise, the contraction test on the gain quotients).  All
bounds are halves of natural-log determinant ratios, in nats.
"""

from __future__ import annotations

import functools
import itertools
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
from .info_core import VarId, build_degraded_joint, make_table
from .polytope_fm import IneqSystem, LinIneq
from .regions_discrete import (RATES, AuxJoint, SweepResult, five_bound_system, outer_of,
                               specialize_corollary, sweep_systems)

ORDER_TOL = 1e-10
SYM_TOL = 1e-12
# Largest magnitude of a GaussChannel entry: eight orders below the largest
# double, so the sums and constant multiples of channel matrices that the
# evaluators form (symmetrization included) stay finite.
MAX_ENTRY = 1e300
# Smallest largest |entry| of a GaussChannel matrix: the squares and products
# of entries that the quadrature and the precoding check form stay normal.
MIN_SCALE = 1e-150

# _sym, check_psd, check_pd, psd_leq, logdet, dpc_matrix, project_range,
# gauss_mi, dpc_identity_check and random_psd_under take a matrix or a stack of
# matrices (..., d, d) and compute each matrix of a stack exactly as alone.  A
# matrix that breaks a check raises for the first such instance k of the
# stack, naming k (see errors.at_instance); a single matrix is a stack with no
# leading axis, and its messages name no instance.


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
    if a.ndim == 0:
        a = a.reshape(1, 1)
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
    to zero.  The floor is ``-1e-10 * max(trace/d, 1.0)``: relative to the
    mean eigenvalue at scale 1 and above, absolute (-1e-10) below it, so a
    small-scale indefinite matrix can pass and be clipped (CHANGES.md, the
    FOUND line on ``check_psd``)."""
    a = _sym(m)
    w, v = np.linalg.eigh(a)
    low = w.min(axis=-1)
    floor = -1e-10 * np.maximum(a.trace(axis1=-2, axis2=-1) / a.shape[-1], 1.0)
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


def psd_leq(a, b):
    """a <= b in the semidefinite order, within a slack relative to the
    matrices compared: ``lambda_min(b - a) >= -ORDER_TOL * max(|a|_2, |b|_2)``
    (spectral norms, the largest |eigenvalue|), so scaling a and b together
    does not change the verdict.  A bool (a bool array for a stack)."""
    a, b = np.broadcast_arrays(_sym(a), _sym(b))
    w = np.linalg.eigvalsh(np.stack([a, b, b - a]))
    ok = w[2].min(axis=-1) >= -ORDER_TOL * np.abs(w[:2]).max(axis=(0, -1))
    return bool(ok) if ok.ndim == 0 else ok


def logdet(m):
    """log det of a positive definite matrix via Cholesky, a float (an array
    for a stack); raises on failure."""
    a = _sym(m)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise at_instance(SingularMatrix, _first_failure(np.linalg.cholesky, a)[0],
                          "nonpositive pivot in Cholesky factorization") from None
    out = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def scalar_of(m, what: str) -> float:
    """The entry of a 1 x 1 matrix; ValidationError for any other shape, a
    stack of 1 x 1 matrices included."""
    a = np.asarray(m, dtype=float)
    if a.shape != (1, 1):
        raise ValidationError(f"{what} must be a 1x1 matrix, got shape {a.shape}")
    return float(a[0, 0])


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
        for name in ("S", "Sigma1", "Sigma2", "SigmaZ"):
            a = np.abs(np.asarray(getattr(self, name), dtype=float))
            big = a.max(initial=0.0)
            if not big <= MAX_ENTRY:
                raise ValidationError(f"{name} has an entry of magnitude {big:.3g}; channel "
                                      f"entries must be finite and at most {MAX_ENTRY:g}")
            scale = np.atleast_2d(a).max(axis=(-2, -1), initial=0.0)
            raise_for_first(scale < MIN_SCALE, ValidationError,
                            lambda k: f"{name} has largest entry magnitude {scale[k]:.3g}; "
                                      f"channel matrices must hold an entry of at least "
                                      f"{MIN_SCALE:g}")
        object.__setattr__(self, "S", check_pd(self.S, "S"))
        object.__setattr__(self, "Sigma1", check_pd(self.Sigma1, "Sigma1"))
        object.__setattr__(self, "Sigma2", check_pd(self.Sigma2, "Sigma2"))
        object.__setattr__(self, "SigmaZ", check_pd(self.SigmaZ, "SigmaZ"))
        d = self.S.shape[-1]
        for m in (self.Sigma1, self.Sigma2, self.SigmaZ):
            if m.shape != (d, d):
                raise DimensionMismatch("all channel matrices must share one dimension")

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
    def degraded(self) -> bool:
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
        HZ = DZ2 H2) and are contractions."""
        d21, dz2 = self.quotients
        return bool(np.linalg.norm(self.H2 - d21 @ self.H1) <= 1e-9
                    and np.linalg.norm(self.HZ - dz2 @ self.H2) <= 1e-9
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
        raise_for_first(~np.asarray(psd_leq(total, S)), CapExceeded,
                        lambda k: "covariance allocation exceeds the input cap S")


def construct_joint_noise(ch: GaussChannel) -> np.ndarray:
    """Joint covariance of (N1, N2, NZ) realizing the degraded chain.

    Writes N2 = N1 + M2 and NZ = N2 + MZ with independent increments of
    covariance Sigma2-Sigma1 and SigmaZ-Sigma2, so the blocks reproduce the
    marginal noise covariances exactly and X -> Y1 -> Y2 -> Z holds.
    """
    if not ch.degraded:
        raise NotDegraded("noise covariances are not ordered")
    s1, s2, sz = ch.Sigma1, ch.Sigma2, ch.SigmaZ
    return np.block([[s1, s1, s1], [s1, s2, s2], [s1, s2, sz]])


def _half_logdet_ratio(num, den) -> float:
    return 0.5 * (logdet(num) - logdet(den))


def _gauss_constants(K, ch: GaussChannel) -> dict:
    """The five information quantities of :func:`five_bound_system` for X = U + V
    with Cov(V) = K and Cov(U) = S - K, from one logdet of their ten matrices:
    floats, or arrays for a stack of K (and of S)."""
    S, s1, s2, sz = ch.S, ch.Sigma1, ch.Sigma2, ch.SigmaZ
    ratios = {
        "iuy2": (S + s2, K + s2),
        "iuz": (S + sz, K + sz),
        "ixy1_u": (K + s1, s1),
        "ixz": (S + sz, sz),
        "ixz_u": (K + sz, sz),
    }
    ld = logdet(np.stack(np.broadcast_arrays(*itertools.chain(*ratios.values()))))
    return {name: 0.5 * (ld[2 * i] - ld[2 * i + 1]) for i, name in enumerate(ratios)}


def eval_gauss_inner(split: CovSplit, ch: GaussChannel):
    """Five-bound achievable region for a degraded channel and a fixed K <= S.

    A split whose K is a stack (and a channel whose S is one cap or a stack
    of as many) gives one system per K, from one cap check and one logdet."""
    if not ch.degraded:
        raise NotDegraded("inner bound needs the degraded noise order")
    if split.K is None:
        raise ValidationError("inner bound takes a single-matrix split K")
    split.validate_cap(ch.S)
    constants = _gauss_constants(split.K, ch)
    if split.K.ndim == 2:
        return five_bound_system(**constants)
    return [five_bound_system(*c) for c in zip(*(v.tolist() for v in constants.values()))]


def eval_gauss_outer(split: CovSplit, ch: GaussChannel) -> IneqSystem:
    """Outer bound of the degraded channel for a fixed K <= S."""
    return outer_of(eval_gauss_inner(split, ch))


def specialize_gauss_corollary(sys: IneqSystem, which: str) -> IneqSystem:
    """Specializations mirroring the discrete ones (cor4/cor5/cor6/cor6_alt)."""
    mapping = {"cor4": "cor1", "cor5": "cor2", "cor6": "cor3", "cor6_alt": "cor3_alt"}
    if which not in mapping:
        raise UnknownCorollary(f"unknown specialization {which!r}")
    return specialize_corollary(sys, mapping[which])


def dpc_matrix(K1, Sigma1) -> np.ndarray:
    """Precoding matrix K1 (K1 + Sigma1)^{-1} against known interference."""
    k1 = check_psd(K1, "K1")
    s1 = _sym(Sigma1)
    m = k1 + s1
    try:
        return np.linalg.solve(m.mT, k1.mT).mT
    except np.linalg.LinAlgError:
        raise at_instance(SingularMatrix, _first_failure(np.linalg.solve, m.mT, k1.mT)[0],
                          "K1 + Sigma1 is singular") from None


def _range_columns(a: np.ndarray):
    """Eigenvectors of each covariance and which of them span its range: the
    eigenvalues above 1e-12 of the largest, so the range does not depend on
    the covariance's scale (an all-zero covariance keeps none)."""
    w, v = np.linalg.eigh(a)
    return v, w > 1e-12 * w.max(axis=-1)[..., None]


def _by_pattern(*keeps):
    """Group a stack's instances by their kept-column patterns, one mask
    ``(..., d_i)`` per covariance: yields ``(where, patterns)`` with ``where``
    selecting the instances whose masks equal ``patterns``.  A single
    instance is one group with ``where == ()``."""
    if keeps[0].ndim == 1:
        yield (), keeps
        return
    joint = np.concatenate(keeps, axis=-1)
    patterns, which = np.unique(joint.reshape(-1, joint.shape[-1]), axis=0,
                                return_inverse=True)
    cuts = np.cumsum([k.shape[-1] for k in keeps])[:-1]
    for g, pattern in enumerate(patterns):
        yield which.reshape(joint.shape[:-1]) == g, np.split(pattern, cuts)


def project_range(cov) -> list:
    """Orthonormal bases of the range of a covariance, as columns, grouped
    by the eigenvector columns kept: ``[(where, basis)]``, ``basis`` the
    ``(n, d, r)`` stack of the bases of the n covariances ``where`` selects
    in a stack, or the ``(d, r)`` basis of a single covariance
    (``where == ()``)."""
    v, keep = _range_columns(_sym(cov))
    return [(where, v[where][..., p]) for where, (p,) in _by_pattern(keep)]


def gauss_mi(Saa, Sab, Sbb):
    """Mutual information of a jointly Gaussian pair from covariance blocks,
    a float (an array for a stack).

    Degenerate marginals are projected onto their range first; a singular
    conditional covariance (deterministic dependence) raises SingularMatrix.
    Each instance of a stack is computed with the others of its range
    pattern.
    """
    Saa, Sbb = _sym(Saa), _sym(Sbb)
    Sab = np.atleast_2d(np.asarray(Sab, dtype=float))
    lead = np.broadcast_shapes(Saa.shape[:-2], Sab.shape[:-2], Sbb.shape[:-2])
    Saa, Sab, Sbb = (np.broadcast_to(m, lead + m.shape[-2:]) for m in (Saa, Sab, Sbb))
    (va, ka), (vb, kb) = _range_columns(Saa), _range_columns(Sbb)
    out = np.zeros(lead)
    try:
        for where, (pa, pb) in _by_pattern(ka, kb):
            if not (pa.any() and pb.any()):
                continue
            Pa, Pb = va[where][..., pa], vb[where][..., pb]
            a = Pa.mT @ Saa[where] @ Pa
            b = Pb.mT @ Sbb[where] @ Pb
            c = Pa.mT @ Sab[where] @ Pb
            cond = b - c.mT @ np.linalg.solve(a, c)
            out[where] = 0.5 * (logdet(b) - logdet(cond))
    except WiretapError:
        if not lead:
            raise
        k, e = _first_failure(gauss_mi, Saa, Sab, Sbb)
        raise at_instance(type(e), k, str(e)) from None
    return float(out) if not lead else out


def dpc_identity_check(K1, K2, K0, ch: GaussChannel):
    """Residual of the interference-free rate identity under precoding, a
    float (an array for stacks of covariance triples).

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


def eval_general_gauss(split: CovSplit, ch: GaussChannel, order: str = "21") -> IneqSystem:
    """Eight-bound layered region for a covariance triple (K0, K1, K2).

    ``order="21"`` encodes the second user's layer first and precodes the
    first user's layer against it; ``order="12"`` swaps the roles of the two
    users (indices of K, Sigma and the rate labels all swap).
    """
    if split.K is not None:
        raise ValidationError("general region takes a triple split (K0, K1, K2)")
    split.validate_cap(ch.S)
    if order == "12":
        swapped = GaussChannel(ch.S, ch.Sigma2, ch.Sigma1, ch.SigmaZ)
        base = _general_bounds(split.K0, split.K2, split.K1, swapped)
        relabel = {"Rs1": "Rs2", "Rs2": "Rs1", "Rp1": "Rp2", "Rp2": "Rp1"}
        rows = [LinIneq.of({relabel[v]: c for v, c in q.coeffs}, q.rhs, q.rel,
                           q.label.translate(str.maketrans("12", "21")))
                for q in base]
        return IneqSystem.of(RATES, rows)
    if order != "21":
        raise UnknownCorollary(f"unknown encoding order {order!r}")
    return IneqSystem.of(RATES, _general_bounds(split.K0, split.K1, split.K2, ch))


def _general_bounds(K0, K1, K2, ch: GaussChannel) -> list[LinIneq]:
    S, s1, s2, sz = ch.S, ch.Sigma1, ch.Sigma2, ch.SigmaZ
    tot = K0 + K1 + K2
    inner12 = K1 + K2

    def min_j(num_fn):
        return min(num_fn(s1), num_fn(s2))

    cloud = min_j(lambda s: _half_logdet_ratio(tot + s, inner12 + s))
    cloud_cap = min_j(lambda s: _half_logdet_ratio(S + s, inner12 + s))
    dirty = _half_logdet_ratio(K1 + s1, s1)
    layer2 = _half_logdet_ratio(inner12 + s2, K1 + s2)
    rows = [
        ({"Rs1": 1}, cloud + dirty - _half_logdet_ratio(tot + sz, inner12 + sz)
         - _half_logdet_ratio(K1 + sz, sz), "rs1"),
        ({"Rs2": 1}, cloud + layer2 - _half_logdet_ratio(tot + sz, K1 + sz), "rs2"),
        ({"Rs1": 1, "Rs2": 1}, cloud + layer2 + dirty - _half_logdet_ratio(tot + sz, sz),
         "rs12"),
        ({"Rs1": 1, "Rp1": 1}, cloud_cap + dirty, "rs1p1"),
        ({"Rs2": 1, "Rp2": 1}, cloud_cap + layer2, "rs2p2"),
        ({"Rs1": 1, "Rp1": 1, "Rs2": 1}, cloud_cap + dirty + layer2
         - _half_logdet_ratio(inner12 + sz, K1 + sz), "rs1p1s2"),
        ({"Rs1": 1, "Rs2": 1, "Rp2": 1}, cloud_cap + layer2 + dirty
         - _half_logdet_ratio(K1 + sz, sz), "rs12p2"),
        ({"Rp1": 1, "Rs1": 1, "Rp2": 1, "Rs2": 1}, cloud_cap + layer2 + dirty, "total"),
    ]
    return [LinIneq.of(c, v, label=l) for c, v, l in rows]


# --- scalar discretization ---------------------------------------------------


def discretize_scalar(ch: GaussChannel, k_alloc: float):
    """Fine discrete twin of a scalar channel and its Gaussian aux selection.

    Returns ``(aux, channel)`` suitable for the discrete degraded evaluation:
    U on a 61-point grid carrying N(0, S-K) out to 6 standard deviations,
    X | U ~ N(u, K) quantized onto a 61-point grid, and the cascade stages of
    the degraded noise increments row-discretized on 122 points each.  Used
    to cross-check the closed-form bounds against the discrete path.
    """
    S, s1, s2, sz = ch.scalars
    su = S - k_alloc
    m, span = 61, 6.0

    def centered_grid(var, n):
        if var > 1e-12:
            g = np.linspace(-span * math.sqrt(var), span * math.sqrt(var), n)
            p = np.exp(-g ** 2 / (2.0 * var))
            return g, p / p.sum()
        return np.array([0.0]), np.array([1.0])

    ug, pu = centered_grid(su, m)
    xg = np.linspace(-1.2 * span * math.sqrt(S), 1.2 * span * math.sqrt(S), m)
    if k_alloc > 1e-12:
        pxu = np.exp(-(xg[None, :] - ug[:, None]) ** 2 / (2.0 * k_alloc))
        pxu /= pxu.sum(axis=1, keepdims=True)
    else:
        pxu = np.zeros((ug.size, xg.size))
        for i, u in enumerate(ug):
            pxu[i, int(np.argmin(np.abs(xg - u)))] = 1.0
    aux_arr = pu[:, None] * pxu

    def stage(src, var, n):
        var = max(var, 1e-15)
        dst = np.linspace(src[0] - span * math.sqrt(var), src[-1] + span * math.sqrt(var), n)
        kmat = np.exp(-(dst[None, :] - src[:, None]) ** 2 / (2.0 * var))
        return dst, kmat / kmat.sum(axis=1, keepdims=True)

    y1g, k1 = stage(xg, s1, 2 * m)
    y2g, k2 = stage(y1g, s2 - s1, 2 * m)
    _, k3 = stage(y2g, sz - s2, 2 * m)
    channel = build_degraded_joint(k1, k2, k3)
    aux = AuxJoint(make_table((VarId("U", ug.size), VarId("X", xg.size)), aux_arr))
    return aux, channel


# --- sweeps -----------------------------------------------------------------


def random_psd_under(rng: np.random.Generator, S: np.ndarray,
                     size: int | None = None) -> np.ndarray:
    """Random PSD matrix K <= S: congruence of a random contraction by S^1/2.
    With ``size``, a stack of that many, drawn in the order of as many calls."""
    d = S.shape[-1]
    n = 1 if size is None else size
    g, u = np.empty((n, d, d)), np.empty((n, d))
    for k in range(n):
        g[k], u[k] = rng.normal(size=(d, d)), rng.uniform(0.0, 1.0, size=d)
    if size is None:
        g, u = g[0], u[0]
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
    call checks every cap at once and gives one system per sample, and
    :func:`sweep_systems` enumerates them in one :func:`vertices` call.
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
        for k in range(budget):
            rot[k], lam[k] = rng.normal(size=(d, d)), rng.dirichlet(np.ones(d)) * p
            g[k], u[k] = rng.normal(size=(d, d)), rng.uniform(0.0, 1.0, size=d)
        q, _ = np.linalg.qr(rot)
        S = (q * np.clip(lam, 1e-9 * p, None)[:, None, :]) @ q.mT
        S = check_pd(0.5 * (S + S.mT), "S")
        ch = GaussChannel(S, ch.Sigma1, ch.Sigma2, ch.SigmaZ)
        K = _psd_under(S, g, u)
    return sweep_systems((f"K{i}", sys) for i, sys in enumerate(
        eval_gauss_inner(CovSplit(K=K), ch)))
