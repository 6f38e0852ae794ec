"""Numeric verification lab for Fisher-information facts.

Covers the conditional Cramer-Rao bound, the noise-perturbation inequality,
monotonicity under conditioning, the matrix line-integral inequality, the
entropy lower bound in terms of Fisher information, inverse monotonicity of
the semidefinite order, the entropy-gradient (de Bruijn) identity, the
interpolation argument producing the matched covariance of the Gaussian
bounds, and the scalar evidence harness for Gaussian sufficiency.

Gaussian instances use closed forms.  For scalar mixtures one trapezoid pass
on a +-8-standard-deviation grid gives both h and J and checks each by step
halving.  The grid sizes itself by that check: it walks the nested ladder of
251, 501, 1001, 2001 and 4001 points, starting at the coarsest rung with
spacing at most sigma / 2 and doubling while a value moves; ``n`` (default
``QUAD_N`` = 4001) is the largest grid, and a value that still moves there
raises QuadratureNonConvergent, never returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    NoRoot,
    QuadratureNonConvergent,
    SingularConditionalCovariance,
    StepTooLarge,
    ValidationError,
    at_instance,
    numbered,
    raise_for_first,
)
from .polytope_fm import vertices
from .regions_discrete import dominance_slack, five_bound_system, pareto_front
from .regions_gaussian import GaussChannel, check_psd, logdet, project_range, scalar_of

TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class GaussPair:
    """Jointly Gaussian (U, X) given by the joint covariance block matrix, or
    a stack of such pairs given by a ``(..., d_u + d_x, d_u + d_x)`` stack.

    ``Cov(X|U)`` is derived once, at construction; it and ``cov`` are read-only.
    """

    cov: np.ndarray
    d_u: int
    d_x: int
    _cxu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = check_psd(self.cov, "joint covariance")
        if c.shape[-1] != self.d_u + self.d_x:
            raise DimensionMismatch(f"covariance of shape {c.shape} does not match d_u+d_x")
        k, cxu = self.d_u, c
        if k:   # Schur complement Sxx - Sux^T Suu^+ Sux
            sux = c[..., :k, k:]
            cxu = c[..., k:, k:] - sux.mT @ np.linalg.pinv(c[..., :k, :k]) @ sux
        for a in (c, cxu):
            a.setflags(write=False)
        object.__setattr__(self, "cov", c)
        object.__setattr__(self, "_cxu", cxu)

    def cov_x_given_u(self) -> np.ndarray:
        return self._cxu

    def cov_x(self) -> np.ndarray:
        return self.cov[..., self.d_u:, self.d_u:]


@dataclass(frozen=True)
class ScalarMixture:
    """Finitely supported scalar (U, X) pair: rows of (u, x, weight)."""

    u_points: np.ndarray
    x_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_points, dtype=float).ravel()
        x, w = _check_mixture(self.x_points, self.weights)
        if u.size != x.size:
            raise ValidationError("mixture support arrays must have equal size")
        for a in (u, x, w):
            a.setflags(write=False)
        object.__setattr__(self, "u_points", u)
        object.__setattr__(self, "x_points", x)
        object.__setattr__(self, "weights", w)

    def second_moment(self) -> float:
        return float((self.weights * self.x_points ** 2).sum())

    def groups(self):
        """Conditional mixtures per distinct u value: (p_u, centers, weights)."""
        out = []
        for u in np.unique(self.u_points):
            m = self.u_points == u
            pu = float(self.weights[m].sum())
            if pu <= 0:
                continue
            out.append((pu, self.x_points[m], self.weights[m] / pu))
        return out


# --- quadrature on mixture + Gaussian densities --------------------------------

# Largest relative move of h or J from the half-resolution grid.
QUAD_RTOL = 1e-7
# Points of the largest grid of a mixture quadrature, the top rung of its ladder.
QUAD_N = 4001


def _check_mixture(centers, weights):
    """Flat float arrays; ValidationError unless a distribution on finite centers."""
    c = np.asarray(centers, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if c.size != w.size or c.size == 0:
        raise ValidationError("mixture centers and weights must have equal nonzero size")
    if not np.isfinite(c).all():
        raise ValidationError("mixture centers must be finite")
    if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12):
        raise ValidationError("mixture weights must be a distribution")
    return c, w


def _quadrature(centers, weights, var: float, n: int) -> tuple[float, float]:
    """Entropy h and Fisher information J of ``sum_j w_j N(c_j, var)`` by the
    trapezoid rule over [min c - 8 sigma, max c + 8 sigma], on a grid sized by
    its own check.  The grids are the nested ladder ``m = (n - 1) / 2^k + 1``
    of odd point counts that ends at ``n`` (251, 501, ..., 4001 for
    ``QUAD_N``); the pass starts at the coarsest rung whose spacing is at
    most sigma / 2, so no component falls between grid points, and doubles
    while either value moves by more than QUAD_RTOL * (1 + |value|) on the
    half-resolution grid.  Still moving at ``n`` points raises
    QuadratureNonConvergent."""
    centers, weights = _check_mixture(centers, weights)
    if not var > 0.0:
        raise ValidationError(f"noise variance must be positive, got {var}")
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"quadrature grid needs an odd point count >= 3, got {n}")
    centers, weights = centers[weights > 0.0], weights[weights > 0.0]   # no log(0)
    sigma = math.sqrt(var)
    lo, hi = centers.min() - 8.0 * sigma, centers.max() + 8.0 * sigma
    m = n   # the next coarser rung (m - 1) / 2 + 1 is odd when m % 4 == 1
    while m % 4 == 1 and (hi - lo) / ((m - 1) // 2) <= 0.5 * sigma:
        m = (m - 1) // 2 + 1
    while True:
        y = np.linspace(lo, hi, m)
        terms = _integrands(y, centers, weights, var)
        full = np.trapezoid(terms, y, axis=1)
        moved = np.abs(full - np.trapezoid(terms[:, ::2], y[::2], axis=1))
        if (moved <= QUAD_RTOL * (1.0 + np.abs(full))).all():
            return float(full[0]), float(full[1])
        if m == n:
            raise QuadratureNonConvergent(
                f"quadrature of (h, J) moved by ({moved[0]:.2e}, {moved[1]:.2e}) "
                f"under refinement at {n} points")
        m = 2 * m - 1


def _integrands(y, centers, weights, var: float) -> np.ndarray:
    """Rows ``-f log f`` and ``f'^2 / f`` of the mixture density ``f`` at the
    points ``y``."""
    # log(w_j phi(y - c_j; var)): one row per component, shifted by the column max
    d = y[None, :] - centers[:, None]
    z = -d ** 2 / (2.0 * var)
    z += np.log(weights)[:, None] - 0.5 * np.log(2.0 * math.pi * var)
    zmax = z.max(axis=0)
    expz = np.exp(z - zmax)
    total = expz.sum(axis=0)
    logf = zmax + np.log(total)
    scale = np.exp(zmax)
    f = total * scale
    fprime = (expz * (-d / var)).sum(axis=0) * scale
    mask = f > 1e-300
    # exp(logf) and f differ only in rounding
    return np.stack([-np.exp(logf) * logf,
                     np.where(mask, fprime ** 2 / np.where(mask, f, 1.0), 0.0)])


def mixture_entropy(centers, weights, var: float, n: int = QUAD_N) -> float:
    """Differential entropy of ``sum_j w_j N(c_j, var)``, checked by refinement."""
    return _quadrature(centers, weights, var, n)[0]


def mixture_fisher(centers, weights, var: float, n: int = QUAD_N) -> float:
    """Fisher information of ``sum_j w_j N(c_j, var)``, checked by refinement."""
    return _quadrature(centers, weights, var, n)[1]


def mixture_cond_entropy(mix: ScalarMixture, var: float) -> float:
    """h(X + N | U) for Gaussian noise of the given variance."""
    return sum(pu * mixture_entropy(c, w, var) for pu, c, w in mix.groups())


def mixture_cond_fisher(mix: ScalarMixture, var: float) -> float:
    """J(X + N | U): weighted average of the per-u Fisher informations."""
    return sum(pu * mixture_fisher(c, w, var) for pu, c, w in mix.groups())


def _mixture_cond(mix: ScalarMixture, var: float) -> tuple[float, float]:
    """(h(X + N | U), J(X + N | U)) from one quadrature pass per u value;
    each equals what mixture_cond_entropy and mixture_cond_fisher return."""
    parts = [(pu, _quadrature(c, w, var, QUAD_N)) for pu, c, w in mix.groups()]
    return (sum(pu * h for pu, (h, _) in parts), sum(pu * j for pu, (_, j) in parts))


# --- Fisher information and the entropy gradient --------------------------------


def gaussian_fisher(pair: GaussPair, sigma_n) -> np.ndarray:
    """Conditional Fisher information of X + N given U for a Gaussian pair:
    the inverse of Cov(X|U) + Sigma_N."""
    m = pair.cov_x_given_u() + np.atleast_2d(np.asarray(sigma_n, dtype=float))
    w = np.linalg.eigvalsh(m)
    low = w.min(axis=-1)
    raise_for_first(low <= 1e-14 * np.maximum(1.0, w.max(axis=-1)),
                    SingularConditionalCovariance,
                    lambda k: f"Cov(X|U) + Sigma_N has near-zero eigenvalue {low[k]:.3e}")
    return np.linalg.inv(m)


def _joint_fisher(pair: GaussPair, sigma_n) -> np.ndarray:
    """Conditional Fisher information of Y = X + N given U for a Gaussian
    pair, from the joint covariance: the Y-block of the inverse covariance of
    (U, Y), with U first projected onto the range of Cov(U) as ``gauss_mi``
    does.  It does not read ``Cov(X|U)``, so it checks
    :func:`gaussian_fisher`."""
    k = pair.d_u
    c = pair.cov
    cy = c[..., k:, k:] + np.atleast_2d(sigma_n)
    if not k:
        return np.linalg.inv(cy)
    out = np.empty(cy.shape)
    for where, p in project_range(c[..., :k, :k]):
        cw = c[where]
        joint = np.block([[p.mT @ cw[..., :k, :k] @ p, p.mT @ cw[..., :k, k:]],
                          [cw[..., k:, :k] @ p, cy[where]]])
        out[where] = np.linalg.inv(joint)[..., p.shape[-1]:, p.shape[-1]:]
    return out


def _gauss_cond_entropy(cxu: np.ndarray, sn: np.ndarray):
    """h(X + N | U) of Gaussian pairs with Cov(X|U) = ``cxu`` and Cov(N) = ``sn``."""
    m = cxu + sn
    d = m.shape[-1]
    return 0.5 * (d * math.log(TWO_PI_E) + logdet(m))


def _sym_basis(d: int):
    for i in range(d):
        e = np.zeros((d, d))
        e[i, i] = 1.0
        yield e
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0
            yield e


def debruijn_check(obj, sigma_n, step: float = 1e-4):
    """Residual of the entropy-gradient identity grad_Sigma h(X+N|U) = J/2, a
    float (an array for a stack of Gaussian pairs).

    Central differences of h along every symmetric direction are compared with
    ``tr(J D)/2``.  If the residual at the requested step is above 1e-4 but
    halving the step shrinks it, the residual is truncation-dominated and
    StepTooLarge is raised instead of returning a misleading number.
    """
    if not 0 < step < math.inf:
        raise ValidationError(f"finite-difference step must be positive and finite, got {step}")
    if isinstance(obj, GaussPair):
        sn = np.atleast_2d(np.asarray(sigma_n, dtype=float))
        cxu, J = obj.cov_x_given_u(), gaussian_fisher(obj, sn)
        d = sn.shape[-1]
        scale = np.maximum(1.0, np.trace(sn, axis1=-2, axis2=-1) / d)

        def residual(t: float) -> np.ndarray:
            worst = np.zeros(J.shape[:-2])
            for D in _sym_basis(d):
                move = (t * scale)[..., None, None] * D
                fd = ((_gauss_cond_entropy(cxu, sn + move) - _gauss_cond_entropy(cxu, sn - move))
                      / (2.0 * t * scale))
                gap = np.abs(fd - 0.5 * np.trace(J @ D, axis1=-2, axis2=-1))
                worst = np.where(gap > worst, gap, worst)   # the builtin max, per instance
            return worst
    elif isinstance(obj, ScalarMixture):
        var = scalar_of(np.atleast_2d(sigma_n), "mixture noise covariance")

        def residual(t: float) -> float:
            t_abs = t * max(1.0, var)
            J = mixture_cond_fisher(obj, var)
            hp = mixture_cond_entropy(obj, var + t_abs)
            hm = mixture_cond_entropy(obj, var - t_abs)
            fd = (hp - hm) / (2.0 * t_abs)
            return abs(fd - 0.5 * J)
    else:
        raise TypeError(f"unsupported input {type(obj).__name__}")

    r1 = np.asarray(residual(step))
    if (r1 > 1e-4).any():
        r2 = np.asarray(residual(step / 2.0))
        raise_for_first((r1 > 1e-4) & (r2 < 0.5 * r1), StepTooLarge,
                        lambda k: f"residual {r1[k]:.3e} is truncation-dominated "
                                  f"(halving gives {r2[k]:.3e})")
    return float(r1) if r1.ndim == 0 else r1


# --- lemma suite -----------------------------------------------------------------


@dataclass
class SuiteReport:
    rows: list = field(default_factory=list)   # (lemma, kind, index, slack)

    def min_slack(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for lemma, _, _, slack in self.rows:
            out[lemma] = min(out.get(lemma, float("inf")), slack)
        return out

    @property
    def worst(self) -> float:
        return min((s for _, _, _, s in self.rows), default=0.0)


def _psd(g: np.ndarray, jitter: float) -> np.ndarray:
    """``g g^T + jitter I`` for a factor ``g``, or for each factor of a stack."""
    return g @ g.mT + jitter * np.eye(g.shape[-1])


def gauss_pair_of(g: np.ndarray) -> GaussPair:
    """The pair :func:`random_gauss_pair` builds from its normal draw ``g``
    (2d x 2d), or the stack of pairs from a stack of draws."""
    d = g.shape[-1] // 2
    return GaussPair(_psd(g, 0.1), d_u=d, d_x=d)


def random_gauss_pair(rng: np.random.Generator, d: int) -> GaussPair:
    return gauss_pair_of(rng.normal(size=(2 * d, 2 * d)))


def random_mixture(rng: np.random.Generator) -> ScalarMixture:
    n = int(rng.integers(2, 5))
    u = rng.integers(0, 2, size=n).astype(float)
    x = rng.normal(scale=1.5, size=n)
    w = rng.dirichlet(np.ones(n))
    return ScalarMixture(u, x, w)


def _min_eig(m) -> np.ndarray:
    return np.linalg.eigvalsh(m).min(axis=-1)


def _segment_integral(k1, k2, sn):
    """Trapezoid value, on 65 nodes, of the integral over t in [0, 1] of
    ``tr((K1 + t (K2 - K1) + S)^{-1} (K2 - K1))`` for each instance of the
    stacks ``(..., d, d)``, all nodes in one solve: an array of their values."""
    ts = np.linspace(0.0, 1.0, 65)
    k1, step, sn = (m[..., None, :, :] for m in (k1, k2 - k1, sn))
    stack = k1 + ts[:, None, None] * step + sn
    vals = np.trace(np.linalg.solve(stack, np.broadcast_to(step, stack.shape)),
                    axis1=-2, axis2=-1)
    return np.trapezoid(vals, ts, axis=-1)


# The d x d normal draws of one lemma instance after its joint covariance's
# 2d x 2d draw, in stream order; "d" names an increment (s2 = s1 + psd(ds2)).
_LEMMA_DRAWS = ("s1", "ds2", "su", "a", "b", "wa", "wb", "k1m", "dk2m", "sN", "A", "dB")


def _gauss_lemmas(joint: np.ndarray, draws: np.ndarray) -> dict[str, np.ndarray]:
    """Slacks of the six lemmas on a stack of Gaussian instances of one
    dimension, from their draws: ``joint`` (n, 2d, 2d) and ``draws``
    (n, len(_LEMMA_DRAWS), d, d)."""
    g = dict(zip(_LEMMA_DRAWS, np.moveaxis(draws, -3, 0)))
    pair = gauss_pair_of(joint)
    d = pair.d_x
    s1 = _psd(g["s1"], 0.1)
    s2 = s1 + _psd(g["ds2"], 0.05)

    # conditional Cramer-Rao: J(X+N|U) >= (Cov(X|U)+Sigma)^{-1}, with J
    # from the joint covariance and the bound from the Schur complement
    j1 = gaussian_fisher(pair, s1)
    jy = _joint_fisher(pair, s1)

    # noise perturbation: J^{-1}(X+N2|U)-S2 >= J^{-1}(X+N1|U)-S1
    j2 = gaussian_fisher(pair, s2)
    gap = (np.linalg.inv(j2) - s2) - (np.linalg.inv(j1) - s1)

    # conditioning monotonicity on a Gaussian chain U -> V -> X; the draws su
    # and a are never used: they are drawn only to keep the instance stream,
    # so removing them would change every later instance
    b, wa, wb = g["b"], _psd(g["wa"], 0.1), _psd(g["wb"], 0.1)
    cov_x_v = wb
    cov_x_u = b @ wa @ b.mT + wb

    # segment integral of a PSD matrix field f(K) = (K+S)^{-1}
    k1m = _psd(g["k1m"], 0.0)
    k2m = k1m + _psd(g["dk2m"], 0.0)
    sN = _psd(g["sN"], 0.1)

    # entropy lower bound h >= log|2 pi e J^{-1}|/2 (equality when Gaussian)
    h = _gauss_cond_entropy(pair.cov_x_given_u(), s1)
    bound = 0.5 * (d * math.log(TWO_PI_E) - logdet(jy))

    # inverse reverses the semidefinite order
    A = _psd(g["A"], 0.1)
    B = A + _psd(g["dB"], 0.0)
    return {"L6": _min_eig(jy - j1),
            "L7": _min_eig(gap),
            "L8": _min_eig(np.linalg.inv(cov_x_v) - np.linalg.inv(cov_x_u)),
            "L9": _segment_integral(k1m, k2m, sN),
            "L11": h - bound,
            "L12": _min_eig(np.linalg.inv(A) - np.linalg.inv(B))}


def lemma_suite_check(seed: int = 0, count: int = 200,
                      include_mixtures: bool = False) -> SuiteReport:
    """Evaluate the six matrix lemmas on seeded instances of dimension 1, 2, 3 in turn.

    Reports the minimum slack (eigenvalue or scalar) per instance; every slack
    must be >= -1e-8.  Gaussian instances check the Cramer-Rao and
    noise-perturbation facts at their equality point, and conditioning
    monotonicity and the inverse order where their slack is positive;
    optional scalar mixtures give the equality cases positive slack, by
    quadrature.  Every instance is drawn first, in stream order; the
    Gaussian lemmas then take one stacked call per dimension.
    """
    rng = np.random.default_rng(seed)
    gauss: dict[int, list] = {}
    mixtures = []
    for i in range(count):
        d = 1 + i % 3
        gauss.setdefault(d, []).append((i, rng.normal(size=(2 * d, 2 * d)),
                                        rng.normal(size=(len(_LEMMA_DRAWS), d, d))))
        if include_mixtures and i % 10 == 0:
            mix = random_mixture(rng)
            var1 = 0.5 + rng.uniform(0.0, 1.0)
            mixtures.append((i, mix, var1, var1 + rng.uniform(0.1, 1.0)))
    rows: dict[int, list] = {}
    for nums, joint, draws in (zip(*stack) for stack in gauss.values()):
        with numbered(nums):
            slacks = _gauss_lemmas(np.stack(joint), np.stack(draws))
        for lemma, values in slacks.items():
            for i, slack in zip(nums, values.tolist()):
                rows.setdefault(i, []).append((lemma, "gauss", i, slack))
    for i, mix, var1, var2 in mixtures:
        hm, jm1 = _mixture_cond(mix, var1)
        jm2 = mixture_cond_fisher(mix, var2)
        v1 = _cond_var(mix) + var1
        rows[i] += [("L6", "mixture", i, jm1 - 1.0 / v1),
                    ("L7", "mixture", i, (1.0 / jm2 - var2) - (1.0 / jm1 - var1)),
                    ("L11", "mixture", i, hm - 0.5 * math.log(TWO_PI_E / jm1))]
    return SuiteReport([row for i in range(count) for row in rows[i]])


def _cond_var(mix: ScalarMixture) -> float:
    out = 0.0
    for pu, c, w in mix.groups():
        mean = float((w * c).sum())
        out += pu * float((w * (c - mean) ** 2).sum())
    return out


# --- interpolation and the sufficiency evidence harness -------------------------


def interpolation_t_star(obj, sigma2_sq: float, sigmaz_sq: float):
    """Find t* with f(t*) = h(Z|U) - h(Y2|U) on the scalar interpolation path.

    ``K(t) = (1-t) [J^{-1}(X+NZ|U) - sigmaZ^2] + t [J^{-1}(X+N2|U) - sigma2^2]``
    and ``f(t) = log((K+sigmaZ^2)/(K+sigma2^2))/2``.  K is linear in t and f
    depends on K alone, so a sign change of ``f - g`` on [0, 1] gives the root
    in closed form: ``K* = (sigmaZ^2 - r sigma2^2)/(r - 1)`` with ``r =
    exp(2g)``, ``g = h(Z|U) - h(Y2|U)``.  The returned K satisfies the
    sandwich ``J^{-1}(X+N2|U) - sigma2^2 <= K <= E[X^2]`` (``Cov(X)`` for a
    Gaussian pair) within 1e-8.
    """
    if sigma2_sq > sigmaz_sq:
        raise NoRoot("interpolation requires the degraded order sigma2^2 <= sigmaZ^2")
    if isinstance(obj, GaussPair):
        cxu = scalar_of(obj.cov_x_given_u(), "Cov(X|U)")
        j2, jz = 1.0 / (cxu + sigma2_sq), 1.0 / (cxu + sigmaz_sq)
        g = 0.5 * math.log((cxu + sigmaz_sq) / (cxu + sigma2_sq))
        cap = scalar_of(obj.cov_x(), "Cov(X)")
    elif isinstance(obj, ScalarMixture):
        h2, j2 = _mixture_cond(obj, sigma2_sq)
        hz, jz = _mixture_cond(obj, sigmaz_sq)
        g = hz - h2
        cap = obj.second_moment()
    else:
        raise TypeError(f"unsupported input {type(obj).__name__}")

    k_z = 1.0 / jz - sigmaz_sq   # t = 0 endpoint
    k_2 = 1.0 / j2 - sigma2_sq   # t = 1 endpoint

    def f(k):
        return 0.5 * math.log((k + sigmaz_sq) / (k + sigma2_sq))

    f0, f1 = f(k_z) - g, f(k_2) - g
    if abs(f0) <= 1e-12:
        t_star, k_star = 0.0, k_z
    elif abs(f1) <= 1e-12:
        t_star, k_star = 1.0, k_2
    elif f0 * f1 > 0:
        raise NoRoot(f"no sign change on [0,1]: f(0)-g={f0:.3e}, f(1)-g={f1:.3e}")
    else:
        # f(k) = g solved for k; the sign change puts t* in [0, 1] up to rounding
        r = math.exp(2.0 * g)
        k_star = (sigmaz_sq - r * sigma2_sq) / (r - 1.0)
        t_star = min(max((k_star - k_z) / (k_2 - k_z), 0.0), 1.0)
    if k_star < k_2 - 1e-8 or k_star > cap + 1e-8:
        raise NoRoot(
            f"matched covariance {k_star:.6g} violates the sandwich [{k_2:.6g}, {cap:.6g}]")
    return t_star, k_star


# Bounds in [-CLAMP_TOL, 0) are clamped to 0 and recorded; lower ones raise.
# Each bound is a difference of quadrature entropies checked to QUAD_RTOL;
# ten times that is no quadrature noise.
CLAMP_TOL = 10 * QUAD_RTOL


@dataclass
class DominanceReport:
    constants: dict[str, float]     # bound values by label, before any clamp
    clamped: list[str]              # labels of the bounds clamped to 0
    max_slack: float
    contained: bool


def mixture_region_constants(mix: ScalarMixture, ch: GaussChannel) -> dict[str, float]:
    """The five information quantities of :func:`five_bound_system` for a
    scalar mixture input."""
    _, s1, s2, sz = ch.scalars
    h_y2 = mixture_entropy(mix.x_points, mix.weights, s2)
    h_z = mixture_entropy(mix.x_points, mix.weights, sz)
    h_y1_u = mixture_cond_entropy(mix, s1)
    h_y2_u = mixture_cond_entropy(mix, s2)
    h_z_u = mixture_cond_entropy(mix, sz)
    return {
        "iuy2": h_y2 - h_y2_u,
        "iuz": h_z - h_z_u,
        "ixy1_u": h_y1_u - 0.5 * math.log(TWO_PI_E * s1),
        "ixz": h_z - 0.5 * math.log(TWO_PI_E * sz),
        "ixz_u": h_z_u - 0.5 * math.log(TWO_PI_E * sz),
    }


def sufficiency_evidence_scalar(mixes, ch: GaussChannel, gauss_points: np.ndarray,
                                slack_tol: float = 1e-3):
    """Check that each mixture's five-bound polytope lies inside the Gaussian
    allocation envelope (point cloud from a covariance sweep), within a slack.

    ``mixes`` is a sequence of :class:`ScalarMixture` values, which gets a
    list of reports in order.  Every mixture's bounds are computed first, and
    one stacked :func:`vertices` call gives all their polytopes.  Rate regions are
    downward closed, so a vertex is covered when some convex combination of
    envelope points dominates it componentwise.  The slack is monotone in the
    vertex, so only the vertices on a polytope's Pareto front are checked,
    all of them by one :func:`dominance_slack` LP per mixture.  Passing
    ``pareto_front(gauss_points)`` instead of the whole cloud gives the same
    slacks from smaller LPs.  An error names the mixture it concerns,
    ``instance k``.
    """
    mixes = list(mixes)
    if not np.asarray(gauss_points).size:
        raise ValidationError("empty Gaussian envelope")
    if not mixes:
        return []
    systems, found = [], []
    for k, mix in enumerate(mixes):
        if mix.second_moment() > ch.scalars[0] + 1e-9:
            raise at_instance(ValidationError, (k,), "mixture second moment exceeds the input cap")
        bounds = five_bound_system(**mixture_region_constants(mix, ch))
        negative = [q for q in bounds.ineqs if q.rhs < 0.0]
        for q in negative:
            if q.rhs < -CLAMP_TOL:
                raise at_instance(QuadratureNonConvergent, (k,),
                                  f"bound {q.label} = {q.rhs:.3e} is below -{CLAMP_TOL:g}")
        systems.append(bounds.with_ineqs([replace(q, rhs=max(q.rhs, 0.0)) for q in bounds.ineqs]))
        found.append(({q.label: q.rhs for q in bounds.ineqs}, [q.label for q in negative]))
    vp = vertices(systems)
    reports = []
    # each clamped region holds the origin, so its front is never empty
    for (constants, clamped), pts in zip(found, np.split(vp.vertices, np.cumsum(vp.counts)[:-1])):
        worst = float(dominance_slack(pareto_front(pts), gauss_points).max())
        reports.append(DominanceReport(constants=constants, clamped=clamped, max_slack=worst,
                                       contained=worst <= slack_tol))
    return reports
