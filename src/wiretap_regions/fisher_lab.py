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
raises QuadratureNonConvergent, never returns.  The passes are stacked: a
command collects the u-groups of every checked mixture it needs, each at a
noise variance, and one call evaluates each rung for all groups on it at
once, in blocks of bounded size, giving each group the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NoRoot,
    QuadratureNonConvergent,
    SingularConditionalCovariance,
    SingularMatrix,
    StepTooLarge,
    ValidationError,
    WiretapError,
    at_instance,
    numbered,
    raise_for_first,
)
from .polytope_fm import SystemStack, vertices
from .regions_discrete import dominance_slack, five_bound_system, pareto_front
from .regions_gaussian import (GaussChannel, check_psd, cholesky, logdet, project_range,
                               scalar_of)

TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True, eq=False)
class GaussPair:
    """Jointly Gaussian (U, X) given by the joint covariance block matrix, or
    a stack of such pairs given by a ``(..., d_u + d_x, d_u + d_x)`` stack.

    ``Cov(X|U)`` is derived once, at construction; it and ``cov`` are read-only.
    Equality and hashing are by identity.
    """

    cov: np.ndarray
    d_u: int
    d_x: int
    _cxu: np.ndarray = field(init=False, repr=False)

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


@dataclass(frozen=True, eq=False)
class ScalarMixture:
    """Finitely supported scalar (U, X) pair: rows of (u, x, weight).

    The conditional mixtures per u value are derived once, at construction;
    they and the rows are read-only.  Equality and hashing are by identity.
    """

    u_points: np.ndarray
    x_points: np.ndarray
    weights: np.ndarray
    _groups: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # copies, never the caller's arrays
        u, x, w = (np.array(a, dtype=float).ravel()
                   for a in (self.u_points, self.x_points, self.weights))
        if x.size != w.size or not x.size:
            raise ValidationError("mixture centers and weights must have equal nonzero size")
        if not np.isfinite(x).all():
            raise ValidationError("mixture centers must be finite")
        if not ((w >= 0.0).all() and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise ValidationError("mixture weights must be a distribution")
        if u.size != x.size:
            raise ValidationError("mixture support arrays must have equal size")
        if not np.isfinite(u).all():
            raise ValidationError("mixture u-points must be finite")
        groups = []
        for value in _distinct(u):
            m = u == value
            pu = float(w[m].sum())
            if pu > 0:
                groups.append((pu, x[m], w[m] / pu))
        for a in (u, x, w, *(a for _, c, wu in groups for a in (c, wu))):
            a.setflags(write=False)
        object.__setattr__(self, "u_points", u)
        object.__setattr__(self, "x_points", x)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_groups", tuple(groups))

    def second_moment(self) -> float:
        return float((self.weights * self.x_points ** 2).sum())

    def groups(self) -> tuple:
        """Conditional mixtures per distinct u value: (p_u, centers, weights)."""
        return self._groups


# --- quadrature on mixture + Gaussian densities --------------------------------

# Largest move of h or J from the half-resolution grid, relative to 1 plus
# the scale-free value h - log(sigma) or J var (the move of J taken times var).
QUAD_RTOL = 1e-7
# Points of the largest grid of a mixture quadrature, the top rung of its ladder.
QUAD_N = 4001
# Grid cells (groups x components x points) of one block of a stacked quadrature.
QUAD_BLOCK_CELLS = 2 ** 16
# Largest |sum - 1| of a mixture's weights, which are probabilities.
WEIGHT_SUM_TOL = 1e-12
# Mixture density below which f'^2 / f is taken as 0: f underflows to 0 there.
DENSITY_FLOOR = 1e-300


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a flat array, as ``np.unique`` gives them;
    ``np.unique`` itself imports ``numpy.ma`` (numpy 2.4)."""
    s = np.sort(a)
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _stack_quadrature(groups, var, n: int) -> np.ndarray:
    """h(X + N | U) and J(X + N | U) of each entry of a stack, an array
    (entries, 2): entry e is the (p_u, centers, weights) u-groups of a
    checked :class:`ScalarMixture` at noise variance ``var[e]``, and gets the
    p-weighted sum, in group order, of its groups' (h, J).

    Each group takes the trapezoid rule over [min c - 8 sigma, max c + 8 sigma]
    on the nested ladder ``m = (n - 1) / 2^k + 1`` of odd point counts ending
    at ``n`` (251, ..., 4001 for ``QUAD_N``), from the coarsest rung with
    spacing at most sigma / 2 (no component falls between grid points), and
    moves up while, on the half-resolution grid, h moves by more than
    QUAD_RTOL * (1 + |h - log(var) / 2|) or J var by more than
    QUAD_RTOL * (1 + J var): forms that scaling the centers by s and var by
    s^2 leaves alone.  Still moving at ``n`` raises QuadratureNonConvergent.
    A rung takes its groups by count of nonzero weights, a lone one padded
    with a log-weight -inf component (exact zeros), in blocks of at most
    QUAD_BLOCK_CELLS cells (groups x components x points, or one group), so
    each group gets the bits it gets alone.  An error names entry e as
    instance e: the first entry to break the first check that fails."""
    var = np.asarray(var, dtype=float).ravel()
    if len(groups) != var.size:
        raise DimensionMismatch(f"{len(groups)} mixtures and {var.size} noise variances "
                                "do not make a stack")
    raise_for_first(~(var > 0.0), ValidationError,
                    lambda k: f"noise variance must be positive, got {var[k]}")
    if n < 3 or n % 2 == 0:
        raise ValidationError(f"quadrature grid needs an odd point count >= 3, got {n}")
    entry = np.array([e for e, gs in enumerate(groups) for _ in gs])
    p, c_g, w_g = zip(*(g for gs in groups for g in gs))
    var = var[entry]   # a noise variance a group from here on
    c_all, w_all = np.concatenate(c_g), np.concatenate(w_g)
    live = w_all > 0.0   # components of nonzero weight: no log(0)
    size = np.array([np.count_nonzero(w > 0.0) for w in w_g])
    filled = np.arange(max(2, size.max())) < size[:, None]   # a row a group
    c, logw = np.zeros(filled.shape), np.full(filled.shape, -np.inf)
    c[filled] = c_all[live]
    logw[filled] = np.log(w_all[live])
    c = np.where(filled, c, c[:, :1])   # a pad sits at its group's first center
    width = np.maximum(2, size)
    sigma = np.sqrt(var)
    lo, hi = c.min(axis=1) - 8.0 * sigma, c.max(axis=1) + 8.0 * sigma
    rung, m, coarser = np.full(var.size, n), n, np.ones(var.size, dtype=bool)
    while m % 4 == 1:   # the next coarser rung (m - 1) / 2 + 1 is odd when m % 4 == 1
        coarser &= (hi - lo) / ((m - 1) // 2) <= 0.5 * sigma
        m = (m - 1) // 2 + 1
        rung[coarser] = m
    val, moved = np.empty((var.size, 2)), np.zeros((var.size, 2))
    m = rung.min()
    while True:
        here = rung == m
        for k in _distinct(width[here]):
            group = np.flatnonzero(here & (width == k))
            per = max(1, QUAD_BLOCK_CELLS // (k * m))
            for b in (group[s:s + per] for s in range(0, group.size, per)):
                # np.linspace(lo, hi, m) of each group
                y = np.arange(m) * ((hi[b] - lo[b]) / (m - 1))[:, None] + lo[b, None]
                y[:, -1] = hi[b]
                terms = _stack_integrands(y, c[b, :k], logw[b, :k], var[b])
                val[b] = full = np.trapezoid(terms, y[:, None], axis=-1)
                moved[b] = np.abs(full - np.trapezoid(terms[..., ::2], y[:, None, ::2], axis=-1))
                v = var[b]
                still = ~((moved[b, 0] <= QUAD_RTOL * (1.0 + np.abs(full[:, 0] - 0.5 * np.log(v))))
                          & (moved[b, 1] * v <= QUAD_RTOL * (1.0 + full[:, 1] * v)))
                rung[b[still]] = 2 * m - 1
        if m == n:
            break
        m = 2 * m - 1
    if (rung > n).any():
        t = (rung > n).argmax()
        raise at_instance(QuadratureNonConvergent, (int(entry[t]),),
                          f"quadrature of (h, J) moved by ({moved[t][0]:.2e}, "
                          f"{moved[t][1]:.2e}) under refinement at {n} points")
    out = np.zeros((len(groups), 2))
    np.add.at(out, entry, val * np.array(p)[:, None])   # in group order from 0: sum()'s bits
    return out


def _stack_integrands(y, centers, logw, var) -> np.ndarray:
    """Rows ``-f log f`` and ``f'^2 / f`` of each group's mixture density ``f``
    at its points: ``y`` (groups, m), ``centers`` and log-weights ``logw``
    (groups, k), ``var`` (groups,); an array (groups, 2, m)."""
    # log(w_j phi(y - c_j; var)): one row per component, shifted by the column
    # max; updated in place, so two (groups, k, m) arrays are live at most
    v = var[:, None, None]
    d = y[:, None, :] - centers[:, :, None]
    z = d ** 2
    z /= -2.0 * v
    z += (logw - 0.5 * np.log(2.0 * math.pi * var)[:, None])[:, :, None]
    zmax = z.max(axis=1)
    z -= zmax[:, None, :]
    expz = np.exp(z, out=z)
    total = expz.sum(axis=1)
    logf = zmax + np.log(total)
    scale = np.exp(zmax)
    f = total * scale
    d /= -v
    d *= expz
    fprime = d.sum(axis=1) * scale
    mask = f > DENSITY_FLOOR
    # exp(logf) and f differ only in rounding
    return np.stack([-np.exp(logf) * logf,
                     np.where(mask, fprime ** 2 / np.where(mask, f, 1.0), 0.0)], axis=1)


def mixture_entropy(groups, var, n: int = QUAD_N) -> np.ndarray:
    """h(X + N | U) of each entry of a stack of checked mixtures' u-groups,
    checked by refinement (see :func:`_stack_quadrature`)."""
    return _stack_quadrature(groups, var, n)[:, 0]


def mixture_fisher(groups, var, n: int = QUAD_N) -> np.ndarray:
    """J(X + N | U) of each entry of a stack of checked mixtures' u-groups,
    checked by refinement (see :func:`_stack_quadrature`)."""
    return _stack_quadrature(groups, var, n)[:, 1]


def mixture_cond_fisher(mix: ScalarMixture, var: float) -> float:
    """J(X + N | U): weighted average of the per-u Fisher informations."""
    with numbered([()]):
        return float(mixture_fisher([mix.groups()], [var])[0])


# --- Fisher information and the entropy gradient --------------------------------

# Smallest eigenvalue of Cov(X|U) + Sigma_N, relative to its largest, that
# gaussian_fisher inverts.
FISHER_EIG_RTOL = 1e-14
# Entropy-gradient residual above which debruijn_check halves its step.
RESIDUAL_TOL = 1e-4


def gaussian_fisher(pair: GaussPair, sigma_n) -> np.ndarray:
    """Conditional Fisher information of X + N given U for a Gaussian pair:
    the inverse of Cov(X|U) + Sigma_N."""
    m = pair.cov_x_given_u() + np.atleast_2d(np.asarray(sigma_n, dtype=float))
    w = np.linalg.eigvalsh(m)
    low = w.min(axis=-1)
    raise_for_first(low <= FISHER_EIG_RTOL * w.max(axis=-1),
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
    """Residual of the entropy-gradient identity grad_Sigma h(X+N|U) = J/2: a
    float for a lone Gaussian pair, an array for a stack of them, and an
    array for a list of scalar mixtures with a ``(n, 1, 1)`` stack of noise
    variances, whose J and h at both moved variances take one stacked
    quadrature each.

    Central differences of h along every symmetric direction are compared with
    ``tr(J D)/2``.  If the residual at the requested step is above RESIDUAL_TOL but
    halving the step shrinks it, the residual is truncation-dominated and
    StepTooLarge is raised instead of returning a misleading number; so it is
    when the step takes a moved matrix out of the positive-definite cone.
    """
    if not 0 < step < math.inf:
        raise ValidationError(f"finite-difference step must be positive and finite, got {step}")
    if isinstance(obj, GaussPair):
        sn = np.atleast_2d(np.asarray(sigma_n, dtype=float))
        cxu, J = obj.cov_x_given_u(), gaussian_fisher(obj, sn)
        d = sn.shape[-1]
        scale = np.maximum(1.0, np.trace(sn, axis1=-2, axis2=-1) / d)
        # every symmetric direction D, each with both signs, ahead of the instance axes
        basis = np.stack(list(_sym_basis(d))).reshape(-1, *(1,) * (J.ndim - 2), d, d)
        signed = np.stack([basis, -basis], axis=1)
        half_tr = 0.5 * np.trace(J @ basis, axis1=-2, axis2=-1)

        def residual(t: float) -> np.ndarray:
            try:   # one logdet stack (direction, sign, instance)
                h = _gauss_cond_entropy(cxu, sn + (t * scale)[..., None, None] * signed)
            except WiretapError as e:   # named by its instance, not its direction and sign
                if not e.instance:
                    raise
                err, message = ((StepTooLarge, f"step {t:g} moves Cov(X|U) + Sigma_N out of "
                                 "the positive-definite cone") if isinstance(e, SingularMatrix)
                                else (type(e), e.detail))
                raise at_instance(err, e.instance[2:], message) from None
            gap = np.abs((h[:, 0] - h[:, 1]) / (2.0 * t * scale) - half_tr)
            return np.fmax.reduce(gap, axis=0, initial=0.0)   # the builtin max from 0, per instance
    elif isinstance(obj, (list, tuple)):
        groups = [mix.groups() for mix in obj]
        var = np.asarray(sigma_n, dtype=float)
        if var.shape != (len(groups), 1, 1):
            raise ValidationError(f"a mixture noise covariance must be a 1x1 matrix, and "
                                  f"{len(groups)} mixtures take a stack of {len(groups)} "
                                  f"1x1 matrices, got shape {var.shape}")
        var = var[:, 0, 0]
        # a step inside the cone keeps its half there, and halving moves only h
        raise_for_first(step * np.maximum(1.0, var) >= var, StepTooLarge,
                        lambda k: f"step {step:g} moves the noise variance {var[k]:g} out of "
                                  "the positive-definite cone")
        J = mixture_fisher(groups, var)

        def residual(t: float) -> np.ndarray:
            t_abs = t * np.maximum(1.0, var)
            # h at var + t and var - t of each mixture, side by side
            with numbered(np.arange(len(var)).repeat(2).tolist()):
                h = mixture_entropy([g for g in groups for _ in range(2)],
                                    np.stack([var + t_abs, var - t_abs], axis=-1).ravel())
            fd = (h[0::2] - h[1::2]) / (2.0 * t_abs)
            return np.abs(fd - 0.5 * J)
    else:
        raise TypeError(f"unsupported input {type(obj).__name__}")

    r1 = np.asarray(residual(step))
    if (r1 > RESIDUAL_TOL).any():
        r2 = np.asarray(residual(step / 2.0))
        raise_for_first((r1 > RESIDUAL_TOL) & (r2 < 0.5 * r1), StepTooLarge,
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
    stacks ``(..., d, d)``: an array of their values.

    With ``K1 + S = L L^T`` and mu the eigenvalues of ``L^{-1} (K2 - K1) L^{-T}``,
    the integrand at t is ``sum_i mu_i / (1 + t mu_i)``: one Cholesky
    factorization and one eigendecomposition an instance give every node.
    A ``K1 + S`` that is not positive definite raises SingularMatrix."""
    ts = np.linspace(0.0, 1.0, 65)
    linv = np.linalg.inv(cholesky(k1 + sn))
    m = linv @ (k2 - k1) @ linv.mT
    mu = np.linalg.eigvalsh(0.5 * (m + m.mT))[..., None, :]
    return np.trapezoid((mu / (1.0 + ts[:, None] * mu)).sum(axis=-1), ts, axis=-1)


# Rounding allowance of the L9 check, relative to 1 + |log|K2+S| - log|K1+S||.
L9_RTOL = 1e-12


def _check_segment(value, k1, k2, sn) -> None:
    """QuadratureNonConvergent for the first L9 value outside [I - r, I +
    sum(mu_i^3) / 24576 + r], I = log|K2+S| - log|K1+S| and r = L9_RTOL (1 +
    |I|): the integrand is convex, f'' <= 2 sum(mu_i^3), so the trapezoid at
    h = 1/64 exceeds I by at most h^2/12 max f''.  sum(mu_i^3) is the trace
    of ((K1+S)^{-1} (K2-K1))^3."""
    exact = logdet(k2 + sn) - logdet(k1 + sn)
    m = np.linalg.solve(k1 + sn, k2 - k1)
    top = exact + np.trace(m @ m @ m, axis1=-2, axis2=-1) / 24576.0
    r = L9_RTOL * (1.0 + np.abs(exact))
    raise_for_first(~((exact - r <= value) & (value <= top + r)), QuadratureNonConvergent,
                    lambda k: f"L9 value {value[k]:.9e} is off the closed form {exact[k]:.9e} "
                              f"beyond its trapezoid bound")


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
    l9 = _segment_integral(k1m, k2m, sN)
    _check_segment(l9, k1m, k2m, sN)
    return {"L6": _min_eig(jy - j1),
            "L7": _min_eig(gap),
            "L8": _min_eig(np.linalg.inv(cov_x_v) - np.linalg.inv(cov_x_u)),
            "L9": l9,
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
    by_dim = {d: list(range(d - 1, count, 3)) for d in (1, 2, 3) if d <= count}
    joint = {d: np.empty((len(n), 2 * d, 2 * d)) for d, n in by_dim.items()}
    draws = {d: np.empty((len(n), len(_LEMMA_DRAWS), d, d)) for d, n in by_dim.items()}
    mixtures = []
    for i in range(count):
        d = 1 + i % 3
        # the values and stream of normal(size=(2d, 2d)), normal(size=(12, d, d))
        rng.standard_normal(out=joint[d][i // 3])
        rng.standard_normal(out=draws[d][i // 3])
        if include_mixtures and i % 10 == 0:
            mix = random_mixture(rng)
            var1 = 0.5 + rng.uniform(0.0, 1.0)
            mixtures.append((i, mix, var1, var1 + rng.uniform(0.1, 1.0)))
    rows: dict[int, list] = {}
    for d, n in by_dim.items():
        with numbered(n):
            slacks = _gauss_lemmas(joint[d], draws[d])
        for lemma, values in slacks.items():
            for i, slack in zip(n, values.tolist()):
                rows.setdefault(i, []).append((lemma, "gauss", i, slack))
    if mixtures:   # (h, J) at var1 of every mixture in one pass, J at var2 in another
        nums, mixes, var1, var2 = zip(*mixtures)
        groups = [mix.groups() for mix in mixes]
        with numbered(nums):
            cond1 = _stack_quadrature(groups, var1, QUAD_N).tolist()
            cond2 = mixture_fisher(groups, var2).tolist()
        for (i, mix, var1, var2), (hm, jm1), jm2 in zip(mixtures, cond1, cond2):
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

# Margin of the interpolation sandwich, relative to cap + sigmaZ^2: the
# largest variance on the path, which carries the rounding of 1/J - sigma^2.
SANDWICH_RTOL = 1e-8
# Margin of a mixture's second moment over the input cap S, relative to S.
CAP_RTOL = 1e-9
# |f - g| in nats at an end of the interpolation path that makes the end the root.
ENDPOINT_TOL = 1e-12


def interpolation_t_star(obj, sigma2_sq: float, sigmaz_sq: float):
    """Find t* with f(t*) = h(Z|U) - h(Y2|U) on the scalar interpolation path.

    ``K(t) = (1-t) [J^{-1}(X+NZ|U) - sigmaZ^2] + t [J^{-1}(X+N2|U) - sigma2^2]``
    and ``f(t) = log((K+sigmaZ^2)/(K+sigma2^2))/2``.  K is linear in t and f
    depends on K alone, so a sign change of ``f - g`` on [0, 1] gives the root
    in closed form: ``K* = (sigmaZ^2 - r sigma2^2)/(r - 1)`` with ``r =
    exp(2g)``, ``g = h(Z|U) - h(Y2|U)``.  The returned K satisfies the
    sandwich ``J^{-1}(X+N2|U) - sigma2^2 <= K <= E[X^2]`` (``Cov(X)`` for a
    Gaussian pair) within SANDWICH_RTOL times ``E[X^2] + sigmaZ^2``.
    """
    if sigma2_sq > sigmaz_sq:
        raise NoRoot("interpolation requires the degraded order sigma2^2 <= sigmaZ^2")
    if isinstance(obj, GaussPair):
        cxu = scalar_of(obj.cov_x_given_u(), "Cov(X|U)")
        j2, jz = 1.0 / (cxu + sigma2_sq), 1.0 / (cxu + sigmaz_sq)
        g = 0.5 * math.log((cxu + sigmaz_sq) / (cxu + sigma2_sq))
        cap = scalar_of(obj.cov_x(), "Cov(X)")
    elif isinstance(obj, ScalarMixture):
        with numbered([(), ()]):
            (h2, j2), (hz, jz) = _stack_quadrature([obj.groups()] * 2, [sigma2_sq, sigmaz_sq],
                                                   QUAD_N).tolist()
        g = hz - h2
        cap = obj.second_moment()
    else:
        raise TypeError(f"unsupported input {type(obj).__name__}")

    k_z = 1.0 / jz - sigmaz_sq   # t = 0 endpoint
    k_2 = 1.0 / j2 - sigma2_sq   # t = 1 endpoint

    def f(k):
        return 0.5 * math.log((k + sigmaz_sq) / (k + sigma2_sq))

    f0, f1 = f(k_z) - g, f(k_2) - g
    if abs(f0) <= ENDPOINT_TOL:
        t_star, k_star = 0.0, k_z
    elif abs(f1) <= ENDPOINT_TOL:
        t_star, k_star = 1.0, k_2
    elif f0 * f1 > 0:
        raise NoRoot(f"no sign change on [0,1]: f(0)-g={f0:.3e}, f(1)-g={f1:.3e}")
    else:
        # f(k) = g solved for k; the sign change puts t* in [0, 1] up to rounding
        r = math.exp(2.0 * g)
        k_star = (sigmaz_sq - r * sigma2_sq) / (r - 1.0)
        t_star = min(max((k_star - k_z) / (k_2 - k_z), 0.0), 1.0)
    tol = SANDWICH_RTOL * (cap + sigmaz_sq)
    if k_star < k_2 - tol or k_star > cap + tol:
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


def mixture_region_constants(mixes, ch: GaussChannel) -> list[dict]:
    """The five information quantities of :func:`five_bound_system` for each
    of a list of scalar mixture inputs, their entropies by one stacked
    quadrature; an error names the mixture it concerns, ``instance k``."""
    _, s1, s2, sz = ch.scalars
    groups, var = [], []
    for m in mixes:
        whole = ((1.0, m.x_points, m.weights),)
        groups += [whole, whole, m.groups(), m.groups(), m.groups()]
        var += [s2, sz, s1, s2, sz]
    with numbered([e // 5 for e in range(len(var))]):
        h = mixture_entropy(groups, var)
    return [{
        "iuy2": h_y2 - h_y2_u,
        "iuz": h_z - h_z_u,
        "ixy1_u": h_y1_u - 0.5 * math.log(TWO_PI_E * s1),
        "ixz": h_z - 0.5 * math.log(TWO_PI_E * sz),
        "ixz_u": h_z_u - 0.5 * math.log(TWO_PI_E * sz),
    } for h_y2, h_z, h_y1_u, h_y2_u, h_z_u
        in h.reshape(-1, 5).tolist()]


def sufficiency_evidence_scalar(mixes, ch: GaussChannel, gauss_points: np.ndarray,
                                slack_tol: float = 1e-3):
    """Check that each mixture's five-bound polytope lies inside the Gaussian
    allocation envelope (point cloud from a covariance sweep), within a slack.

    ``mixes`` is a sequence of :class:`ScalarMixture` values, which gets a
    list of reports in order.  Every mixture's bounds are computed first, their
    entropies by one stacked quadrature, and one stacked :func:`vertices` call
    gives all their polytopes.  Rate regions are
    downward closed, so a vertex is covered when some convex combination of
    envelope points dominates it componentwise.  The slack is monotone in the
    vertex, so only the vertices on a polytope's Pareto front are checked:
    every mixture's front is stacked into one :func:`dominance_slack` call,
    which packs the points into LPs of a bounded row count, and each mixture
    reports its front's worst slack.  Passing
    ``pareto_front(gauss_points)`` instead of the whole cloud gives the same
    slacks from smaller LPs.  An error names the mixture it concerns,
    ``instance k``.
    """
    mixes = list(mixes)
    if not np.asarray(gauss_points).size:
        raise ValidationError("empty Gaussian envelope")
    if not mixes:
        return []
    raise_for_first(np.array([m.second_moment() for m in mixes]) > ch.scalars[0] * (1 + CAP_RTOL),
                    ValidationError, lambda k: "mixture second moment exceeds the input cap")
    quantities = mixture_region_constants(mixes, ch)
    bounds = five_bound_system(**{name: np.array([c[name] for c in quantities])
                                  for name in quantities[0]})
    labels = [q.label for q in bounds.rows.ineqs]
    b = bounds.rhs
    bad = b < -CLAMP_TOL
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise at_instance(QuadratureNonConvergent, (int(k),),
                          f"bound {labels[i]} = {b[k, i]:.3e} is below -{CLAMP_TOL:g}")
    vp = vertices(SystemStack(bounds.rows, np.where(b < 0.0, 0.0, b)))
    found = [(dict(zip(labels, row)), [l for l, r in zip(labels, row) if r < 0.0])
             for row in b.tolist()]
    fronts = [pareto_front(pts) for pts in np.split(vp.vertices, np.cumsum(vp.counts)[:-1])]
    # each clamped region holds the origin, so no front is empty
    starts = np.cumsum([0] + [len(f) for f in fronts[:-1]])
    worst = np.maximum.reduceat(dominance_slack(np.vstack(fronts), gauss_points), starts)
    return [DominanceReport(constants=constants, clamped=clamped, max_slack=w,
                            contained=w <= slack_tol)
            for (constants, clamped), w in zip(found, worst.tolist())]
