"""Numeric verification lab for Fisher-information facts.

Covers the conditional Cramer-Rao bound, the noise-perturbation inequality,
monotonicity under conditioning, the matrix line-integral inequality, the
entropy lower bound in terms of Fisher information, inverse monotonicity of
the semidefinite order, the entropy-gradient (de Bruijn) identity, the
interpolation argument producing the matched covariance of the Gaussian
bounds, and the scalar evidence harness for Gaussian sufficiency.

Gaussian instances use closed forms.  For scalar mixtures one trapezoid pass
on a +-8-standard-deviation grid gives both h and J and checks each by step
halving; a value that moves raises QuadratureNonConvergent, never returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    NoRoot,
    QuadratureNonConvergent,
    SingularConditionalCovariance,
    StepTooLarge,
    ValidationError,
)
from .polytope_fm import vertices
from .regions_discrete import dominance_slack, five_bound_system, pareto_front
from .regions_gaussian import GaussChannel, check_psd, logdet

TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class GaussPair:
    """Jointly Gaussian (U, X) given by the joint covariance block matrix."""

    cov: np.ndarray
    d_u: int
    d_x: int

    def __post_init__(self):
        c = check_psd(self.cov, "joint covariance")
        if c.shape[0] != self.d_u + self.d_x:
            raise SingularConditionalCovariance(
                f"covariance of shape {c.shape} does not match d_u+d_x")
        object.__setattr__(self, "cov", c)

    def cov_x_given_u(self) -> np.ndarray:
        if self.d_u == 0:
            return self.cov
        suu = self.cov[:self.d_u, :self.d_u]
        sux = self.cov[:self.d_u, self.d_u:]
        sxx = self.cov[self.d_u:, self.d_u:]
        return sxx - sux.T @ np.linalg.pinv(suu) @ sux

    def cov_x(self) -> np.ndarray:
        return self.cov[self.d_u:, self.d_u:]


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
    trapezoid rule on ``n`` points over [min c - 8 sigma, max c + 8 sigma].
    Either value moving by more than QUAD_RTOL * (1 + |value|) on the
    half-resolution grid raises QuadratureNonConvergent."""
    centers, weights = _check_mixture(centers, weights)
    if not var > 0.0:
        raise ValidationError(f"noise variance must be positive, got {var}")
    centers, weights = centers[weights > 0.0], weights[weights > 0.0]   # no log(0)
    sigma = math.sqrt(var)
    y = np.linspace(centers.min() - 8.0 * sigma, centers.max() + 8.0 * sigma, n)
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
    # rows: integrands of h and J; exp(logf) and f differ only in rounding
    terms = np.stack([-np.exp(logf) * logf,
                      np.where(mask, fprime ** 2 / np.where(mask, f, 1.0), 0.0)])
    full = np.trapezoid(terms, y, axis=1)
    moved = np.abs(full - np.trapezoid(terms[:, ::2], y[::2], axis=1))
    if (moved > QUAD_RTOL * (1.0 + np.abs(full))).any():
        raise QuadratureNonConvergent(
            f"quadrature of (h, J) moved by ({moved[0]:.2e}, {moved[1]:.2e}) under refinement")
    return float(full[0]), float(full[1])


def mixture_entropy(centers, weights, var: float, n: int = 4001) -> float:
    """Differential entropy of ``sum_j w_j N(c_j, var)``, checked by refinement."""
    return _quadrature(centers, weights, var, n)[0]


def mixture_fisher(centers, weights, var: float, n: int = 4001) -> float:
    """Fisher information of ``sum_j w_j N(c_j, var)``, checked by refinement."""
    return _quadrature(centers, weights, var, n)[1]


def mixture_cond_entropy(mix: ScalarMixture, var: float) -> float:
    """h(X + N | U) for Gaussian noise of the given variance."""
    return sum(pu * mixture_entropy(c, w, var) for pu, c, w in mix.groups())


def mixture_cond_fisher(mix: ScalarMixture, var: float) -> float:
    """J(X + N | U): weighted average of the per-u Fisher informations."""
    return sum(pu * mixture_fisher(c, w, var) for pu, c, w in mix.groups())


# --- Fisher information and the entropy gradient --------------------------------


def gaussian_fisher(pair: GaussPair, sigma_n) -> np.ndarray:
    """Conditional Fisher information of X + N given U for a Gaussian pair:
    the inverse of Cov(X|U) + Sigma_N."""
    sn = np.atleast_2d(np.asarray(sigma_n, dtype=float))
    m = pair.cov_x_given_u() + sn
    w = np.linalg.eigvalsh(m)
    if w.min() <= 1e-14 * max(1.0, w.max()):
        raise SingularConditionalCovariance(
            f"Cov(X|U) + Sigma_N has near-zero eigenvalue {w.min():.3e}")
    return np.linalg.inv(m)


def _gauss_cond_entropy(pair: GaussPair, sn: np.ndarray) -> float:
    m = pair.cov_x_given_u() + sn
    d = m.shape[0]
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


def debruijn_check(obj, sigma_n, step: float = 1e-4) -> float:
    """Residual of the entropy-gradient identity grad_Sigma h(X+N|U) = J/2.

    Central differences of h along every symmetric direction are compared with
    ``tr(J D)/2``.  If the residual at the requested step is above 1e-4 but
    halving the step shrinks it, the residual is truncation-dominated and
    StepTooLarge is raised instead of returning a misleading number.
    """

    def residual(t: float) -> float:
        if isinstance(obj, GaussPair):
            sn = np.atleast_2d(np.asarray(sigma_n, dtype=float))
            J = gaussian_fisher(obj, sn)
            scale = max(1.0, float(np.trace(sn)) / sn.shape[0])
            worst = 0.0
            for D in _sym_basis(sn.shape[0]):
                hp = _gauss_cond_entropy(obj, sn + t * scale * D)
                hm = _gauss_cond_entropy(obj, sn - t * scale * D)
                fd = (hp - hm) / (2.0 * t * scale)
                worst = max(worst, abs(fd - 0.5 * float(np.trace(J @ D))))
            return worst
        if isinstance(obj, ScalarMixture):
            var = float(np.atleast_2d(np.asarray(sigma_n, dtype=float))[0, 0])
            t_abs = t * max(1.0, var)
            J = mixture_cond_fisher(obj, var)
            hp = mixture_cond_entropy(obj, var + t_abs)
            hm = mixture_cond_entropy(obj, var - t_abs)
            fd = (hp - hm) / (2.0 * t_abs)
            return abs(fd - 0.5 * J)
        raise TypeError(f"unsupported input {type(obj).__name__}")

    r1 = residual(step)
    if r1 > 1e-4:
        r2 = residual(step / 2.0)
        if r2 < 0.5 * r1:
            raise StepTooLarge(
                f"residual {r1:.3e} is truncation-dominated (halving gives {r2:.3e})")
    return r1


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


def _rand_psd(rng, d, jitter=0.1):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def random_gauss_pair(rng: np.random.Generator, d: int) -> GaussPair:
    return GaussPair(_rand_psd(rng, 2 * d), d_u=d, d_x=d)


def random_mixture(rng: np.random.Generator) -> ScalarMixture:
    n = int(rng.integers(2, 5))
    u = rng.integers(0, 2, size=n).astype(float)
    x = rng.normal(scale=1.5, size=n)
    w = rng.dirichlet(np.ones(n))
    return ScalarMixture(u, x, w)


def _min_eig(m) -> float:
    return float(np.linalg.eigvalsh(np.atleast_2d(m)).min())


def lemma_suite_check(seed: int = 0, count: int = 200,
                      include_mixtures: bool = False) -> SuiteReport:
    """Evaluate the six matrix lemmas on seeded instances of dimension 1, 2, 3 in turn.

    Reports the minimum slack (eigenvalue or scalar) per instance; every slack
    must be >= -1e-8.  Gaussian instances check the Cramer-Rao and
    noise-perturbation facts at their equality point, conditioning
    monotonicity and the inverse order strictly; optional scalar mixtures
    exercise the strict side of the equality cases by quadrature.
    """
    rng = np.random.default_rng(seed)
    rep = SuiteReport()
    for i in range(count):
        d = 1 + i % 3
        pair = random_gauss_pair(rng, d)
        s1 = _rand_psd(rng, d)
        s2 = s1 + _rand_psd(rng, d, jitter=0.05)

        # conditional Cramer-Rao: J(X+N|U) >= (Cov(X|U)+Sigma)^{-1}
        J = gaussian_fisher(pair, s1)
        crb = np.linalg.inv(pair.cov_x_given_u() + s1)
        rep.rows.append(("L6", "gauss", i, _min_eig(J - crb)))

        # noise perturbation: J^{-1}(X+N2|U)-S2 >= J^{-1}(X+N1|U)-S1
        j1 = gaussian_fisher(pair, s1)
        j2 = gaussian_fisher(pair, s2)
        gap = (np.linalg.inv(j2) - s2) - (np.linalg.inv(j1) - s1)
        rep.rows.append(("L7", "gauss", i, _min_eig(gap)))

        # conditioning monotonicity on a Gaussian chain U -> V -> X
        su = _rand_psd(rng, d)
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, d))
        wa = _rand_psd(rng, d)
        wb = _rand_psd(rng, d)
        cov_x_v = wb
        cov_x_u = b @ wa @ b.T + wb
        rep.rows.append(("L8", "gauss", i,
                         _min_eig(np.linalg.inv(cov_x_v) - np.linalg.inv(cov_x_u))))

        # segment integral of a PSD matrix field f(K) = (K+S)^{-1}
        k1m = _rand_psd(rng, d, jitter=0.0)
        k2m = k1m + _rand_psd(rng, d, jitter=0.0)
        sN = _rand_psd(rng, d)
        ts = np.linspace(0.0, 1.0, 65)
        vals = [float(np.trace(np.linalg.solve(k1m + t * (k2m - k1m) + sN, k2m - k1m)))
                for t in ts]
        rep.rows.append(("L9", "gauss", i, float(np.trapezoid(vals, ts))))

        # entropy lower bound h >= log|2 pi e J^{-1}|/2 (equality when Gaussian)
        cxu = pair.cov_x_given_u() + s1
        h = 0.5 * (d * math.log(TWO_PI_E) + logdet(cxu))
        bound = 0.5 * (d * math.log(TWO_PI_E) + logdet(np.linalg.inv(gaussian_fisher(pair, s1))))
        rep.rows.append(("L11", "gauss", i, h - bound))

        # inverse reverses the semidefinite order
        A = _rand_psd(rng, d)
        B = A + _rand_psd(rng, d, jitter=0.0)
        rep.rows.append(("L12", "gauss", i, _min_eig(np.linalg.inv(A) - np.linalg.inv(B))))

        if include_mixtures and i % 10 == 0:
            mix = random_mixture(rng)
            var1 = 0.5 + rng.uniform(0.0, 1.0)
            var2 = var1 + rng.uniform(0.1, 1.0)
            jm1 = mixture_cond_fisher(mix, var1)
            jm2 = mixture_cond_fisher(mix, var2)
            v1 = _cond_var(mix) + var1
            rep.rows.append(("L6", "mixture", i, jm1 - 1.0 / v1))
            rep.rows.append(("L7", "mixture", i, (1.0 / jm2 - var2) - (1.0 / jm1 - var1)))
            hm = mixture_cond_entropy(mix, var1)
            rep.rows.append(("L11", "mixture", i, hm - 0.5 * math.log(TWO_PI_E / jm1)))
    return rep


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
    and ``f(t) = log((K+sigmaZ^2)/(K+sigma2^2))/2``.  Continuity gives a root
    in [0, 1], found by bisection to 1e-10; the returned K satisfies the
    sandwich ``J^{-1}(X+N2|U) - sigma2^2 <= K <= E[X^2]`` (``Cov(X)`` for a
    Gaussian pair) within 1e-8.
    """
    if sigma2_sq > sigmaz_sq:
        raise NoRoot("interpolation requires the degraded order sigma2^2 <= sigmaZ^2")
    if isinstance(obj, GaussPair):
        cxu = float(obj.cov_x_given_u()[0, 0])
        j2, jz = 1.0 / (cxu + sigma2_sq), 1.0 / (cxu + sigmaz_sq)
        g = 0.5 * math.log((cxu + sigmaz_sq) / (cxu + sigma2_sq))
        cap = float(obj.cov_x()[0, 0])
    elif isinstance(obj, ScalarMixture):
        j2 = mixture_cond_fisher(obj, sigma2_sq)
        jz = mixture_cond_fisher(obj, sigmaz_sq)
        g = mixture_cond_entropy(obj, sigmaz_sq) - mixture_cond_entropy(obj, sigma2_sq)
        cap = obj.second_moment()
    else:
        raise TypeError(f"unsupported input {type(obj).__name__}")

    k_z = 1.0 / jz - sigmaz_sq   # t = 0 endpoint
    k_2 = 1.0 / j2 - sigma2_sq   # t = 1 endpoint

    def k_of(t):
        return (1.0 - t) * k_z + t * k_2

    def f(t):
        k = k_of(t)
        return 0.5 * math.log((k + sigmaz_sq) / (k + sigma2_sq))

    f0, f1 = f(0.0) - g, f(1.0) - g
    if abs(f0) <= 1e-12:
        t_star = 0.0
    elif abs(f1) <= 1e-12:
        t_star = 1.0
    elif f0 * f1 > 0:
        raise NoRoot(f"no sign change on [0,1]: f(0)-g={f0:.3e}, f(1)-g={f1:.3e}")
    else:
        lo, hi = 0.0, 1.0
        flo = f0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            fm = f(mid) - g
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        t_star = 0.5 * (lo + hi)
    k_star = k_of(t_star)
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
    s1 = float(ch.Sigma1[0, 0])
    s2 = float(ch.Sigma2[0, 0])
    sz = float(ch.SigmaZ[0, 0])
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


def sufficiency_evidence_scalar(mix: ScalarMixture, ch: GaussChannel,
                                gauss_points: np.ndarray,
                                slack_tol: float = 1e-3) -> DominanceReport:
    """Check that the mixture's five-bound polytope lies inside the Gaussian
    allocation envelope (point cloud from a covariance sweep), within a slack.

    Rate regions are downward closed, so a vertex is covered when some convex
    combination of envelope points dominates it componentwise.  The slack is
    monotone in the vertex, so only the vertices on the polytope's Pareto
    front are checked.  Passing ``pareto_front(gauss_points)`` instead of the
    whole cloud gives the same slacks from smaller LPs.
    """
    if mix.second_moment() > float(ch.S[0, 0]) + 1e-9:
        raise ValidationError("mixture second moment exceeds the input cap")
    if not np.asarray(gauss_points).size:
        raise ValidationError("empty Gaussian envelope")
    bounds = five_bound_system(**mixture_region_constants(mix, ch))
    negative = [q for q in bounds.ineqs if q.rhs < 0.0]
    for q in negative:
        if q.rhs < -CLAMP_TOL:
            raise QuadratureNonConvergent(
                f"bound {q.label} = {q.rhs:.3e} is below -{CLAMP_TOL:g}")
    vp = vertices(bounds.with_ineqs([replace(q, rhs=max(q.rhs, 0.0)) for q in bounds.ineqs]))
    worst = max((dominance_slack(p, gauss_points) for p in pareto_front(vp.vertices)),
                default=0.0)
    return DominanceReport(constants={q.label: q.rhs for q in bounds.ineqs},
                           clamped=[q.label for q in negative], max_slack=float(worst),
                           contained=bool(worst <= slack_tol))
