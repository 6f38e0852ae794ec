import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap_regions import fisher_lab
from wiretap_regions.errors import NoRoot, QuadratureNonConvergent, StepTooLarge, ValidationError
from wiretap_regions.fisher_lab import (
    TWO_PI_E,
    GaussPair,
    ScalarMixture,
    debruijn_check,
    gaussian_fisher,
    interpolation_t_star,
    lemma_suite_check,
    mixture_cond_entropy,
    mixture_cond_fisher,
    mixture_entropy,
    mixture_fisher,
    mixture_region_constants,
    random_gauss_pair,
    random_mixture,
    sufficiency_evidence_scalar,
)
from wiretap_regions.polytope_fm import vertices
from wiretap_regions.regions_discrete import dominance_slack, five_bound_system, pareto_front
from wiretap_regions.regions_gaussian import GaussChannel, discretize_scalar, sweep_covariances

I1 = np.eye(1)


def test_fisher_independent_pair():
    pair = GaussPair(np.diag([1.0, 2.0]), d_u=1, d_x=1)  # X ~ N(0,2) independent of U
    J = gaussian_fisher(pair, [[1.0]])
    assert J[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_fisher_deterministic_relation():
    pair = GaussPair(np.array([[1.0, 1.0], [1.0, 1.0]]), d_u=1, d_x=1)  # U = X
    J = gaussian_fisher(pair, [[0.25]])
    assert J[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_fisher_matches_block_conditional_covariance():
    rng = np.random.default_rng(30)
    for _ in range(10):
        pair = random_gauss_pair(rng, 2)
        a = rng.normal(size=(2, 2))
        sn = a @ a.T + 0.2 * np.eye(2)
        J = gaussian_fisher(pair, sn)
        oracle = np.linalg.inv(pair.cov_x_given_u() + sn)
        assert np.abs(J - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())


def test_debruijn_scalar_quarter():
    pair = GaussPair(np.diag([1.0, 1.0]), d_u=1, d_x=1)
    # h = log(2 pi e (1 + s))/2 so dh/ds = 1/4 at s = 1, matching J/2
    assert debruijn_check(pair, [[1.0]], step=1e-4) <= 1e-9


def test_debruijn_gaussian_small_dims():
    rng = np.random.default_rng(31)
    worst = 0.0
    for d in (1, 2, 3):
        for _ in range(5):
            pair = random_gauss_pair(rng, d)
            a = rng.normal(size=(d, d))
            sn = a @ a.T + 0.4 * np.eye(d)
            worst = max(worst, debruijn_check(pair, sn, step=1e-4))
    assert worst <= 1e-5


def test_debruijn_second_order_convergence():
    rng = np.random.default_rng(32)
    pair = random_gauss_pair(rng, 2)
    a = rng.normal(size=(2, 2))
    sn = a @ a.T + 0.5 * np.eye(2)
    r1 = debruijn_check(pair, sn, step=4e-3)
    r2 = debruijn_check(pair, sn, step=2e-3)
    assert 3.2 <= r1 / r2 <= 4.8


def test_debruijn_mixture():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(5):
        mix = random_mixture(rng)
        worst = max(worst, debruijn_check(mix, [[0.7 + rng.uniform(0, 1)]], step=1e-4))
    assert worst <= 1e-4


def test_debruijn_step_too_large():
    pair = GaussPair(np.diag([1.0, 1.0]), d_u=1, d_x=1)
    with pytest.raises(StepTooLarge):
        debruijn_check(pair, [[1.0]], step=0.9)


def test_quadrature_nonconvergence_detected():
    # a 31-point grid cannot resolve two narrow spikes ten units apart
    with pytest.raises(QuadratureNonConvergent):
        mixture_entropy([0.0, 10.37], [0.5, 0.5], 1e-2, n=31)


def test_mixture_entropy_gaussian_closed_form():
    h = mixture_entropy([0.0], [1.0], 1.7)
    assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 1.7), abs=1e-9)


def test_mixture_fisher_gaussian_closed_form():
    assert mixture_fisher([0.0], [1.0], 2.3) == pytest.approx(1 / 2.3, abs=1e-9)


def test_separated_components_closed_forms():
    # components 40 standard deviations apart barely overlap: h adds H(w), J is 1/var
    c, w, var = [-20.0, 0.0, 20.0], [0.2, 0.3, 0.5], 0.25
    h_w = -sum(p * math.log(p) for p in w)
    assert mixture_entropy(c, w, var) == pytest.approx(
        h_w + 0.5 * math.log(TWO_PI_E * var), abs=1e-12)
    assert mixture_fisher(c, w, var) == pytest.approx(1 / var, abs=1e-12)


def test_fisher_quadrature_checks_itself():
    # the grid cannot resolve spikes of width 0.03 two hundred units apart
    with pytest.raises(QuadratureNonConvergent):
        mixture_fisher([-200.0, 0.0, 200.0], [0.25, 0.25, 0.5], 1e-3)


def _fixed_grid_pass(centers, weights, var, n=fisher_lab.QUAD_N):
    """(h, J) of ``sum_j w_j N(c_j, var)`` by the trapezoid rule on one fixed
    ``n``-point grid over [min c - 8 sigma, max c + 8 sigma]: the ladder's
    largest grid, with the densities summed directly."""
    c, w = np.asarray(centers, dtype=float), np.asarray(weights, dtype=float)
    sigma = math.sqrt(var)
    y = np.linspace(c.min() - 8.0 * sigma, c.max() + 8.0 * sigma, n)
    d = y[None, :] - c[:, None]
    parts = w[:, None] * np.exp(-d ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    f, fprime = parts.sum(axis=0), (parts * (-d / var)).sum(axis=0)
    live = f > 0.0
    f_or_1 = np.where(live, f, 1.0)
    return (-np.trapezoid(np.where(live, f * np.log(f_or_1), 0.0), y),
            np.trapezoid(np.where(live, fprime ** 2 / f_or_1, 0.0), y))


def _rungs(monkeypatch):
    """The point counts of every grid the quadrature evaluates from now on."""
    seen, integrands = [], fisher_lab._integrands

    def spy(y, *args):
        seen.append(len(y))
        return integrands(y, *args)

    monkeypatch.setattr(fisher_lab, "_integrands", spy)
    return seen


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 2.0))
def test_grid_ladder_matches_the_largest_grid(seed, var):
    mix = random_mixture(np.random.default_rng(seed))
    got = fisher_lab._quadrature(mix.x_points, mix.weights, var, fisher_lab.QUAD_N)
    for value, ref in zip(got, _fixed_grid_pass(mix.x_points, mix.weights, var)):
        assert abs(value - ref) <= fisher_lab.QUAD_RTOL * (1.0 + abs(ref))


@pytest.mark.parametrize("centers, weights, var, rungs", [
    ([0.0], [1.0], 1.0, [251]),                           # one component: the first rung
    ([-0.5, 0.0, 6.0], [0.5, 0.25, 0.25], 1e-2, [251, 501, 1001]),   # the check climbs
    ([0.0, 30.0], [0.5, 0.5], 1e-3, [2001]),              # sigma / 2 spacing needs 2001
    ([0.0, 100.0], [0.5, 0.5], 1e-2, [4001]),             # ... or the largest grid
])
def test_grid_ladder_climbs_to_the_largest_grid_when_needed(monkeypatch, centers, weights, var,
                                                            rungs):
    seen = _rungs(monkeypatch)
    got = fisher_lab._quadrature(centers, weights, var, fisher_lab.QUAD_N)
    assert seen == rungs
    for value, ref in zip(got, _fixed_grid_pass(centers, weights, var)):
        assert abs(value - ref) <= fisher_lab.QUAD_RTOL * (1.0 + abs(ref))


def test_grid_ladder_raises_when_the_largest_grid_still_moves(monkeypatch):
    seen = _rungs(monkeypatch)
    with pytest.raises(QuadratureNonConvergent, match="at 4001 points"):
        mixture_fisher([-200.0, 0.0, 200.0], [0.25, 0.25, 0.5], 1e-3)
    assert seen[-1] == 4001


def test_quadrature_rejects_an_even_or_tiny_grid():
    # with an even count, y[::2] stops one point short of the interval's end
    for n in (4000, 2, 1, 0, -1):
        with pytest.raises(ValidationError, match="odd point count"):
            mixture_entropy([0.0], [1.0], 1.0, n=n)
    assert mixture_fisher([0.0], [1.0], 1.0, n=3001) == pytest.approx(1.0, abs=1e-9)


def test_quadrature_rejects_bad_input():
    for routine in (mixture_entropy, mixture_fisher):
        for c, w, var in [([0.0, 1.0], [1.5, -0.5], 1.0), ([0.0, 1.0], [0.5, 0.6], 1.0),
                          ([0.0, np.nan], [0.5, 0.5], 1.0), ([0.0], [0.5, 0.5], 1.0),
                          ([0.0, 1.0], [0.5, 0.5], 0.0)]:
            with pytest.raises(ValidationError):
                routine(c, w, var)
    with pytest.raises(ValidationError):
        ScalarMixture([0.0, 0.0], [0.0, 1.0], [1.5, -0.5])


def test_zero_weight_is_dropped_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for routine in (mixture_entropy, mixture_fisher):
            assert routine([-5.0, 0.0, 1.0], [0.0, 0.4, 0.6], 0.8) == \
                routine([0.0, 1.0], [0.4, 0.6], 0.8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)), min_size=1, max_size=5),
       st.floats(0.1, 3.0))
def test_mixture_within_gaussian_bounds(components, var):
    c = np.array([x for x, _ in components])
    w = np.array([p for _, p in components])
    w /= w.sum()
    total = var + float(w @ c ** 2) - float(w @ c) ** 2   # Var(X + N)
    # Cramer-Rao for X + N, and the Gaussian maximizes entropy at fixed variance
    assert mixture_fisher(c, w, var) * total >= 1.0 - 1e-9
    assert mixture_entropy(c, w, var) <= 0.5 * math.log(TWO_PI_E * total) + 1e-9


def test_lemma_suite_slacks():
    rep = lemma_suite_check(seed=2, count=60, include_mixtures=True)
    slacks = rep.min_slack()
    assert set(slacks) == {"L6", "L7", "L8", "L9", "L11", "L12"}
    assert rep.worst >= -1e-8
    # equality cases sit at zero, strict cases are positive
    gauss_rows = [(l, s) for l, k, _, s in rep.rows if k == "gauss" for l in [l]]
    l12 = [s for l, s in gauss_rows if l == "L12"]
    assert min(l12) > 0.0


def test_lemma6_fails_on_a_wrong_conditional_covariance(monkeypatch):
    # L6 compares J(X+N|U) from the joint covariance with the bound from the
    # Schur complement: halving Cov(X|U) raises the bound above J
    monkeypatch.setattr(GaussPair, "cov_x_given_u", lambda self: 0.5 * self._cxu)
    rep = lemma_suite_check(seed=2, count=9)
    l6 = [s for l, k, _, s in rep.rows if l == "L6" and k == "gauss"]
    assert max(l6) < -1e-3


def _segment_integral_loop(k1, k2, sn):
    # one solve per trapezoid node: the L9 integral before it was batched
    ts = np.linspace(0.0, 1.0, 65)
    vals = [float(np.trace(np.linalg.solve(k1 + t * (k2 - k1) + sn, k2 - k1))) for t in ts]
    return float(np.trapezoid(vals, ts))


@st.composite
def _psd_triples(draw):
    d = draw(st.integers(1, 3))
    a, b, c = (np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d)))
               .reshape(d, d) for _ in range(3))
    k1 = a @ a.T
    return k1, k1 + b @ b.T, c @ c.T + 0.1 * np.eye(d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_psd_triples())
def test_batched_segment_integral_equals_the_per_node_loop(triple):
    assert fisher_lab._segment_integral(*triple) == _segment_integral_loop(*triple)


@pytest.mark.parametrize("d_u", [0, 1, 2])
def test_gauss_pair_derives_its_conditional_covariance_once(d_u):
    rng = np.random.default_rng(40 + d_u)
    a = rng.normal(size=(d_u + 2, d_u + 2))
    pair = GaussPair(a @ a.T + 0.1 * np.eye(d_u + 2), d_u=d_u, d_x=2)
    cxu = pair.cov_x_given_u()
    assert pair.cov_x_given_u() is cxu
    with pytest.raises(ValueError):
        cxu[0, 0] = 1.0
    with pytest.raises(ValueError):
        pair.cov[0, 0] = 1.0
    c, k = pair.cov, d_u
    schur = c[k:, k:] - c[:k, k:].T @ np.linalg.pinv(c[:k, :k]) @ c[:k, k:]
    assert np.array_equal(cxu, schur)


def test_lemma12_explicit_example():
    # A = I, B = 2I: A^{-1} - B^{-1} = I/2
    rep_val = np.linalg.inv(np.eye(2)) - np.linalg.inv(2 * np.eye(2))
    assert np.allclose(rep_val, 0.5 * np.eye(2))


def test_lemma11_gaussian_equality():
    rng = np.random.default_rng(34)
    rep = lemma_suite_check(seed=4, count=9)
    l11 = [s for l, k, _, s in rep.rows if l == "L11" and k == "gauss"]
    assert max(abs(s) for s in l11) <= 1e-10


def test_lemma7_closed_form_oracle():
    # closed-form conditional covariances make the slack exactly zero for
    # Gaussian signals; quadrature mixtures give strictly positive slack
    rng = np.random.default_rng(35)
    mix = random_mixture(rng)
    v1, v2 = 0.6, 1.4
    j1 = mixture_cond_fisher(mix, v1)
    j2 = mixture_cond_fisher(mix, v2)
    assert (1 / j2 - v2) - (1 / j1 - v1) >= -1e-10


def test_conditional_h_and_j_come_from_one_pass_per_group(monkeypatch):
    rng = np.random.default_rng(37)
    for _ in range(20):
        mix = random_mixture(rng)
        var = 0.5 + rng.uniform(0.0, 1.0)
        assert fisher_lab._mixture_cond(mix, var) == (mixture_cond_entropy(mix, var),
                                                      mixture_cond_fisher(mix, var))
    passes = []
    quadrature = fisher_lab._quadrature

    def counting(*args):
        passes.append(args)
        return quadrature(*args)

    monkeypatch.setattr(fisher_lab, "_quadrature", counting)
    rep = lemma_suite_check(seed=1, count=200, include_mixtures=True)
    # each mixture row needs (h, J) at var1 and J at var2: two passes a group
    assert len(passes) == 70
    assert sum(kind == "mixture" for _, kind, _, _ in rep.rows) == 3 * 20


def test_interpolation_gaussian_constant_path():
    pair = GaussPair(np.array([[1.0, 0.5], [0.5, 1.0]]), 1, 1)
    t, k = interpolation_t_star(pair, 1.0, 2.0)
    assert t == 0.0
    assert k == pytest.approx(0.75, abs=1e-12)  # Cov(X|U) = 1 - 0.25


def test_interpolation_deterministic_u():
    pair = GaussPair(np.array([[0.0, 0.0], [0.0, 1.5]]), 1, 1)
    _, k = interpolation_t_star(pair, 1.0, 2.0)
    assert k == pytest.approx(1.5, abs=1e-10)


def test_interpolation_mixture_bracket():
    rng = np.random.default_rng(36)
    for _ in range(5):
        mix = random_mixture(rng)
        t, k = interpolation_t_star(mix, 1.0, 2.0)
        assert 0.0 <= t <= 1.0
        # oracle: dense grid sign change of f(t) - g
        j2 = mixture_cond_fisher(mix, 1.0)
        jz = mixture_cond_fisher(mix, 2.0)
        g = mixture_cond_entropy(mix, 2.0) - mixture_cond_entropy(mix, 1.0)
        kz, k2 = 1 / jz - 2.0, 1 / j2 - 1.0
        ts = np.linspace(0, 1, 201)
        vals = np.array([0.5 * math.log(((1 - t) * kz + t * k2 + 2.0)
                                        / ((1 - t) * kz + t * k2 + 1.0)) - g for t in ts])
        # a sign change, or a grazing root when the path is (near-)constant
        assert vals.min() <= 1e-10 and vals.max() >= -1e-10
        # sandwich
        assert k >= k2 - 1e-8
        assert k <= mix.second_moment() + 1e-8


def test_interpolation_rejects_reversed_order():
    pair = GaussPair(np.diag([1.0, 1.0]), 1, 1)
    with pytest.raises(NoRoot):
        interpolation_t_star(pair, 2.0, 1.0)


def scalar_channel():
    return GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=1.0 * I1, SigmaZ=2.0 * I1)


def gauss_envelope(ch, n=60):
    return sweep_covariances(ch, budget=n, seed=17).points


def test_evidence_discretized_gaussian_self_consistency():
    ch = scalar_channel()
    xs = np.linspace(-4, 4, 33)
    w = np.exp(-xs ** 2 / 2.0)
    w /= w.sum()
    scale = math.sqrt(0.999 / float((w * xs ** 2).sum()))
    mix = ScalarMixture(np.zeros(xs.size), xs * scale, w)
    rep = sufficiency_evidence_scalar([mix], ch, gauss_envelope(ch))[0]
    assert rep.max_slack <= 5e-3


def test_evidence_antipodal_dominated():
    ch = scalar_channel()
    mix = ScalarMixture([0.0, 0.0], [-1.0, 1.0], [0.5, 0.5])
    rep = sufficiency_evidence_scalar([mix], ch, gauss_envelope(ch))[0]
    assert rep.contained and rep.max_slack <= 1e-3


def brute_force_max_slack(mix, ch, env):
    """Largest dominance slack over every vertex of the clamped polytope."""
    bounds = five_bound_system(**mixture_region_constants(mix, ch))
    pts = vertices(bounds.with_ineqs([replace(q, rhs=max(q.rhs, 0.0))
                                      for q in bounds.ineqs])).vertices
    return max(dominance_slack([p], env)[0] for p in pts)


def test_evidence_random_mixtures_dominated():
    ch = scalar_channel()
    env = gauss_envelope(ch)
    front = pareto_front(env)
    assert len(front) < len(env)
    rng = np.random.default_rng(37)
    for _ in range(10):
        mix = random_mixture(rng)
        scale = min(1.0, math.sqrt(0.98 / max(mix.second_moment(), 1e-9)))
        mix = ScalarMixture(mix.u_points, mix.x_points * scale, mix.weights)
        rep = sufficiency_evidence_scalar([mix], ch, env)[0]
        assert rep.contained, rep.max_slack
        brute = brute_force_max_slack(mix, ch, env)
        assert abs(rep.max_slack - brute) <= 1e-9
        assert abs(sufficiency_evidence_scalar([mix], ch, front)[0].max_slack - brute) <= 1e-9


def test_evidence_stack_matches_lone_calls(lp_whats, monkeypatch):
    ch = scalar_channel()
    env = gauss_envelope(ch)
    rng = np.random.default_rng(41)
    mixes = []
    for _ in range(6):
        mix = random_mixture(rng)
        scale = min(1.0, math.sqrt(0.98 / max(mix.second_moment(), 1e-9)))
        mixes.append(ScalarMixture(mix.u_points, mix.x_points * scale, mix.weights))
    lone = [sufficiency_evidence_scalar([mix], ch, env)[0] for mix in mixes]
    dominance, slack = [], fisher_lab.dominance_slack
    monkeypatch.setattr(fisher_lab, "dominance_slack",
                        lambda *args: dominance.append(args) or slack(*args))
    del lp_whats[:]
    assert sufficiency_evidence_scalar(mixes, ch, env) == lone
    # one recession LP for the stacked vertices() call, one dominance LP a mixture
    assert lp_whats == ["recession"] and len(dominance) == len(mixes)
    assert sufficiency_evidence_scalar([], ch, env) == []
    over = ScalarMixture([0.0, 0.0], [-3.0, 3.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="instance 2: mixture second moment"):
        sufficiency_evidence_scalar(mixes[:2] + [over], ch, env)


def antipodal_constants_with(monkeypatch, rs2):
    """Patch the mixture constants so that the rs2 bound I(U;Y2) - I(U;Z) is ``rs2``."""
    ch = scalar_channel()
    mix = ScalarMixture([0.0, 0.0], [-1.0, 1.0], [0.5, 0.5])
    consts = mixture_region_constants(mix, ch)
    consts["iuz"] = consts["iuy2"] - rs2
    monkeypatch.setattr(fisher_lab, "mixture_region_constants", lambda m, c: dict(consts))
    return mix, ch


def test_evidence_clamps_and_records_a_tiny_negative_bound(monkeypatch):
    mix, ch = antipodal_constants_with(monkeypatch, -5e-7)
    rep = sufficiency_evidence_scalar([mix], ch, gauss_envelope(ch))[0]
    assert rep.clamped == ["rs2"]
    assert rep.constants["rs2"] == pytest.approx(-5e-7, rel=1e-6)
    assert rep.contained


def test_evidence_rejects_a_bound_below_the_clamp_tolerance(monkeypatch):
    mix, ch = antipodal_constants_with(monkeypatch, -2e-6)
    with pytest.raises(QuadratureNonConvergent, match="rs2"):
        sufficiency_evidence_scalar([mix], ch, gauss_envelope(ch))[0]


def test_evidence_rejects_over_cap():
    ch = scalar_channel()
    mix = ScalarMixture([0.0, 0.0], [-3.0, 3.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        sufficiency_evidence_scalar([mix], ch, gauss_envelope(ch, n=5))[0]


ANTIPODAL = ScalarMixture([0.0, 0.0], [-1.0, 1.0], [0.5, 0.5])
CHANNEL_2X2 = GaussChannel(S=2 * np.eye(2), Sigma1=0.5 * np.eye(2), Sigma2=np.eye(2),
                           SigmaZ=2 * np.eye(2))


@pytest.mark.parametrize("call", [
    lambda: interpolation_t_star(GaussPair(np.eye(4), d_u=2, d_x=2), 1.0, 2.0),
    lambda: interpolation_t_star(GaussPair(np.stack([np.eye(2)] * 3), d_u=1, d_x=1), 1.0, 2.0),
    lambda: debruijn_check(ANTIPODAL, np.eye(2)),
    lambda: mixture_region_constants(ANTIPODAL, CHANNEL_2X2),
    lambda: sufficiency_evidence_scalar([ANTIPODAL], CHANNEL_2X2, np.ones((1, 4)))[0],
    lambda: discretize_scalar(CHANNEL_2X2, 0.5),
], ids=["interpolation-2x2", "interpolation-stack", "debruijn-mixture-2x2",
        "region-constants-2x2", "evidence-2x2", "discretize-2x2"])
def test_scalar_only_entry_points_refuse_other_shapes(call):
    with pytest.raises(ValidationError, match="must be a 1x1 matrix"):
        call()
