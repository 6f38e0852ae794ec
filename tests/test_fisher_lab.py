import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiretap_regions import cli, fisher_lab
from wiretap_regions.errors import (
    DimensionMismatch,
    NoRoot,
    QuadratureNonConvergent,
    SingularConditionalCovariance,
    SingularMatrix,
    StepTooLarge,
    ValidationError,
    numbered,
    raise_for_first,
)
from wiretap_regions.fisher_lab import (
    TWO_PI_E,
    GaussPair,
    ScalarMixture,
    debruijn_check,
    gaussian_fisher,
    interpolation_t_star,
    lemma_suite_check,
    mixture_entropy,
    mixture_fisher,
    mixture_region_constants,
    random_gauss_pair,
    random_mixture,
    sufficiency_evidence_scalar,
)
from wiretap_regions.polytope_fm import SystemStack, vertices
from wiretap_regions.regions_discrete import dominance_slack, pareto_front
from wiretap_regions.regions_gaussian import (GaussChannel, discretize_scalar, logdet,
                                              sweep_covariances)

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
        [r] = debruijn_check([mix], [[[0.7 + rng.uniform(0, 1)]]], step=1e-4)
        worst = max(worst, r)
    assert worst <= 1e-4


def test_noise_of_another_shape_than_x_is_refused():
    # d_x = 2: a scalar or 1 x 1 noise broadcast as 0.5 11', and a 3 x 3
    # noise did not broadcast at all
    pair = fisher_lab.gauss_pair_of(np.random.default_rng(3).normal(size=(4, 4)))
    want = [[0.328876, 0.121555], [0.121555, 1.300066]]
    assert np.abs(gaussian_fisher(pair, 0.5 * np.eye(2)) - want).max() <= 1e-6
    assert np.abs(fisher_lab._joint_fisher(pair, 0.5 * np.eye(2)) - want).max() <= 1e-6
    for fn in (gaussian_fisher, fisher_lab._joint_fisher, debruijn_check):
        for noise in (0.5, [[0.5]], 0.5 * np.eye(3)):
            with pytest.raises(DimensionMismatch, match="^noise covariance of shape"):
                fn(pair, noise)


def test_debruijn_step_too_large():
    pair = GaussPair(np.diag([1.0, 1.0]), d_u=1, d_x=1)
    with pytest.raises(StepTooLarge):
        debruijn_check(pair, [[1.0]], step=0.9)


_PAIR = np.array([[1.0, 0.6, 0.2], [0.6, 1.5, -0.3], [0.2, -0.3, 0.8]])   # (U, X1, X2)


@pytest.mark.parametrize("c", [1e-14, 1e-20, 1.0])
def test_gaussian_fisher_scales_as_the_inverse_of_the_pair(c):
    # the singularity floor is relative, so a well-conditioned pair at any
    # scale is taken and J(c pair, c noise) = J(pair, noise) / c
    noise = np.array([[0.3, 0.1], [0.1, 0.4]])
    want = gaussian_fisher(GaussPair(_PAIR, d_u=1, d_x=2), noise)
    got = gaussian_fisher(GaussPair(c * _PAIR, d_u=1, d_x=2), c * noise) * c
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("c", [1e-14, 1e-20, 1.0])
def test_gaussian_fisher_refuses_an_eigenvalue_ratio_of_1e_16(c):
    pair = GaussPair(c * np.diag([1.0, 1.0, 1e-16]), d_u=1, d_x=2)
    with pytest.raises(SingularConditionalCovariance, match="near-zero eigenvalue"):
        gaussian_fisher(pair, np.zeros((2, 2)))


def test_debruijn_step_out_of_the_cone_raises_step_too_large():
    # Cov(X|U) + Sigma_N = 1.3 for instance 1 and 101 for the others: step
    # 2 moves only instance 1 below zero, before any residual is read
    covs = np.stack([np.diag([1.0, 100.0 if j != 1 else 0.3]) for j in range(3)])
    with pytest.raises(StepTooLarge, match="^instance 1: step 2 moves Cov\\(X\\|U\\) \\+ "
                                           "Sigma_N out of the positive-definite cone$"):
        debruijn_check(GaussPair(covs, d_u=1, d_x=1), [[1.0]], step=2.0)
    # a pair and noise at scale 1e-6: the default step moves 1e-4
    small = GaussPair(1e-6 * _PAIR, d_u=1, d_x=2)
    with pytest.raises(StepTooLarge, match="^step 0.0001 moves Cov"):
        debruijn_check(small, 1e-6 * np.eye(2))
    mix = ScalarMixture([0.0, 0.0, 1.0], [-1.0, 1.0, 0.5], [0.25, 0.25, 0.5])
    with pytest.raises(StepTooLarge,
                       match="^instance 0: step 0.9 moves the noise variance 0.5 out of"):
        debruijn_check([mix], [[[0.5]]], step=0.9)
    assert debruijn_check([mix], [[[0.5]]], step=1e-4) <= 1e-4


def test_debruijn_command_names_the_step_and_the_instance(capsys):
    assert cli.main(["fisher", "debruijn", "--budget", "1", "--dim", "1", "--step", "0.7",
                     "--seed", "3"]) == 1
    assert capsys.readouterr().err == ("violated invariant: instance 0: step 0.7 moves "
                                       "Cov(X|U) + Sigma_N out of the positive-definite cone\n")


def _per_direction_residual(pair, sn, t):
    """The Gaussian residual as the per-direction loop computed it: one
    logdet stack per direction and sign."""
    sn = np.atleast_2d(np.asarray(sn, dtype=float))
    cxu, J = pair.cov_x_given_u(), gaussian_fisher(pair, sn)
    d = sn.shape[-1]
    scale = np.maximum(1.0, np.trace(sn, axis1=-2, axis2=-1) / d)
    worst = np.zeros(J.shape[:-2])
    for D in fisher_lab._sym_basis(d):
        move = (t * scale)[..., None, None] * D
        hp, hm = (fisher_lab._gauss_cond_entropy(cxu, sn + s * move) for s in (1, -1))
        gap = np.abs((hp - hm) / (2.0 * t * scale) - 0.5 * np.trace(J @ D, axis1=-2, axis2=-1))
        worst = np.where(gap > worst, gap, worst)
    return worst


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_directions_give_the_residual_of_the_per_direction_loop(d):
    rng = np.random.default_rng(40 + d)
    joint = rng.normal(size=(6, 2 * d, 2 * d))
    a = rng.normal(size=(6, d, d))
    sn = a @ a.mT + 0.3 * np.eye(d)
    stack = fisher_lab.gauss_pair_of(joint)
    for pair, noise in ((stack, sn), (stack, sn[0]), (fisher_lab.gauss_pair_of(joint[2]), sn[2])):
        for t in (1e-4, 1e-3):
            got = np.asarray(debruijn_check(pair, noise, step=t))
            assert got.tobytes() == _per_direction_residual(pair, noise, t).tobytes()


def test_a_mixture_takes_one_fisher_pass_when_the_step_is_halved(monkeypatch):
    mix = ScalarMixture([0.0, 0.0, 1.0], [-1.0, 1.0, 0.5], [0.25, 0.25, 0.5])
    passes, fisher = [], fisher_lab.mixture_fisher

    def counting(groups, var):
        passes.append(sum(len(gs) for gs in groups))
        return fisher(groups, var)

    monkeypatch.setattr(fisher_lab, "mixture_fisher", counting)
    # the residual at step 0.3 is truncation-dominated: the halved step runs
    with pytest.raises(StepTooLarge, match="truncation-dominated"):
        debruijn_check([mix], [[[1.0]]], step=0.3)
    assert passes == [2]   # one pass, its two groups at the unmoved variance


def _tasks(centers, weights):
    """Raw (centers, weights) tasks as a stack of entries of one group of p 1:
    multiplying by 1.0 and adding into zeros is exact, so each entry gets
    its task's own (h, J)."""
    return [((1.0, np.asarray(c, dtype=float).ravel(), np.asarray(w, dtype=float).ravel()),)
            for c, w in zip(centers, weights)]


def test_quadrature_nonconvergence_detected():
    # a 31-point grid cannot resolve two narrow spikes ten units apart
    with pytest.raises(QuadratureNonConvergent):
        mixture_entropy(_tasks([[0.0, 10.37]], [[0.5, 0.5]]), [1e-2], n=31)


def test_mixture_entropy_gaussian_closed_form():
    [h] = mixture_entropy(_tasks([[0.0]], [[1.0]]), [1.7])
    assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 1.7), abs=1e-9)


def test_mixture_fisher_gaussian_closed_form():
    assert mixture_fisher(_tasks([[0.0]], [[1.0]]), [2.3])[0] == pytest.approx(1 / 2.3, abs=1e-9)


def test_separated_components_closed_forms():
    # components 40 standard deviations apart barely overlap: h adds H(w), J is 1/var
    c, w, var = [-20.0, 0.0, 20.0], [0.2, 0.3, 0.5], 0.25
    h_w = -sum(p * math.log(p) for p in w)
    assert mixture_entropy(_tasks([c], [w]), [var])[0] == pytest.approx(
        h_w + 0.5 * math.log(TWO_PI_E * var), abs=1e-12)
    assert mixture_fisher(_tasks([c], [w]), [var])[0] == pytest.approx(1 / var, abs=1e-12)


def test_fisher_quadrature_checks_itself():
    # the grid cannot resolve spikes of width 0.03 two hundred units apart
    with pytest.raises(QuadratureNonConvergent):
        mixture_fisher(_tasks([[-200.0, 0.0, 200.0]], [[0.25, 0.25, 0.5]]), [1e-3])


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
    """The point counts of every grid the quadrature evaluates from now on, in
    order, for each task, keyed by its (variance, first center)."""
    seen, integrands = {}, fisher_lab._stack_integrands

    def spy(y, centers, logw, var):
        for task in zip(var.tolist(), centers[:, 0].tolist()):
            seen.setdefault(task, []).append(y.shape[-1])
        return integrands(y, centers, logw, var)

    monkeypatch.setattr(fisher_lab, "_stack_integrands", spy)
    return seen


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 2.0))
def test_grid_ladder_matches_the_largest_grid(seed, var):
    mix = random_mixture(np.random.default_rng(seed))
    [got] = fisher_lab._stack_quadrature(_tasks([mix.x_points], [mix.weights]), [var],
                                         fisher_lab.QUAD_N)
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
    [got] = fisher_lab._stack_quadrature(_tasks([centers], [weights]), [var], fisher_lab.QUAD_N)
    assert seen == {(var, centers[0]): rungs}
    for value, ref in zip(got, _fixed_grid_pass(centers, weights, var)):
        assert abs(value - ref) <= fisher_lab.QUAD_RTOL * (1.0 + abs(ref))


def test_grid_ladder_raises_when_the_largest_grid_still_moves(monkeypatch):
    seen = _rungs(monkeypatch)
    with pytest.raises(QuadratureNonConvergent, match="at 4001 points"):
        mixture_fisher(_tasks([[-200.0, 0.0, 200.0]], [[0.25, 0.25, 0.5]]), [1e-3])
    assert seen[(1e-3, -200.0)][-1] == 4001


def _lone_pass(centers, weights, var, n=fisher_lab.QUAD_N):
    """(h, J) of one task and the rungs it visits, by the one-task pass the
    stacked quadrature replaced: its rule, its arithmetic, its bits."""
    c, w = np.asarray(centers, dtype=float), np.asarray(weights, dtype=float)
    c, w = c[w > 0.0], w[w > 0.0]
    sigma = math.sqrt(var)
    lo, hi = c.min() - 8.0 * sigma, c.max() + 8.0 * sigma
    m, rungs = n, []
    while m % 4 == 1 and (hi - lo) / ((m - 1) // 2) <= 0.5 * sigma:
        m = (m - 1) // 2 + 1
    while True:
        rungs.append(m)
        y = np.linspace(lo, hi, m)
        d = y[None, :] - c[:, None]
        z = -d ** 2 / (2.0 * var)
        z += np.log(w)[:, None] - 0.5 * np.log(2.0 * math.pi * var)
        zmax = z.max(axis=0)
        expz = np.exp(z - zmax)
        total = expz.sum(axis=0)
        logf = zmax + np.log(total)
        scale = np.exp(zmax)
        f = total * scale
        fprime = (expz * (-d / var)).sum(axis=0) * scale
        mask = f > 1e-300
        terms = np.stack([-np.exp(logf) * logf,
                          np.where(mask, fprime ** 2 / np.where(mask, f, 1.0), 0.0)])
        full = np.trapezoid(terms, y, axis=1)
        moved = np.abs(full - np.trapezoid(terms[:, ::2], y[::2], axis=1))
        if (moved[0] <= fisher_lab.QUAD_RTOL * (1.0 + abs(full[0] - 0.5 * math.log(var)))
                and moved[1] * var <= fisher_lab.QUAD_RTOL * (1.0 + full[1] * var)):
            return (float(full[0]), float(full[1])), rungs
        if m == n:
            raise QuadratureNonConvergent("still moving")
        m = 2 * m - 1


# the ladder cases above: first rung, a climb, and two higher first rungs
_LADDER = [([0.0], [1.0], 1.0), ([-0.5, 0.0, 6.0], [0.5, 0.25, 0.25], 1e-2),
           ([0.0, 30.0], [0.5, 0.5], 1e-3), ([0.0, 100.0], [0.5, 0.5], 1e-2)]


@st.composite
def _quadrature_tasks(draw):
    """One (centers, weights, var) task: 1 to 4 components, maybe one of zero
    weight, and a noise variance from 1e-3 to 10."""
    k = draw(st.integers(1, 4))
    centers = draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        raw[draw(st.integers(0, k - 1))] = 0.0
    return centers, np.array(raw) / sum(raw), 10.0 ** draw(st.floats(-3.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_quadrature_tasks(), min_size=1, max_size=6))
@example(_LADDER + _LADDER[::-1])
def test_a_stack_gives_each_task_the_bits_of_its_lone_pass(tasks):
    centers, weights, var = zip(*tasks)
    got = fisher_lab._stack_quadrature(_tasks(centers, weights), np.array(var), fisher_lab.QUAD_N)
    assert [tuple(row) for row in got.tolist()] == [_lone_pass(*task)[0] for task in tasks]


def test_a_stack_walks_each_task_up_its_own_ladder(monkeypatch):
    seen = _rungs(monkeypatch)
    centers, weights, var = zip(*_LADDER)
    fisher_lab._stack_quadrature(_tasks(centers, weights), np.array(var), fisher_lab.QUAD_N)
    assert seen == {(v, c[0]): _lone_pass(c, w, v)[1] for c, w, v in _LADDER}
    assert list(seen.values()) == [[251], [251, 501, 1001], [2001], [4001]]


def test_a_lone_component_is_padded_with_no_mass(monkeypatch):
    # a one-component task shares the two-component group; its pad must add
    # exact zeros, so its log-weight is -inf, not merely very small
    rows, integrands = [], fisher_lab._stack_integrands

    def spy(y, centers, logw, var):
        rows.append(logw.copy())
        return integrands(y, centers, logw, var)

    monkeypatch.setattr(fisher_lab, "_stack_integrands", spy)
    tasks = [([0.5], [1.0], 1.0), ([0.0, 1.0], [0.25, 0.75], 1.0),
             ([-2.0, 0.0, 3.0], [0.0, 0.5, 0.5], 0.5)]
    centers, weights, var = zip(*tasks)
    got = fisher_lab._stack_quadrature(_tasks(centers, weights), np.array(var), fisher_lab.QUAD_N)
    assert [tuple(row) for row in got.tolist()] == [_lone_pass(*task)[0] for task in tasks]
    [pair] = rows
    assert pair[0].tolist() == [0.0, -np.inf]
    assert np.isfinite(pair[1:]).all() and np.exp(pair).sum(axis=1) == pytest.approx(1.0)


def _scaled_tasks(c):
    """300 tasks, 1 to 4 components on [-6, 6] with flat Dirichlet weights
    and noise variance 10^U(-3, 1), their centers scaled by sqrt(c) and their
    variances by c."""
    rng = np.random.default_rng(91)
    tasks = []
    for _ in range(300):
        k = int(rng.integers(1, 5))
        centers, weights = rng.uniform(-6.0, 6.0, k), rng.dirichlet(np.ones(k))
        tasks.append((centers * math.sqrt(c), weights, 10.0 ** rng.uniform(-3.0, 1.0) * c))
    return tasks


def test_each_task_stops_on_the_same_rung_at_every_scale(monkeypatch):
    # h - log(sigma) and J var do not move when the centers and sigma are
    # scaled together, so neither may the rung a task stops on; an absolute
    # test would move 33 of these tasks at c = 1e10
    seen = _rungs(monkeypatch)
    stops = {}
    for c in (1e-10, 1.0, 1e10):
        seen.clear()
        centers, weights, var = zip(*_scaled_tasks(c))
        fisher_lab._stack_quadrature(_tasks(centers, weights), np.array(var), fisher_lab.QUAD_N)
        stops[c] = [seen[(v, ct[0])][-1] for ct, v in zip(centers, var)]
    assert stops[1e-10] == stops[1.0] == stops[1e10]
    assert len(set(stops[1.0])) >= 3   # the tasks climb the ladder, not all stay on one rung


def test_a_stack_names_the_first_task_that_does_not_converge():
    spikes = ([-200.0, 0.0, 200.0], [0.25, 0.25, 0.5], 1e-3)
    tasks = [_LADDER[0], _LADDER[1], spikes, _LADDER[2], spikes]
    centers, weights, var = zip(*tasks)
    entries = _tasks(centers, weights)
    with pytest.raises(QuadratureNonConvergent) as e:
        mixture_fisher(entries, np.array(var))
    assert e.value.instance == (2,)
    assert str(e.value).startswith("instance 2: quadrature of (h, J) moved by (")
    assert str(e.value).endswith(") under refinement at 4001 points")
    # numbered maps an entry to the caller's instance; an instance () names none
    with pytest.raises(QuadratureNonConvergent, match="^quadrature of"):
        with numbered([()]):
            mixture_fisher(_tasks(*([part] for part in spikes[:2])), [spikes[2]])
    with pytest.raises(QuadratureNonConvergent, match="^instance 7: quadrature of"):
        with numbered([(9,), (9,), (7,), (8,), (6,)]):
            mixture_entropy(entries, np.array(var))
    # the first entry to break the first check that fails
    zero_var = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValidationError, match="^instance 3: noise variance must be positive"):
        mixture_entropy(entries, zero_var)
    with pytest.raises(DimensionMismatch, match="^5 mixtures and 4 noise variances"):
        mixture_entropy(entries, zero_var[:4])


def test_a_large_stack_stays_within_the_block_cap():
    rng = np.random.default_rng(3)
    size = 5000
    centers = [rng.normal(scale=1.5, size=4) for _ in range(size)]
    weights = [rng.dirichlet(np.ones(4)) for _ in range(size)]
    var = rng.uniform(0.5, 1.5, size=size)
    entries = _tasks(centers, weights)
    tracemalloc.start()
    try:
        got = fisher_lab._stack_quadrature(entries, var, fisher_lab.QUAD_N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (size, 2)
    # at most eight arrays of a block's cells, and a few floats of bookkeeping
    # a task; one pass over all 5,020,000 cells would take about 200 MB
    assert peak <= 8 * 8 * fisher_lab.QUAD_BLOCK_CELLS + 1024 * size
    assert size * 4 * 251 > 16 * fisher_lab.QUAD_BLOCK_CELLS


def _counting_passes(monkeypatch):
    """The group count of every stacked quadrature call from now on."""
    calls, quadrature = [], fisher_lab._stack_quadrature

    def counting(groups, var, n):
        calls.append(sum(len(gs) for gs in groups))
        return quadrature(groups, var, n)

    monkeypatch.setattr(fisher_lab, "_stack_quadrature", counting)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_fisher_command_takes_its_mixtures_in_at_most_two_passes(monkeypatch, tmp_path,
                                                                      seed):
    # the benchmark's op shapes: every mixture of a command in one stacked
    # pass per quantity, never one pass per mixture
    channel = tmp_path / "g1.txt"
    channel.write_text("kind: gauss\nS:\n2\nSigma1:\n0.5\nSigma2:\n1\nSigmaZ:\n1.5\n")
    out = str(tmp_path / "out.csv")
    calls = _counting_passes(monkeypatch)
    for argv, most in ((["lemmas", "--budget", "200", "--mixtures"], 2),
                       (["debruijn", "--budget", "100"], 2),
                       (["evidence", "--budget", "10", "--channel", str(channel)], 1)):
        del calls[:]
        assert cli.main(["fisher", *argv, "--seed", str(seed), "--out", out]) == 0
        assert 1 <= len(calls) <= most and sum(calls) > 10 * len(calls), (argv, calls)
    assert len(calls) == 1


def test_a_mixture_derives_its_groups_once():
    mix = ScalarMixture([1.0, 0.0, 1.0, 2.0], [0.5, -1.0, 2.0, 3.0], [0.25, 0.25, 0.5, 0.0])
    groups = mix.groups()
    assert mix.groups() is groups
    # the per-u groups as derived on every call before: u = 2 has no mass
    assert [(pu, c.tolist(), w.tolist()) for pu, c, w in groups] == [
        (0.25, [-1.0], [1.0]), (0.75, [0.5, 2.0], [0.25 / 0.75, 0.5 / 0.75])]
    for _, c, w in groups:
        for a in (c, w):
            with pytest.raises(ValueError):
                a[0] = 1.0
    # the rows are the mixture's own: a caller writing to its arrays moves
    # neither them nor the groups
    x, w = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    held = ScalarMixture(np.zeros(2), x, w)
    x[0], w[:] = 5.0, [1.0, 0.0]
    assert held.x_points.tolist() == [0.0, 1.0] and held.weights.tolist() == [0.5, 0.5]
    assert held.groups()[0][1].tolist() == [0.0, 1.0]
    # repr reads the rows alone, as before; equality is identity (see below)
    assert [f.name for f in fields(ScalarMixture) if f.repr] == ["u_points", "x_points",
                                                                 "weights"]
    assert repr(mix) == ("ScalarMixture(u_points=array([1., 0., 1., 2.]), x_points=array("
                         "[ 0.5, -1. ,  2. ,  3. ]), weights=array([0.25, 0.25, 0.5 , 0.  ]))")


def test_mixtures_and_pairs_compare_and_hash_by_identity():
    # field-wise == would compare ndarrays, which have no truth value
    a, b = (ScalarMixture([0.0, 1.0], [0.0, 1.0], [0.5, 0.5]) for _ in range(2))
    p, q = (GaussPair(np.eye(2), d_u=1, d_x=1) for _ in range(2))
    assert a == a and a != b and p == p and p != q and a != p
    assert hash(a) == hash(a) and hash(p) == hash(p)
    assert len({a, b, p, q, a, p}) == 4 and b in [a, b] and q not in [a, p]


def _cond(route, mix, var):
    """``route`` (mixture_entropy, mixture_fisher or the (h, J) quadrature)
    of X + N given U for one mixture, as a stack of one: a float or a list."""
    return route([mix.groups()], [var], fisher_lab.QUAD_N)[0].tolist()


def test_interpolation_takes_both_variances_in_one_pass(monkeypatch):
    rng = np.random.default_rng(36)
    mixes = [random_mixture(rng) for _ in range(5)]
    # the values of two lone passes, one per variance
    lone = []
    for mix in mixes:
        (h2, j2), (hz, jz) = (_cond(fisher_lab._stack_quadrature, mix, v) for v in (1.0, 2.0))
        lone.append((h2, j2, hz, jz))
    seen, quadrature = [], fisher_lab._stack_quadrature

    def spy(*args):
        out = quadrature(*args)
        seen.append(tuple(out.ravel().tolist()))
        return out

    monkeypatch.setattr(fisher_lab, "_stack_quadrature", spy)
    for mix in mixes:
        interpolation_t_star(mix, 1.0, 2.0)
    assert seen == lone   # one pass a mixture, both variances in it


def test_mixture_stacks_equal_their_parts():
    ch = scalar_channel()
    rng = np.random.default_rng(44)
    mixes = [random_mixture(rng) for _ in range(6)]
    mixes = [ScalarMixture(m.u_points, m.x_points * min(1.0, math.sqrt(0.98 / m.second_moment())),
                           m.weights) for m in mixes]
    assert mixture_region_constants(mixes, ch).rhs.tolist() == [
        mixture_region_constants([m], ch).rhs[0].tolist() for m in mixes]
    var = rng.uniform(0.5, 1.5, size=len(mixes))
    stacked = debruijn_check(mixes, var.reshape(-1, 1, 1))
    assert stacked.tolist() == [debruijn_check([m], [[[v]]])[0] for m, v in zip(mixes, var)]
    # a stacked check names the instance that breaks it
    with pytest.raises(StepTooLarge, match="^instance 2: step 0.5 moves the noise variance 0.4 "):
        debruijn_check(mixes[:4], np.array([1.0, 1.0, 0.4, 0.3]).reshape(-1, 1, 1), step=0.5)
    with pytest.raises(ValidationError, match="stack of 3 1x1 matrices, got shape \\(3,\\)"):
        debruijn_check(mixes[:3], var[:3])


def test_quadrature_rejects_an_even_or_tiny_grid():
    # with an even count, y[::2] stops one point short of the interval's end
    for n in (4000, 2, 1, 0, -1):
        with pytest.raises(ValidationError, match="odd point count"):
            mixture_entropy(_tasks([[0.0]], [[1.0]]), [1.0], n=n)
    assert mixture_fisher(_tasks([[0.0]], [[1.0]]), [1.0], n=3001)[0] == pytest.approx(1.0,
                                                                                        abs=1e-9)


def test_a_mixture_and_the_quadrature_reject_bad_input():
    # the mixture checks its rows once; the quadrature checks the noise
    for c, w in [([0.0, 1.0], [1.5, -0.5]), ([0.0, 1.0], [0.5, 0.6]),
                 ([0.0, np.nan], [0.5, 0.5]), ([0.0], [0.5, 0.5])]:
        with pytest.raises(ValidationError):
            ScalarMixture(np.zeros(len(c)), c, w)
    groups = [ScalarMixture([0.0, 0.0], [0.0, 1.0], [0.5, 0.5]).groups()]
    for routine in (mixture_entropy, mixture_fisher):
        with pytest.raises(ValidationError, match="^noise variance must be positive, got 0.0$"):
            with numbered([()]):
                routine(groups, [0.0])


def test_a_mixture_refuses_a_non_finite_u_point():
    # a NaN u-point equals no u value, so grouping by u value would drop its
    # mass: this mixture would keep groups of mass 0.5 and J(X + N | U) = 0.5
    for u in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="^mixture u-points must be finite$"):
            ScalarMixture([0.0, u], [0.5, -1.0], [0.5, 0.5])
    # -0.0 and 0.0 are one u value, one group
    [(pu, c, _)] = ScalarMixture([-0.0, 0.0], [0.5, -1.0], [0.5, 0.5]).groups()
    assert pu == 1.0 and c.tolist() == [0.5, -1.0]


# The mixture-row checks of the stacked validator that ScalarMixture used
# before it checked its rows alone, in the order they were made.
_TASK_CHECKS = ("mixture centers and weights must have equal nonzero size",
                "mixture centers must be finite",
                "mixture weights must be a distribution")


def _check_tasks(centers, weights):
    """The stacked mixture-task check that ScalarMixture's rows went through
    as a stack of one: ValidationError naming the first task to break a
    check, with the first check it breaks; else the flat rows."""
    c = [np.asarray(ct, dtype=float).ravel() for ct in centers]
    w = [np.asarray(wt, dtype=float).ravel() for wt in weights]
    size, w_size = np.array([a.size for a in c]), np.array([a.size for a in w])
    total = np.array([a.sum() for a in w])
    c, w = np.concatenate(c), np.concatenate(w)
    task = np.arange(size.size)
    bad = np.stack([(size != w_size) | (size == 0),
                    np.bincount(np.repeat(task, size), ~np.isfinite(c), minlength=task.size) > 0,
                    (np.bincount(np.repeat(task, w_size), ~(w >= 0.0), minlength=task.size) > 0)
                    | ~(np.abs(total - 1.0) <= 1e-12)])
    raise_for_first(bad.any(axis=0), ValidationError,
                    lambda k: _TASK_CHECKS[bad[:, k[0]].argmax()])
    return c, w


def _stacked_mixture_check(u_points, x_points, weights):
    """The rows ScalarMixture kept when its rows went through the stacked
    check, then its two u-point checks; the error it raised otherwise."""
    u = np.array(u_points, dtype=float).ravel()
    with numbered([()]):
        x, w = _check_tasks([x_points], [weights])
    if u.size != x.size:
        raise ValidationError("mixture support arrays must have equal size")
    if not np.isfinite(u).all():
        raise ValidationError("mixture u-points must be finite")
    return u, x, w


_DEFECTS = ("none", "size", "empty", "nan", "inf", "u-nan", "u-inf", "u-size", "negative",
            "nan-weight", "sum")


@st.composite
def _mixture_rows(draw):
    """(u, x, weights) rows of 1 to 20 components, with up to two planted
    defects; "sum" moves the weight sum off 1 by 0.5e-12 to 4e-12, on either
    side of the tolerance."""
    k = draw(st.integers(1, 20))
    u = draw(st.lists(st.integers(0, 3).map(float), min_size=k, max_size=k))
    x = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))) + 1e-3
    w /= w.sum()
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        j = draw(st.integers(0, len(x) - 1)) if len(x) else 0
        if defect == "size":
            w = w[:-1] if len(w) > 1 else np.append(w, 0.0)
        elif defect == "empty":
            x, w = [], w[:0]
        elif defect in ("nan", "inf") and x:
            x[j] = float(defect)
        elif defect in ("u-nan", "u-inf") and j < len(u):
            u[j] = float(defect[2:])
        elif defect == "u-size":
            u = u[:-1]
        elif defect == "negative" and j < len(w):
            w[j] = -w[j]
        elif defect == "nan-weight" and j < len(w):
            w[j] = np.nan
        elif defect == "sum" and j < len(w):
            w[j] += draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.5e-12, 4e-12))
    return u, x, w


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mixture_rows())
def test_a_mixture_refuses_what_the_stacked_check_refused(rows):
    try:
        want = _stacked_mixture_check(*rows)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            ScalarMixture(*rows)
        assert (type(got.value), str(got.value), got.value.instance) == (type(e), str(e), ())
    else:
        mix = ScalarMixture(*rows)
        for a, b in zip((mix.u_points, mix.x_points, mix.weights), want):
            assert a.tobytes() == b.tobytes()


@st.composite
def _mixture_stacks(draw):
    """1 to 5 (entry, noise variance) pairs: an entry is a mixture's
    u-groups, or the whole mixture as one group of p 1, as the evidence
    harness takes it."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, 5))
        u = draw(st.lists(st.integers(0, 2).map(float), min_size=k, max_size=k))
        x = draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        if k > 1 and draw(st.booleans()):
            w[draw(st.integers(0, k - 1))] = 0.0
        mix = ScalarMixture(u, x, w / w.sum())
        whole = draw(st.booleans())
        out.append(((((1.0, mix.x_points, mix.weights),) if whole else mix.groups()),
                    10.0 ** draw(st.floats(-2.0, 1.0))))
    return out


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_mixture_stacks())
def test_an_entry_is_the_p_weighted_sum_of_its_groups_lone_passes(stack):
    groups, var = zip(*stack)
    got = fisher_lab._stack_quadrature(groups, np.array(var), fisher_lab.QUAD_N)
    for row, gs, v in zip(got.tolist(), groups, var):
        h = j = 0.0
        for p, c, w in gs:   # in group order, from 0
            (hg, jg), _ = _lone_pass(c, w, v)
            h, j = h + p * hg, j + p * jg
        assert row == [h, j]


def test_the_first_entry_holding_a_moving_group_is_named():
    # entry 1's second group still moves at the largest grid, as does entry 2
    spikes = (1.0, np.array([-200.0, 0.0, 200.0]), np.array([0.25, 0.25, 0.5]))
    calm = (1.0, np.array([0.0]), np.array([1.0]))
    lone = ((0.5,) + calm[1:], (0.5,) + spikes[1:])
    with pytest.raises(QuadratureNonConvergent) as e:
        mixture_fisher([(calm,), lone, (spikes,)], [1e-3, 1e-3, 1e-3])
    with pytest.raises(QuadratureNonConvergent) as alone:
        mixture_fisher([(spikes,)], [1e-3])
    assert e.value.instance == (1,) and e.value.detail == alone.value.detail


def test_zero_weight_is_dropped_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for routine in (mixture_entropy, mixture_fisher):
            assert routine(_tasks([[-5.0, 0.0, 1.0]], [[0.0, 0.4, 0.6]]), [0.8])[0] == \
                routine(_tasks([[0.0, 1.0]], [[0.4, 0.6]]), [0.8])[0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)), min_size=1, max_size=5),
       st.floats(0.1, 3.0))
def test_mixture_within_gaussian_bounds(components, var):
    c = np.array([x for x, _ in components])
    w = np.array([p for _, p in components])
    w /= w.sum()
    total = var + float(w @ c ** 2) - float(w @ c) ** 2   # Var(X + N)
    # Cramer-Rao for X + N, and the Gaussian maximizes entropy at fixed variance
    assert mixture_fisher(_tasks([c], [w]), [var])[0] * total >= 1.0 - 1e-9
    assert mixture_entropy(_tasks([c], [w]), [var])[0] <= 0.5 * math.log(TWO_PI_E * total) + 1e-9


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
    # one solve per trapezoid node: the L9 integral as the lemma states it
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
    # the eigenvalue form sums the nodes' traces in another order than a solve does
    loop = _segment_integral_loop(*triple)
    assert abs(fisher_lab._segment_integral(*triple) - loop) <= 1e-12 * max(1.0, abs(loop))


def _segment_stack(rng, n, d):
    a, b, c = (rng.normal(size=(3, n, d, d)))
    k1 = a @ a.mT
    return k1, k1 + b @ b.mT, c @ c.mT + 0.1 * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_stacked_segment_integral_gives_each_member_its_lone_bits(d):
    k1, k2, sn = _segment_stack(np.random.default_rng(90 + d), 40, d)
    stacked = fisher_lab._segment_integral(k1, k2, sn)
    assert stacked.shape == (40,)
    for k in range(40):
        assert stacked[k] == fisher_lab._segment_integral(k1[k], k2[k], sn[k])


def test_a_downhill_segment_reports_a_negative_l9(monkeypatch, capsys):
    # mutation: K1 and K2 swapped, so K2 - K1 <= 0 and the integral is
    # log|K1+S| - log|K2+S| < 0, the negative of L9's closed form: the suite
    # names the first instance it breaks and the command exits 1
    k1, k2, sn = _segment_stack(np.random.default_rng(95), 60, 2)
    assert (fisher_lab._segment_integral(k2, k1, sn) < 0.0).all()
    segment = fisher_lab._segment_integral
    monkeypatch.setattr(fisher_lab, "_segment_integral", lambda k1, k2, sn: segment(k2, k1, sn))
    with pytest.raises(QuadratureNonConvergent, match=r"^instance 0: L9 value -"):
        lemma_suite_check(seed=3, count=30)
    assert cli.main(["fisher", "lemmas", "--budget", "30", "--seed", "3"]) == 1
    assert "instance 0: L9 value -" in capsys.readouterr().err


def test_an_l9_integrand_without_the_inverse_fails_the_closed_form(monkeypatch, capsys):
    # the integrand tr(K2 - K1), the inverse dropped, is >= 0 whenever
    # K2 >= K1, so its sign passes L9; its value is off log|K2+S| - log|K1+S|
    monkeypatch.setattr(fisher_lab, "_segment_integral",
                        lambda k1, k2, sn: np.trace(k2 - k1, axis1=-2, axis2=-1))
    with pytest.raises(QuadratureNonConvergent, match=r"^instance \d+: L9 value"):
        lemma_suite_check(seed=0, count=200)
    assert cli.main(["fisher", "lemmas", "--budget", "200"]) == 1
    assert "L9 value" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_l9_check_brackets_the_trapezoid_by_its_error_bound(d):
    # the trapezoid lies between the closed form and the closed form plus
    # sum(mu^3) / 24576; a value moved just outside either end is refused
    k1, k2, sn = _segment_stack(np.random.default_rng(70 + d), 200, d)
    value = fisher_lab._segment_integral(k1, k2, sn)
    fisher_lab._check_segment(value, k1, k2, sn)
    exact = logdet(k2 + sn) - logdet(k1 + sn)
    m = np.linalg.solve(k1 + sn, k2 - k1)
    top = exact + np.trace(m @ m @ m, axis1=-2, axis2=-1) / 24576.0
    r = 2e-12 * (1.0 + np.abs(exact))
    for k, moved in ((7, exact - r), (11, top + r)):
        with pytest.raises(QuadratureNonConvergent, match=f"^instance {k}: L9 value"):
            fisher_lab._check_segment(np.where(np.arange(200) == k, moved, value), k1, k2, sn)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("p_k", [np.diag([1.0, -1.0]), np.zeros((2, 2))],
                         ids=["indefinite", "singular"])
def test_a_segment_from_a_non_positive_definite_start_names_its_instance(k, p_k):
    k1, k2, sn = _segment_stack(np.random.default_rng(97), 4, 2)
    k1[k], sn[k] = p_k, np.zeros((2, 2))   # K1 + S_N of instance k is p_k
    with pytest.raises(SingularMatrix, match=f"^instance {k}: nonpositive pivot in Cholesky"):
        fisher_lab._segment_integral(k1, k2, sn)
    with pytest.raises(SingularMatrix, match="^nonpositive pivot in Cholesky"):
        fisher_lab._segment_integral(k1[k], k2[k], sn[k])


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
    j1 = mixture_fisher([mix.groups()], [v1])[0]
    j2 = mixture_fisher([mix.groups()], [v2])[0]
    assert (1 / j2 - v2) - (1 / j1 - v1) >= -1e-10


def test_conditional_h_and_j_come_from_one_pass_per_group(monkeypatch):
    rng = np.random.default_rng(37)
    for _ in range(20):
        mix = random_mixture(rng)
        var = 0.5 + rng.uniform(0.0, 1.0)
        assert _cond(fisher_lab._stack_quadrature, mix, var) == [
            _cond(mixture_entropy, mix, var), mixture_fisher([mix.groups()], [var])[0]]
    tasks = []
    quadrature = fisher_lab._stack_quadrature

    def counting(groups, var, n):
        tasks.extend(g for gs in groups for g in gs)
        return quadrature(groups, var, n)

    monkeypatch.setattr(fisher_lab, "_stack_quadrature", counting)
    rep = lemma_suite_check(seed=1, count=200, include_mixtures=True)
    # each mixture row needs (h, J) at var1 and J at var2: two tasks a group
    assert len(tasks) == 70
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
        j2 = mixture_fisher([mix.groups()], [1.0])[0]
        jz = mixture_fisher([mix.groups()], [2.0])[0]
        g = _cond(mixture_entropy, mix, 2.0) - _cond(mixture_entropy, mix, 1.0)
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


def _path_through(monkeypatch, c, k2, kz, k_star):
    """Have the quadrature return the (h, J) whose path at noise variances c
    and 2c runs from ``kz`` (t = 0) to ``k2`` (t = 1) with its root at ``k_star``."""
    g = 0.5 * math.log((k_star + 2 * c) / (k_star + c))
    monkeypatch.setattr(fisher_lab, "_stack_quadrature", lambda groups, var, n:
                        np.array([[0.0, 1 / (k2 + c)], [g, 1 / (kz + 2 * c)]]))


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
def test_interpolation_sandwich_does_not_depend_on_the_scale(monkeypatch, c):
    # a mixture with E[X^2] = c; a root 1e-6 above the cap or below the floor
    # leaves the sandwich at every scale, one inside it does not
    mix = ScalarMixture([0.0, 0.0], [-math.sqrt(c), math.sqrt(c)], [0.5, 0.5])
    for k2, kz, k_star in [(0.5 * c, 2 * c, c * (1 + 1e-6)),
                           (0.5 * c * (1 + 1e-5), 0.25 * c, 0.5 * c)]:
        _path_through(monkeypatch, c, k2, kz, k_star)
        with pytest.raises(NoRoot, match="^matched covariance .* violates the sandwich"):
            interpolation_t_star(mix, c, 2 * c)
    _path_through(monkeypatch, c, 0.5 * c, c, 0.75 * c)
    t, k = interpolation_t_star(mix, c, 2 * c)
    assert t == pytest.approx(0.5, rel=1e-9) and k == pytest.approx(0.75 * c, rel=1e-9)
    monkeypatch.undo()
    # a real path: t* and K* / c as at scale 1
    t, k = interpolation_t_star(ScalarMixture([0.0, 0.0, 1.0], np.array([-1.0, 0.5, 0.8])
                                              * math.sqrt(c), [0.3, 0.3, 0.4]), c, 2 * c)
    assert t == pytest.approx(0.48074267202, rel=1e-9)
    assert k == pytest.approx(0.28333068717 * c, rel=1e-9)


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
    bounds = mixture_region_constants([mix], ch)
    pts = vertices(replace(bounds, rhs=np.maximum(bounds.rhs, 0.0))).vertices
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
    stacked = sufficiency_evidence_scalar(mixes, ch, env)
    # a packed LP's rounding depends on the blocks beside it, so the slacks
    # may move in the last bits; the rest is exact
    for a, b in zip(stacked, lone, strict=True):
        assert (a.constants, a.clamped, a.contained) == (b.constants, b.clamped, b.contained)
        assert abs(a.max_slack - b.max_slack) <= 1e-12
    # one recession LP for the stacked vertices() call, one dominance_slack call
    assert lp_whats == ["recession"] and len(dominance) == 1
    assert sufficiency_evidence_scalar([], ch, env) == []
    over = ScalarMixture([0.0, 0.0], [-3.0, 3.0], [0.5, 0.5])
    with pytest.raises(ValidationError, match="instance 2: mixture second moment"):
        sufficiency_evidence_scalar(mixes[:2] + [over], ch, env)


def antipodal_constants_with(monkeypatch, rs2):
    """Patch the mixture regions so that the rs2 bound I(U;Y2) - I(U;Z) is ``rs2``."""
    ch = scalar_channel()
    mix = ScalarMixture([0.0, 0.0], [-1.0, 1.0], [0.5, 0.5])
    bounds = mixture_region_constants([mix], ch)
    rhs = bounds.rhs.copy()
    rhs[:, [q.label for q in bounds.rows.ineqs].index("rs2")] = rs2
    monkeypatch.setattr(fisher_lab, "mixture_region_constants",
                        lambda mixes, c: SystemStack(bounds.rows, rhs.repeat(len(mixes), axis=0)))
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


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
def test_evidence_input_cap_does_not_depend_on_the_scale(c):
    # S, Sigma1, Sigma2, SigmaZ = 2, 0.5, 1, 1.5 times c: a mixture at
    # +-sqrt(3c) has second moment 1.5 S and is refused at every scale; one at
    # +-sqrt(2c) is at the cap up to rounding and gets the slack of scale 1
    ch = GaussChannel(S=2 * c * I1, Sigma1=0.5 * c * I1, Sigma2=c * I1, SigmaZ=1.5 * c * I1)
    env = gauss_envelope(ch)
    over = ScalarMixture([0.0, 0.0], [-math.sqrt(3 * c), math.sqrt(3 * c)], [0.5, 0.5])
    with pytest.raises(ValidationError, match="^instance 0: mixture second moment exceeds "
                                              "the input cap$"):
        sufficiency_evidence_scalar([over], ch, env)
    at_cap = ScalarMixture([0.0, 0.0], [-math.sqrt(2 * c), math.sqrt(2 * c)], [0.5, 0.5])
    [rep] = sufficiency_evidence_scalar([at_cap], ch, env)
    assert rep.max_slack == pytest.approx(-0.0311929425348, abs=1e-11)


ANTIPODAL = ScalarMixture([0.0, 0.0], [-1.0, 1.0], [0.5, 0.5])
CHANNEL_2X2 = GaussChannel(S=2 * np.eye(2), Sigma1=0.5 * np.eye(2), Sigma2=np.eye(2),
                           SigmaZ=2 * np.eye(2))


@pytest.mark.parametrize("call", [
    lambda: interpolation_t_star(GaussPair(np.eye(4), d_u=2, d_x=2), 1.0, 2.0),
    lambda: interpolation_t_star(GaussPair(np.stack([np.eye(2)] * 3), d_u=1, d_x=1), 1.0, 2.0),
    lambda: debruijn_check([ANTIPODAL], np.eye(2)[None]),
    lambda: mixture_region_constants([ANTIPODAL], CHANNEL_2X2),
    lambda: sufficiency_evidence_scalar([ANTIPODAL], CHANNEL_2X2, np.ones((1, 4)))[0],
    lambda: discretize_scalar(CHANNEL_2X2, 0.5),
], ids=["interpolation-2x2", "interpolation-stack", "debruijn-mixture-2x2",
        "region-constants-2x2", "evidence-2x2", "discretize-2x2"])
def test_scalar_only_entry_points_refuse_other_shapes(call):
    with pytest.raises(ValidationError, match="must be a 1x1 matrix"):
        call()
