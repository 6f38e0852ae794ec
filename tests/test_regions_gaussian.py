import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiretap_regions
from generators import by_label, table_of
from hull_oracle import in_hull
from wiretap_regions import regions_gaussian
from wiretap_regions.errors import (
    CapExceeded,
    DimensionMismatch,
    NotDegraded,
    NotPSD,
    UnknownCorollary,
    ValidationError,
    WiretapError,
)
from wiretap_regions.polytope_fm import max_violation, region_equal, vertices
from wiretap_regions.info_core import VarId, build_degraded_joint, take_stack
from wiretap_regions.regions_discrete import (
    _PER_MESSAGE,
    LAYERED_VARS,
    UX_VARS,
    AuxJoint,
    _corner_aux_ux,
    _layered_probs,
    eval_degraded_inner,
    eval_degraded_outer,
    eval_general_inner,
    eval_original_inner,
    region_of,
)
from wiretap_regions.regions_gaussian import (
    CovSplit,
    GaussChannel,
    HGaussChannel,
    _GaussSource,
    check_psd,
    discretize_scalar,
    dpc_identity_check,
    dpc_matrix,
    eval_gauss_inner,
    eval_gauss_outer,
    eval_general_gauss,
    gauss_mi,
    psd_leq,
    random_psd_under,
    specialize_gauss_corollary,
    sweep_covariances,
)

I1 = np.eye(1)

# frozen against 30-digit evaluation of the log-det expressions
SCALAR_FIXTURE = {
    "rs2": 0.052680257828913151,
    "rs12": 0.28768207245178093,
    "rs2p2": 0.14384103622589046,
    "rs12p2": 0.37884285084875824,
    "total": 0.49041462650586312,
}
HALF_LN2 = 0.34657359027997265


def scalar_channel():
    return GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=1.0 * I1, SigmaZ=2.0 * I1)


def rand_degraded(rng, d):
    a = rng.normal(size=(d, d))
    s1 = a @ a.T + 0.2 * np.eye(d)
    b = rng.normal(size=(d, d)) * 0.5
    s2 = s1 + b @ b.T
    c = rng.normal(size=(d, d)) * 0.5
    sz = s2 + c @ c.T
    e = rng.normal(size=(d, d))
    S = e @ e.T + 0.5 * np.eye(d)
    return GaussChannel(S=S, Sigma1=s1, Sigma2=s2, SigmaZ=sz)


def test_gauss_channel_refuses_entries_beyond_max_entry():
    # MAX_ENTRY itself is accepted; a larger or infinite entry is refused
    big = np.array([[1e300, 0.0], [0.0, 1e300]])
    assert GaussChannel(big, 0.5 * np.eye(2), np.eye(2), big).degraded
    for off in (2e300, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="Sigma2 has an entry of magnitude"):
            GaussChannel(np.eye(2), 0.5 * np.eye(2), np.array([[1.0, off], [off, 1.0]]),
                         2 * np.eye(2))


def test_degraded_order_examples():
    assert GaussChannel(I1, I1, I1, I1).degraded
    d2 = np.eye(2)
    assert not GaussChannel(d2, 2 * d2, d2, 2 * d2).degraded
    assert GaussChannel(np.eye(2), np.diag([0.5, 1.0]),
                        np.diag([1.0, 1.0]), np.diag([2.0, 3.0])).degraded


def test_degraded_H_examples():
    ch = HGaussChannel(np.eye(2), np.eye(2), np.eye(2))
    assert ch.degraded and np.allclose(ch.quotients[0], np.eye(2))
    ch = HGaussChannel(np.eye(2), 0.5 * np.eye(2), 0.25 * np.eye(2))
    assert ch.degraded and np.allclose(ch.quotients[0], 0.5 * np.eye(2))
    assert not HGaussChannel(np.eye(2), 2.0 * np.eye(2), np.eye(2)).degraded


def test_fixed_S_sweep_decides_degradedness_once(monkeypatch):
    # the order test is the only psd_leq call that compares against SigmaZ
    calls, real = [], regions_gaussian.psd_leq
    monkeypatch.setattr(regions_gaussian, "psd_leq",
                        lambda a, b: calls.append(b) or real(a, b))
    ch = scalar_channel()
    sweep_covariances(ch, budget=10, seed=3)
    assert sum(b is ch.SigmaZ for b in calls) == 1


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_psd_leq_slack_is_relative_to_the_larger_matrix(c):
    # one side zero: the slack scales with the other side, whichever it is
    zero = np.zeros((2, 2))
    assert psd_leq(zero, c * np.diag([1.0, -1e-12]))
    assert psd_leq(c * np.diag([-1.0, 1e-12]), zero)
    assert not psd_leq(zero, c * np.diag([1.0, -1e-9]))
    assert not psd_leq(c * np.diag([-1.0, 1e-9]), zero)
    assert list(psd_leq(np.stack([zero, c * np.diag([-1.0, 1e-9])]), zero)) == [True, False]


def test_check_psd_refuses_a_small_indefinite_matrix():
    # its eigenvalue -5e-11 is 50 times its largest: a floor of -1e-10 fixed
    # below scale 1 would clip it to diag(1e-12, 0)
    with pytest.raises(NotPSD, match="eigenvalue -5.000e-11 below tolerance -5.0e-21"):
        check_psd(np.diag([1e-12, -5e-11]))


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_check_psd_verdict_and_clipping_follow_the_matrix_scale(c):
    # a rounding-size negative eigenvalue is clipped, to the same matrix up to
    # scale; one of 1e-9 relative to the largest is refused at every scale
    q = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))[0]
    psd = q @ np.diag([2.0, 0.5, -1e-13]) @ q.T
    clipped = check_psd(psd)
    assert np.linalg.eigvalsh(clipped).min() > -1e-15
    np.testing.assert_allclose(check_psd(c * psd) / c, clipped, rtol=0, atol=1e-14)
    with pytest.raises(NotPSD):
        check_psd(c * np.diag([1.0, -1e-9]))


def test_stacked_split_gives_each_sample_its_lone_system():
    ch = GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * np.eye(2),
                      Sigma2=np.eye(2), SigmaZ=2 * np.eye(2))
    K = random_psd_under(np.random.default_rng(8), ch.S, size=6)
    assert len(eval_gauss_inner(CovSplit(K=K), ch)) == 6
    # one cap check for the stack, naming the first sample over the cap
    K[[2, 4]] = 1.5 * ch.S
    with pytest.raises(CapExceeded, match="^instance 2: covariance allocation exceeds"):
        eval_gauss_inner(CovSplit(K=K), ch)


_DISCRETE_EVALUATORS = {"degraded inner": eval_degraded_inner,
                        "degraded outer": eval_degraded_outer,
                        "original inner": eval_original_inner,
                        "general inner": eval_general_inner}
_GAUSS_EVALUATORS = {"gauss inner": eval_gauss_inner, "gauss outer": eval_gauss_outer,
                     "general gauss 21": lambda t, c: eval_general_gauss(t, c, "21"),
                     "general gauss 12": lambda t, c: eval_general_gauss(t, c, "12")}


@st.composite
def _evaluator_inputs(draw):
    """An evaluator, a channel, a stack of 1-4 inputs it takes and the same
    inputs one by one: auxes over (U, X) (some of them the sweep's corner
    auxes, which hold zero cells) or layered ones on a degraded discrete
    channel, and single splits (0 and S among them) or triples on a degraded
    Gaussian channel of dimension 1-3."""
    name = draw(st.sampled_from(sorted(_DISCRETE_EVALUATORS) + sorted(_GAUSS_EVALUATORS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    if name in _DISCRETE_EVALUATORS:
        cx = draw(st.integers(2, 3))
        ch = build_degraded_joint(*(rng.dirichlet(np.ones(2), size=c) for c in (cx, 2, 2)))
        if name == "general inner":
            probs = np.stack([_layered_probs(rng, 2, 2, 2, 2, cx, k % 2 == 0)
                              for k in range(n)])
            names = LAYERED_VARS
        else:
            corners = _corner_aux_ux(cx + 1, cx)
            picks = draw(st.lists(st.integers(0, len(corners)), min_size=n, max_size=n))
            probs = np.stack([corners[i] if i < len(corners)
                              else rng.dirichlet(np.ones((cx + 1) * cx)).reshape(cx + 1, cx)
                              for i in picks])
            names = UX_VARS
        vars_ = tuple(map(VarId, names, probs.shape[1:]))
        return (name, ch, AuxJoint(take_stack(vars_, probs)),
                [AuxJoint(table_of(vars_, p)) for p in probs])
    d = draw(st.integers(1, 3))
    ch = rand_degraded(rng, d)
    if name.startswith("gauss"):
        K = random_psd_under(rng, ch.S, size=n)
        for k, corner in draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([0.0, 1.0]))
                              ).items():
            K[k] = corner * ch.S
        return name, ch, CovSplit(K=K), [CovSplit(K=k) for k in K]
    triple = [random_psd_under(rng, ch.S / 3, size=n) for _ in range(3)]
    return name, ch, CovSplit(None, *triple), [CovSplit(None, *m) for m in zip(*triple)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_evaluator_inputs())
def test_every_evaluator_gives_a_stacked_member_the_bits_of_its_lone_evaluation(case):
    # a lone input is a stack of one, and member k of a stacked evaluation
    # is input k's lone evaluation, bit for bit, over the same row set
    name, ch, stacked, alone = case
    evaluate = {**_DISCRETE_EVALUATORS, **_GAUSS_EVALUATORS}[name]
    got = evaluate(stacked, ch)
    assert len(got) == len(alone)
    for k, one in enumerate(alone):
        lone = evaluate(one, ch)
        assert lone.rows == got.rows and lone.rhs.shape == (1, len(got.rows.ineqs))
        assert got.rhs[k].tobytes() == lone.rhs[0].tobytes()


def test_trace_P_sweep_checks_the_channel_once(monkeypatch):
    # the caps of a sweep are one stack: how often the channel and the caps
    # are checked does not grow with the budget
    counts = {}
    for name in ("psd_leq", "check_pd"):
        real = getattr(regions_gaussian, name)
        monkeypatch.setattr(regions_gaussian, name,
                            lambda *a, _real=real, _name=name, **k:
                            counts.__setitem__(_name, counts.get(_name, 0) + 1) or _real(*a, **k))
    eye = np.eye(2)
    ch = GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * eye, Sigma2=eye,
                      SigmaZ=2 * eye)
    assert ch.degraded
    made = []
    for budget in (10, 40):
        counts.clear()
        sweep_covariances(ch, budget=budget, seed=3, mode="trace_P")
        made.append(dict(counts))
    assert made[0] == made[1]
    assert made[0]["psd_leq"] <= 3


def test_a_trace_P_sweep_validates_its_noise_covariances_once(monkeypatch):
    # the noises are checked when the channel is built; a sweep checks only
    # the stack of caps it samples, and decides the noise order once
    checked, orders = [], []
    for name in ("_check_entries", "check_pd"):
        real = getattr(regions_gaussian, name)
        monkeypatch.setattr(regions_gaussian, name, lambda m, what, _real=real, _name=name:
                            checked.append((_name, what)) or _real(m, what))
    real_leq = regions_gaussian.psd_leq
    monkeypatch.setattr(regions_gaussian, "psd_leq",
                        lambda a, b: orders.append(b) or real_leq(a, b))
    eye = np.eye(2)
    ch = GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * eye, Sigma2=eye,
                      SigmaZ=2 * eye)
    sweep_covariances(ch, budget=50, seed=3, mode="trace_P")
    noises = ("Sigma1", "Sigma2", "SigmaZ")
    assert [c for c in checked if c[1] in noises] == \
        [("_check_entries", n) for n in noises] + [("check_pd", n) for n in noises]
    assert [c for c in checked if c[1] == "S"] == [("_check_entries", "S"), ("check_pd", "S")] * 2
    assert sum(b is ch.SigmaZ for b in orders) == 1


def test_only_scalar_of_reads_entry_0_0():
    # one scalar reader: every other [0, 0] read would need its own shape check
    for path in sorted(pathlib.Path(wiretap_regions.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            index = node.slice if isinstance(node, ast.Subscript) else None
            if (isinstance(index, ast.Tuple) and len(index.elts) == 2
                    and all(isinstance(e, ast.Constant) and e.value == 0 for e in index.elts)):
                around = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(around, key=lambda f: f.lineno).name if around else None
                assert (path.name, owner) == ("regions_gaussian.py", "scalar_of"), \
                    f"[0, 0] read at {path.name}:{node.lineno}"


def construct_joint_noise(ch: GaussChannel) -> np.ndarray:
    """Joint covariance of (N1, N2, NZ) realizing the degraded chain, the
    oracle of ``degraded``: N2 = N1 + M2 and NZ = N2 + MZ with independent
    increments of covariance Sigma2 - Sigma1 and SigmaZ - Sigma2, so the
    blocks reproduce the marginal noise covariances and X -> Y1 -> Y2 -> Z
    holds."""
    if not ch.degraded:
        raise NotDegraded("noise covariances are not ordered")
    s1, s2, sz = ch.Sigma1, ch.Sigma2, ch.SigmaZ
    return np.block([[s1, s1, s1], [s1, s2, s2], [s1, s2, sz]])


def test_joint_noise_scalar_forced_covariances():
    jn = construct_joint_noise(scalar_channel())
    assert jn[0, 1] == pytest.approx(0.5)
    assert jn[1, 2] == pytest.approx(1.0)


def test_joint_noise_degenerate_increment():
    ch = GaussChannel(I1, 0.7 * I1, 0.7 * I1, 1.0 * I1)
    jn = construct_joint_noise(ch)
    assert jn[0, 0] == jn[0, 1] == jn[1, 1]  # N2 = N1 exactly


def test_joint_noise_blocks_and_psd():
    rng = np.random.default_rng(21)
    for _ in range(10):
        vals = np.sort(rng.uniform(0.2, 3.0, size=(3, 2)), axis=0)
        ch = GaussChannel(np.eye(2), np.diag(vals[0]), np.diag(vals[1]), np.diag(vals[2]))
        jn = construct_joint_noise(ch)
        assert np.linalg.eigvalsh(jn).min() >= -1e-12
        assert np.allclose(jn[:2, :2][:1, :1], ch.Sigma1[:1, :1])
        assert np.allclose(jn[2:4, 2:4], ch.Sigma2)
        assert np.allclose(jn[4:, 4:], ch.SigmaZ)
    with pytest.raises(NotDegraded):
        construct_joint_noise(GaussChannel(I1, 2 * I1, I1, 2 * I1))


def test_scalar_fixture_bounds():
    by = by_label(eval_gauss_inner(CovSplit(K=0.5 * I1), scalar_channel()))
    for label, expect in SCALAR_FIXTURE.items():
        assert by[label] == pytest.approx(expect, abs=1e-9), label


def test_rs2_vanishes_at_full_allocation():
    by = by_label(eval_gauss_inner(CovSplit(K=1.0 * I1), scalar_channel()))
    assert by["rs2"] == pytest.approx(0.0, abs=1e-12)


def test_rs2_vanishes_when_eavesdropper_equals_user2():
    ch = GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=2.0 * I1, SigmaZ=2.0 * I1)
    for k in (0.0, 0.3, 1.0):
        by = by_label(eval_gauss_inner(CovSplit(K=k * I1), ch))
        assert by["rs2"] == pytest.approx(0.0, abs=1e-12)


def test_outer_drops_extra_bound():
    ch = scalar_channel()
    inner = eval_gauss_inner(CovSplit(K=0.5 * I1), ch)
    outer = eval_gauss_outer(CovSplit(K=0.5 * I1), ch)
    assert [q.label for q in outer.rows.ineqs] == ["rs2", "rs12", "rs2p2", "total"]
    inner_by = by_label(inner)
    for label, rhs in by_label(outer).items():
        assert rhs == pytest.approx(inner_by[label], abs=0.0)


def test_zero_allocation_cancellations():
    ch = GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=2.0 * I1, SigmaZ=2.0 * I1)
    outer = eval_gauss_outer(CovSplit(K=0.0 * I1), ch)
    by = by_label(outer)
    assert by["rs2"] == pytest.approx(0.0, abs=1e-12)
    assert by["rs2p2"] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)


def test_cap_and_degradedness_errors():
    ch = scalar_channel()
    with pytest.raises(CapExceeded):
        eval_gauss_inner(CovSplit(K=2.0 * I1), ch)
    with pytest.raises(NotDegraded):
        eval_gauss_inner(CovSplit(K=0.5 * I1),
                         GaussChannel(I1, 2.0 * I1, I1, 3.0 * I1))
    with pytest.raises(NotPSD):
        CovSplit(K=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # a bare float is no 1 x 1 matrix: a matrix is (..., d, d)
    for call in (lambda: GaussChannel(2.0, 0.5, 1.0, 2.0), lambda: check_psd(2.0)):
        with pytest.raises(NotPSD, match=r"^matrix of shape \(\) is not square$"):
            call()


def test_inner_inside_outer_random():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        ch = rand_degraded(rng, d)
        split = CovSplit(K=random_psd_under(rng, ch.S, 1)[0])
        inner = eval_gauss_inner(split, ch)
        outer = eval_gauss_outer(split, ch)
        for p in vertices(inner).vertices:
            assert max_violation(outer, p, var_order=inner.vars) <= 1e-9


def test_corollaries_match_and_alt_form():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ch = rand_degraded(rng, 2)
        split = CovSplit(K=random_psd_under(rng, ch.S, 1)[0])
        inner = eval_gauss_inner(split, ch)
        outer = eval_gauss_outer(split, ch)
        for which in ("cor4", "cor5", "cor6"):
            assert region_equal(specialize_gauss_corollary(inner, which),
                                specialize_gauss_corollary(outer, which))
        alt = specialize_gauss_corollary(region_of(_PER_MESSAGE, _GaussSource(split.K, ch)),
                                         "cor6")
        cor6 = specialize_gauss_corollary(inner, "cor6")
        for p in vertices(alt).vertices:
            assert max_violation(cor6, p, var_order=alt.vars) <= 1e-9
    for which in ("cor6_alt", "cor7"):
        with pytest.raises(UnknownCorollary):
            specialize_gauss_corollary(inner, which)


def test_cor6_alt_union_matches_cor6_union():
    # unions over sampled K agree within sampling resolution: the alternate
    # form is cor6 of the per-message form
    ch = scalar_channel()
    K = np.linspace(0.0, 1.0, 41)[:, None, None] * I1
    cloud_alt = vertices(specialize_gauss_corollary(
        region_of(_PER_MESSAGE, _GaussSource(K, ch)), "cor6")).vertices
    cloud_c6 = vertices(specialize_gauss_corollary(eval_gauss_inner(CovSplit(K=K), ch),
                                                   "cor6")).vertices
    for p in cloud_c6:
        assert in_hull(p, cloud_alt, tol=5e-3) or _dominated(p, cloud_alt, 5e-3)
    for p in cloud_alt:
        assert in_hull(p, cloud_c6, tol=5e-3) or _dominated(p, cloud_c6, 5e-3)


def _dominated(p, cloud, slack):
    from wiretap_regions.regions_discrete import dominance_slack
    return dominance_slack([p], cloud)[0] <= slack


def test_dpc_matrix_examples():
    assert np.allclose(dpc_matrix(np.zeros((2, 2)), np.eye(2)), 0.0)
    assert dpc_matrix(1.0 * I1, 1.0 * I1)[0, 0] == pytest.approx(0.5)
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        k1 = a @ a.T
        b = rng.normal(size=(2, 2))
        s1 = b @ b.T + 0.3 * np.eye(2)
        A = dpc_matrix(k1, s1)
        assert np.abs(A @ k1 + A @ s1 - k1).max() <= 1e-12 * max(1, np.abs(k1).max())


def test_dpc_identity_scalar_fixture():
    ch = GaussChannel(S=2.0 * I1, Sigma1=1.0 * I1, Sigma2=1.5 * I1, SigmaZ=3.0 * I1)
    res = dpc_identity_check(1.0 * I1, 0.5 * I1, 0.25 * I1, ch)
    assert res <= 1e-9
    # the identity value itself is log(2)/2
    from wiretap_regions.regions_gaussian import logdet
    assert 0.5 * (logdet(1.0 * I1 + 1.0 * I1) - logdet(1.0 * I1)) == pytest.approx(
        HALF_LN2, abs=1e-12)


def test_dpc_identity_degenerate_splits():
    ch = GaussChannel(S=2.0 * I1, Sigma1=1.0 * I1, Sigma2=1.5 * I1, SigmaZ=3.0 * I1)
    assert dpc_identity_check(0.0 * I1, 0.5 * I1, 0.25 * I1, ch) <= 1e-12
    assert dpc_identity_check(1.0 * I1, 0.0 * I1, 0.25 * I1, ch) <= 1e-12


def test_general_gauss_reduction_to_inner():
    rng = np.random.default_rng(25)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        ch = rand_degraded(rng, d)
        K = random_psd_under(rng, ch.S, 1)[0]
        chS = GaussChannel(S=K + (ch.S - K) + 1e-12 * np.eye(d), Sigma1=ch.Sigma1,
                           Sigma2=ch.Sigma2, SigmaZ=ch.SigmaZ)
        split = CovSplit(K0=chS.S - K, K1=K, K2=np.zeros((d, d)))
        gen = eval_general_gauss(split, chS)
        inner = eval_gauss_inner(CovSplit(K=K), chS)
        assert region_equal(gen, inner)


def test_general_gauss_zero_split():
    # with a zero allocation the three secrecy bounds vanish; the bounds
    # anchored to the cap S keep the cloud-layer value min_j log|S+Sj|/|Sj| / 2
    ch = scalar_channel()
    split = CovSplit(K0=0.0 * I1, K1=0.0 * I1, K2=0.0 * I1)
    by = by_label(eval_general_gauss(split, ch))
    for label in ("rs1", "rs2", "rs12"):
        assert by[label] == pytest.approx(0.0, abs=1e-12), label
    cap_term = min(0.5 * math.log(1.5 / 0.5), 0.5 * math.log(2.0 / 1.0))
    for label in ("rs1p1", "rs2p2", "rs1p1s2", "rs12p2", "total"):
        assert by[label] == pytest.approx(cap_term, abs=1e-12), label


def test_general_gauss_swap_symmetry():
    rng = np.random.default_rng(26)
    for _ in range(5):
        ch = rand_degraded(rng, 2)
        k0 = random_psd_under(rng, ch.S / 3, 1)[0]
        k1 = random_psd_under(rng, ch.S / 3, 1)[0]
        k2 = random_psd_under(rng, ch.S / 3, 1)[0]
        swapped_ch = GaussChannel(ch.S, ch.Sigma2, ch.Sigma1, ch.SigmaZ)
        a = eval_general_gauss(CovSplit(K0=k0, K1=k1, K2=k2), swapped_ch, order="12")
        b = eval_general_gauss(CovSplit(K0=k0, K1=k2, K2=k1), ch, order="21")
        swap = {"Rp1": "Rp2", "Rp2": "Rp1", "Rs1": "Rs2", "Rs2": "Rs1"}
        got = sorted((tuple(sorted((swap[v], c) for v, c in q.coeffs)), round(r, 12))
                     for q, r in zip(a.rows.ineqs, a.rhs[0].tolist()))
        want = sorted((tuple(sorted(q.coeffs)), round(r, 12))
                      for q, r in zip(b.rows.ineqs, b.rhs[0].tolist()))
        assert got == want


def test_bound_monotone_in_private_allocation():
    # the rs2p2 lead term shrinks as K grows along any PSD direction
    ch = scalar_channel()
    prev = np.inf
    for k in np.linspace(0.0, 1.0, 6):
        val = by_label(eval_gauss_inner(CovSplit(K=k * I1), ch))["rs2p2"]
        assert val <= prev + 1e-12
        prev = val
    rng = np.random.default_rng(27)
    ch2 = rand_degraded(rng, 2)
    K0 = random_psd_under(rng, 0.25 * ch2.S, 1)[0]
    a = rng.normal(size=(2, 2))
    delta = a @ a.T
    delta *= 0.2 / np.linalg.eigvalsh(delta).max()
    prev = np.inf
    for t in np.linspace(0.0, 1.0, 6):
        K = K0 + t * delta
        if not np.all(np.linalg.eigvalsh(ch2.S - K) >= -1e-12):
            break
        val = by_label(eval_gauss_inner(CovSplit(K=K), ch2))["rs2p2"]
        assert val <= prev + 1e-12
        prev = val


def test_sweep_modes_and_monotonicity():
    ch = scalar_channel()
    small = sweep_covariances(ch, budget=4, seed=9)
    big = sweep_covariances(ch, budget=10, seed=9)
    for p in small.hull_points:
        assert in_hull(p, big.points, tol=1e-9)
    traced = sweep_covariances(ch, budget=6, seed=9, mode="trace_P", trace_p=1.0)
    assert traced.points.shape[0] > 0
    with pytest.raises(ValidationError):
        sweep_covariances(ch, budget=6, seed=9, mode="trace")
    with pytest.raises(ValidationError):
        sweep_covariances(ch, budget=6, seed=9, trace_p=1.0)   # fixed_S reads no cap
    fixed = sweep_covariances(ch, budget=6, seed=10)
    for p in fixed.hull_points:
        assert _dominated(p, traced.points, 5e-2) or in_hull(p, traced.points, 1e-6)


@pytest.mark.parametrize("scale", [1e-12, 1e-3, 1.0, 1e12])
def test_sym_refuses_an_asymmetric_matrix_at_every_scale(scale):
    bad = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotPSD, match="^symmetry residual"):
        regions_gaussian._sym(bad)
    # asymmetry of relative size 1e-14 is rounding noise, averaged away
    near = scale * np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
    assert np.array_equal(regions_gaussian._sym(near), 0.5 * (near + near.T))
    # in a stack, each matrix is held to its own scale
    with pytest.raises(NotPSD, match="^instance 1: symmetry residual"):
        regions_gaussian._sym(np.stack([1e12 * near / scale, bad]))


def _pd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T / d + 0.1 * np.eye(d))


@st.composite
def _congruent_instances(draw):
    """A Gaussian channel (degraded, or with a random noise order), a split K,
    a triple (K0, K1, K2) and a transform A of X with cond(A) <= 50, drawn
    with d in {1, 2, 3}."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S, s1 = _pd(rng, d, 2.0), _pd(rng, d, 0.5)
    s2 = s1 + _pd(rng, d, 0.5) if draw(st.booleans()) else _pd(rng, d)
    sz = s2 + _pd(rng, d, 0.5)
    q1, _, q2 = np.linalg.svd(rng.normal(size=(d, d)))
    A = q1 @ np.diag(np.exp(rng.uniform(0.0, math.log(50.0), size=d))) @ q2   # cond <= 50
    K = random_psd_under(rng, S, 1)[0]
    K0, K1, K2 = (random_psd_under(rng, S / 3, 1)[0] for _ in range(3))
    return (GaussChannel(S, s1, s2, sz), CovSplit(K=K), CovSplit(K0=K0, K1=K1, K2=K2),
            A * 10.0 ** rng.uniform(-1, 1))


def _congruent(m, A):
    c = A @ m @ A.T
    return 0.5 * (c + c.T)


def _verdict(f, *args):
    """The rows' labels and right-hand sides (a residual for a float) of a
    call, or the type of the error it raises."""
    try:
        out = f(*args)
    except WiretapError as e:
        return type(e), None
    if isinstance(out, float):
        return "residual", np.array([out])
    return [q.label for q in out.rows.ineqs], out.rhs[0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_congruent_instances())
def test_verdicts_and_rates_are_invariant_under_a_congruence_of_x(case):
    # X -> AX with every covariance moved alike: each rate is a log-det ratio
    # or a Gaussian mutual information, which a congruence leaves as it is
    ch, single, triple, A = case
    ch2 = GaussChannel(*(_congruent(m, A) for m in (ch.S, ch.Sigma1, ch.Sigma2, ch.SigmaZ)))
    single2 = CovSplit(K=_congruent(single.K, A))
    triple2 = CovSplit(None, *(_congruent(m, A) for m in (triple.K0, triple.K1, triple.K2)))
    calls = [(eval_gauss_inner, single, single2), (eval_gauss_outer, single, single2),
             (lambda t, c: dpc_identity_check(t.K1, t.K2, t.K0, c), triple, triple2),
             (lambda t, c: eval_general_gauss(t, c, "21"), triple, triple2),
             (lambda t, c: eval_general_gauss(t, c, "12"), triple, triple2)]
    for f, split, split2 in calls:
        (what, rates), (what2, rates2) = _verdict(f, split, ch), _verdict(f, split2, ch2)
        assert what == what2
        if rates is not None:
            assert (np.abs(rates - rates2) <= 1e-9 * (1 + np.abs(rates))).all()


def _discrete_inner(S, s1, s2, sz, K):
    """The discrete degraded inner bound of the scalar channel's discrete twin
    and the twin's channel."""
    aux, ch = discretize_scalar(GaussChannel(S * I1, s1 * I1, s2 * I1, sz * I1), K)
    return eval_degraded_inner(aux, ch).rhs[0], ch


def test_discretization_refuses_a_channel_out_of_the_degraded_order():
    # Sigma2 < Sigma1: no noise increment of variance -1 exists, and a twin
    # of this channel would be evaluated with the degraded formulas
    assert not GaussChannel(2 * I1, 2 * I1, I1, 3 * I1).degraded
    with pytest.raises(NotDegraded):
        discretize_scalar(GaussChannel(2 * I1, 2 * I1, I1, 3 * I1), 0.5)


@pytest.mark.parametrize("K, error", [(1.5, CapExceeded), (5.0, CapExceeded), (-0.5, NotPSD)])
def test_discretization_refuses_an_allocation_outside_zero_to_s(K, error):
    # above S, U would have a negative variance; below 0, X given U would
    with pytest.raises(error):
        discretize_scalar(GaussChannel(I1, 0.5 * I1, I1, 2 * I1), K)
    for K in (0.0, 1.0):   # both ends of [0, S] are allocations
        discretize_scalar(GaussChannel(I1, 0.5 * I1, I1, 2 * I1), K)


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-13])
def test_a_zero_noise_increment_is_the_identity_stage(c):
    # Y2 = Y1 exactly: any positive stand-in variance moves the Y2 grid, and
    # at c = 1e-13 smears each Y1 value over its neighbours
    rates, ch = _discrete_inner(c, 0.5 * c, 0.5 * c, 2.0 * c, 0.5 * c)
    assert np.array_equal(ch.stages[1], np.eye(len(ch.stages[1])))
    assert np.abs(rates - _discrete_inner(1.0, 0.5, 0.5, 2.0, 0.5)[0]).max() <= 1e-12
    closed = GaussChannel(I1, 0.5 * I1, 0.5 * I1, 2 * I1)
    exact = eval_gauss_inner(CovSplit(K=0.5 * I1), closed).rhs[0]
    assert np.abs(rates - exact).max() <= 5e-3


@pytest.mark.parametrize("c", [1e-13, 1e-6, 1e3, 1e12])
def test_discretization_does_not_depend_on_the_channel_scale(c):
    # at c = 1e-13 the variances of U and of X given U are 5e-14: point
    # masses only to an absolute test
    base, _ = _discrete_inner(1.0, 0.5, 1.0, 2.0, 0.5)
    rates, _ = _discrete_inner(c, 0.5 * c, c, 2.0 * c, 0.5 * c)
    assert np.abs(rates - base).max() <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: gauss_mi(np.eye(2), np.zeros((3, 3)), np.eye(2)),
    lambda: gauss_mi(np.eye(2), np.zeros((2, 2)), np.eye(3)),
    lambda: psd_leq(np.eye(2), np.eye(3)),
    lambda: psd_leq(np.stack([np.eye(2)] * 4), np.eye(3)),
    lambda: dpc_matrix(np.eye(2), np.eye(3)),
], ids=["gauss_mi-cross", "gauss_mi-marginal", "psd_leq", "psd_leq-stack", "dpc_matrix"])
def test_matrices_whose_sizes_disagree_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match=r"is (2x2|3x3|2x3) where (2x2|2x3) is needed"):
        call()
