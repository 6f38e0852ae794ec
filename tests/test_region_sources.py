"""Every degraded region comes from one row definition instantiated on an
entropy source; these properties compare it with the formulas of each input
law written out by hand (``region_oracles``), and check that the output
sources refuse what they cannot evaluate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from region_oracles import (
    discrete_constants,
    five_bound_columns,
    gauss_constants,
    mixture_constants,
    per_message_columns,
)
from wiretap_regions.entropy_algebra import ent, expand_mi
from wiretap_regions.errors import UnbalancedExpression
from wiretap_regions.fisher_lab import (
    ScalarMixture,
    _MixtureSource,
    mixture_region_constants,
    random_mixture,
)
from wiretap_regions.info_core import build_degraded_joint, take_stack
from wiretap_regions.polytope_fm import (
    IneqSystem,
    LinIneq,
    SystemStack,
    instantiate,
    max_violation,
    vertices,
)
from wiretap_regions.regions_discrete import (
    _PER_MESSAGE,
    UX_VARS,
    AuxJoint,
    _aux_vars,
    _corner_aux_ux,
    eval_degraded_inner,
    eval_degraded_outer,
    eval_original_inner,
    region_of,
    specialize_corollary,
)
from wiretap_regions.regions_gaussian import (
    CovSplit,
    GaussChannel,
    _GaussSource,
    eval_gauss_inner,
    eval_gauss_outer,
    random_psd_under,
)

# Relative to the bound, with an absolute floor: each bound sums up to eight
# entropies of a few nats and both paths round the sum, so where the bounds
# are about 1e-5 the two differ by 1e-15 to 2e-15, above a floor of 1e-15 and
# far below any printed digit.
RTOL, ATOL = 1e-12, 1e-14
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_columns(stack, columns, keep=None):
    """Each column of ``stack.rhs`` within RTOL (ATOL at least) of its reference."""
    ref = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(len(stack), -1)
    if keep is not None:
        ref = ref[:, keep]
    assert stack.rhs.shape == ref.shape
    gap = np.abs(stack.rhs - ref)
    assert (gap <= np.maximum(RTOL * np.abs(ref), ATOL)).all(), gap.max()


def _pd(rng, d, scale):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T / d + 0.25 * np.eye(d))


def gauss_channel(rng, d) -> GaussChannel:
    s1 = _pd(rng, d, 0.5)
    s2 = s1 + _pd(rng, d, 0.5)
    return GaussChannel(_pd(rng, d, 2.0), s1, s2, s2 + _pd(rng, d, 0.5))


def discrete_case(card_x, extra_u, seed):
    """A random degraded channel and a stack of (U, X) auxes on it: the three
    corner auxes (U = X, U constant, U independent) and four random draws."""
    rng = np.random.default_rng(seed)
    card_y = (card_x, card_x + 1, 2)
    ch = build_degraded_joint(*(rng.dirichlet(np.ones(k), size=n)
                                for n, k in zip((card_x, *card_y), card_y)))
    card_u = card_x + extra_u
    probs = np.stack(_corner_aux_ux(card_u, card_x)
                     + list(rng.dirichlet(np.ones(card_u * card_x), size=4)
                            .reshape(4, card_u, card_x)))
    return AuxJoint(take_stack(_aux_vars(UX_VARS, probs.shape[1:]), probs)), ch


def gauss_case(rng, d):
    """A random degraded channel of dimension ``d`` and a stack of splits
    under its cap: K = 0, S and S/2, and random splits."""
    ch = gauss_channel(rng, d)
    return np.concatenate([np.stack([np.zeros((d, d)), ch.S, 0.5 * ch.S]),
                           random_psd_under(rng, ch.S, 5)]), ch


@SETTINGS
@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_discrete_regions_match_the_mutual_information_formulas(card_x, extra_u, seed):
    aux, ch = discrete_case(card_x, extra_u, seed)
    c = discrete_constants(aux.table, ch)
    assert_columns(eval_degraded_inner(aux, ch), five_bound_columns(**c))
    assert_columns(eval_degraded_outer(aux, ch), five_bound_columns(**c), keep=[0, 1, 2, 4])
    assert_columns(eval_original_inner(aux, ch), per_message_columns(**c))


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_gaussian_regions_match_the_log_det_formulas(d, seed, stacked_caps):
    rng = np.random.default_rng(seed)
    K, ch = gauss_case(rng, d)
    if stacked_caps:
        scale = 1.0 + rng.random(len(K))
        ch = ch.with_caps(np.broadcast_to(ch.S, K.shape) * scale[:, None, None])
    c = gauss_constants(K, ch)
    columns = five_bound_columns(**c)
    assert_columns(eval_gauss_inner(CovSplit(K=K), ch), columns)
    assert_columns(eval_gauss_outer(CovSplit(K=K), ch), columns, keep=[0, 1, 2, 4])
    # a lone split is a stack of one
    lone = eval_gauss_inner(CovSplit(K=K[4]), ch.with_caps(ch.S[4] if stacked_caps else ch.S))
    assert_columns(lone, [col[4] for col in columns])


def _alternate_form_by_columns(five: SystemStack) -> np.ndarray:
    """The alternate secrecy form's (rs2, rs1) right-hand sides as they were
    once computed from the five-bound stack's columns: rs2, and rs12p2 -
    rs2p2, which is I(X;Y1|U) - I(X;Z|U)."""
    col = {q.label: five.rhs[:, i] for i, q in enumerate(five.rows.ineqs)}
    return np.stack([col["rs2"], col["rs12p2"] - col["rs2p2"]], axis=-1)


@SETTINGS
@given(st.sampled_from(["discrete", 1, 2, 3]), st.integers(2, 4), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_the_alternate_secrecy_form_is_cor3_of_the_per_message_rows(law, card_x, extra_u,
                                                                    seed):
    # the alternate form's standalone Rs1 bound is the per-message rs1 row:
    # cor3 of the per-message stack reads it, and its region lies inside
    # cor3 of the five-bound region, member by member (a Gaussian law of
    # dimension d = law draws no cardinalities)
    if law == "discrete":
        aux, ch = discrete_case(card_x, extra_u, seed)
        per_message, five = eval_original_inner(aux, ch), eval_degraded_inner(aux, ch)
    else:
        K, ch = gauss_case(np.random.default_rng(seed), law)
        per_message = region_of(_PER_MESSAGE, _GaussSource(K, ch))
        five = eval_gauss_inner(CovSplit(K=K), ch)
    alt = specialize_corollary(per_message, "cor3")
    assert alt.vars == ("Rs1", "Rs2")
    assert [(q.label, dict(q.coeffs)) for q in alt.rows.ineqs] == [("rs2", {"Rs2": 1}),
                                                                 ("rs1", {"Rs1": 1})]
    b = _alternate_form_by_columns(five)
    assert (np.abs(alt.rhs - b) <= 1e-12 * (1 + np.abs(b))).all(), np.abs(alt.rhs - b).max()
    cor3 = specialize_corollary(five, "cor3")
    vp = vertices(alt)
    for k, pts in enumerate(np.split(vp.vertices, np.cumsum(vp.counts)[:-1])):
        assert max_violation(SystemStack(cor3.rows, cor3.rhs[k]), pts, vp.vars) <= 1e-9


def _scalar_channel(rng) -> GaussChannel:
    s1 = rng.uniform(0.2, 1.0)
    s2 = s1 + rng.uniform(0.0, 1.0)
    return GaussChannel(*(np.array([[v]]) for v in (rng.uniform(0.5, 3.0), s1, s2,
                                                    s2 + rng.uniform(0.0, 1.0))))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_mixture_regions_match_the_quadrature_formulas(seed):
    rng = np.random.default_rng(seed)
    ch = _scalar_channel(rng)
    mixes = [random_mixture(rng) for _ in range(3)]
    # U constant: I(U; Y2) and I(U; Z) are 0
    mixes.append(ScalarMixture(np.zeros(3), rng.normal(size=3), rng.dirichlet(np.ones(3))))
    cap = ch.scalars[0]
    mixes = [ScalarMixture(m.u_points, m.x_points * min(1.0, math.sqrt(0.98 * cap
                                                                       / m.second_moment())),
                           m.weights) for m in mixes]
    assert_columns(mixture_region_constants(mixes, ch),
                   five_bound_columns(**mixture_constants(mixes, ch)))


def output_sources():
    rng = np.random.default_rng(5)
    ch = gauss_channel(rng, 2)
    scalar = _scalar_channel(rng)
    return {"gauss": _GaussSource(random_psd_under(rng, ch.S, 3), ch),
            "mixture": _MixtureSource([random_mixture(rng) for _ in range(3)], scalar)}


@pytest.mark.parametrize("source", ["gauss", "mixture"])
@pytest.mark.parametrize("rhs, message", [
    (expand_mi({"U"}, {"Y2"}) + ent({"Y1"}), "is not balanced"),        # h(Y1)'s constant
    (ent({"U", "Y2"}) - ent({"Y2"}), "is not balanced"),                # h(U) is left out
    (expand_mi({"X"}, {"Z"}) - ent({"X"}), "is not balanced"),          # so is h(X)
    (expand_mi({"Y1"}, {"Z"}, {"U"}), "holds two outputs"),
], ids=["output", "input-U", "input-X", "two-outputs"])
def test_an_output_source_refuses_an_unbalanced_row(source, rhs, message):
    rows = IneqSystem.of(("R",), [LinIneq.of({"R": 1}, expand_mi({"U"}, {"Z"})),
                                  LinIneq.of({"R": 1}, rhs)])
    with pytest.raises(UnbalancedExpression, match=message):
        instantiate(rows, output_sources()[source])
