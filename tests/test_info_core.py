import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap_regions.errors import (
    NegativeMass,
    NotNormalized,
    OverlappingSets,
    ShapeMismatch,
    WiretapError,
)
from wiretap_regions.info_core import (
    MI_CLAMP,
    ChannelSpec,
    VarId,
    build_degraded_joint,
    channel_joint,
    check_markov,
    entropy,
    make_stack,
    make_table,
    mutual_information,
    validate_table,
)
from wiretap_regions.regions_gaussian import CovSplit, GaussChannel, HGaussChannel

X2 = VarId("X", 2)
Y2 = VarId("Y", 2)

# frozen: ln 2 - Hb(0.1) computed by direct summation at 30 digits
BSC01_MI = 0.36806420716849707


def bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def test_validate_uniform_ok():
    validate_table(make_table((X2, Y2), np.full((2, 2), 0.25)))


def test_validate_negative_mass():
    with pytest.raises(NegativeMass):
        make_table((X2, Y2), np.array([[0.6, 0.5], [-0.1, 0.0]]))


def test_validate_not_normalized():
    with pytest.raises(NotNormalized):
        make_table((X2, Y2), np.full((2, 2), 0.225))


OUTS = (VarId("Y1", 2), VarId("Y2", 2), VarId("Z", 2))
NAN_ROW = np.array([[np.nan, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("build", [
    lambda: make_table((VarId("U", 2),), np.array([np.nan, 1.0])),
    lambda: make_table((X2, Y2), 0.5 * NAN_ROW),
    lambda: ChannelSpec(input=X2, outputs=OUTS, stages=(NAN_ROW, bsc(0.1), bsc(0.1))),
    lambda: ChannelSpec(input=X2, outputs=OUTS, stages=(bsc(0.1), bsc(0.1), NAN_ROW)),
    lambda: ChannelSpec(input=X2, outputs=OUTS,
                        kernel=np.full((2, 2, 2, 2), 0.125) * np.where(
                            np.arange(16).reshape(2, 2, 2, 2) == 3, np.nan, 1.0)),
    lambda: CovSplit(K=[[np.nan]]),
    lambda: CovSplit(K0=[[0.1]], K1=[[np.nan]], K2=[[0.1]]),
    lambda: GaussChannel(S=[[np.nan]], Sigma1=[[0.5]], Sigma2=[[1.0]], SigmaZ=[[2.0]]),
    lambda: GaussChannel(S=[[1.0, np.nan], [np.nan, 1.0]], Sigma1=np.eye(2),
                         Sigma2=np.eye(2), SigmaZ=np.eye(2)),
    lambda: HGaussChannel(H1=[[np.nan]], H2=[[1.0]], HZ=[[0.5]]),
    lambda: HGaussChannel(H1=[[1.0, 0.0]], H2=[[0.5, 0.0]], HZ=[[0.0, np.inf]]),
], ids=["table", "table-2d", "stage-first", "stage-last", "kernel", "split-K",
        "split-K1", "gauss-S", "gauss-S-offdiagonal", "gauss-H1", "gauss-HZ-inf"])
def test_constructor_refuses_nan(build):
    with pytest.raises(WiretapError):
        build()


def test_validate_shape_mismatch():
    from wiretap_regions.info_core import ProbTable
    with pytest.raises(ShapeMismatch):
        validate_table(ProbTable((X2, Y2), np.full((2, 3), 1 / 6)))


def test_mi_independent_zero():
    t = make_table((X2, Y2), np.full((2, 2), 0.25))
    assert mutual_information(t, {"X"}, {"Y"}) == 0.0


def test_mi_copy_ln2():
    t = make_table((X2, Y2), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(t, {"X"}, {"Y"}) == pytest.approx(math.log(2), abs=1e-12)


def test_mi_bsc_direct_summation_oracle():
    p = 0.1
    t = make_table((X2, Y2), 0.5 * bsc(p))
    # independent oracle: direct summation over the four cells
    joint = 0.5 * bsc(p)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    oracle = sum(joint[i, j] * math.log(joint[i, j] / (px[i] * py[j]))
                 for i in range(2) for j in range(2))
    got = mutual_information(t, {"X"}, {"Y"})
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(BSC01_MI, abs=1e-12)


def test_mi_overlap_and_unknown():
    t = make_table((X2, Y2), np.full((2, 2), 0.25))
    with pytest.raises(OverlappingSets):
        mutual_information(t, {"X"}, {"X"})
    from wiretap_regions.errors import UnknownVariable
    with pytest.raises(UnknownVariable):
        mutual_information(t, {"X"}, {"W"})


def test_degraded_identity_cascade_is_delta():
    ch = build_degraded_joint(np.eye(2), np.eye(2), np.eye(2))
    k = ch.full_kernel()
    expect = np.zeros((2, 2, 2, 2))
    expect[0, 0, 0, 0] = expect[1, 1, 1, 1] = 1.0
    assert np.allclose(k, expect)


def test_degraded_cascade_bsc_composition():
    # oracle: 2x2 matrix product gives BSC(0.18)
    ch = build_degraded_joint(bsc(0.1), bsc(0.1), np.eye(2))
    assert np.allclose(ch.pair_kernel("Y2"), bsc(0.18), atol=1e-15)


def test_degraded_cascade_markov_by_construction():
    rng = np.random.default_rng(0)
    for _ in range(5):
        s1 = rng.dirichlet(np.ones(3), size=2)
        s2 = rng.dirichlet(np.ones(2), size=3)
        s3 = rng.dirichlet(np.ones(2), size=2)
        ch = build_degraded_joint(s1, s2, s3)
        t = channel_joint(ch, rng.dirichlet(np.ones(2)))
        assert check_markov(t, ["X", "Y1", "Y2", "Z"], tol=1e-10)


def test_markov_false_case():
    # Y1 = X, Z = X, Y2 independent noise: X -> Y1 -> Y2 -> Z fails at Z
    arr = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y2 in range(2):
            arr[x, x, y2, x] = 0.25
    t = make_table((VarId("X", 2), VarId("Y1", 2), VarId("Y2", 2), VarId("Z", 2)), arr)
    assert not check_markov(t, ["X", "Y1", "Y2", "Z"], tol=1e-10)


def test_markov_length_two_vacuous():
    t = make_table((X2, Y2), np.full((2, 2), 0.25))
    assert check_markov(t, ["X", "Y"], tol=0.0)


def test_cell_cap_enforced():
    from wiretap_regions.errors import TableTooLarge
    from wiretap_regions.info_core import ProbTable
    big = tuple(VarId(f"B{i}", 50) for i in range(5))  # 312.5M cells
    with pytest.raises(TableTooLarge):
        ProbTable(big, np.zeros(1))
    # a stack built from an array checks each of its tables as a lone table
    with pytest.raises(TableTooLarge):
        make_stack(big, np.zeros((2, 1)))
    with pytest.raises(ShapeMismatch, match="duplicate"):
        make_stack((X2, X2), np.full((1, 2, 2), 0.25))


def test_infer_degraded_on_dense_kernels():
    from wiretap_regions.info_core import ChannelSpec
    casc = build_degraded_joint(bsc(0.1), bsc(0.1), bsc(0.1))
    dense = ChannelSpec(input=casc.input, outputs=casc.outputs,
                        kernel=casc.full_kernel())
    assert dense.degraded
    # Z a fresh copy of X (not through Y2): not degraded
    arr = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y2 in range(2):
            arr[x, x, y2, x] = 0.5
    bad = ChannelSpec(input=VarId("X", 2),
                      outputs=(VarId("Y1", 2), VarId("Y2", 2), VarId("Z", 2)),
                      kernel=arr)
    assert not bad.degraded


def test_cascade_dimension_mismatch():
    from wiretap_regions.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        build_degraded_joint(np.eye(2), np.eye(3), np.eye(3))


def rand_table(rng, cards):
    vars_ = tuple(VarId(f"T{i}", c) for i, c in enumerate(cards))
    return make_table(vars_, rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards))


def test_mi_nonnegative_and_chain_rule():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rand_table(rng, (2, 3, 2))
        a, b, c = {"T0"}, {"T1"}, {"T2"}
        assert mutual_information(t, a, b, c) >= 0.0
        lhs = mutual_information(t, {"T0", "T1"}, {"T2"})
        rhs = mutual_information(t, {"T0"}, {"T2"}) + mutual_information(t, {"T1"}, {"T2"}, {"T0"})
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_data_processing_under_cascade():
    rng = np.random.default_rng(2)
    for _ in range(10):
        s1 = rng.dirichlet(np.ones(2), size=2)
        s2 = rng.dirichlet(np.ones(2), size=2)
        s3 = rng.dirichlet(np.ones(2), size=2)
        ch = build_degraded_joint(s1, s2, s3)
        t = channel_joint(ch, rng.dirichlet(np.ones(2)))
        i_y1 = mutual_information(t, {"X"}, {"Y1"})
        i_y2 = mutual_information(t, {"X"}, {"Y2"})
        i_z = mutual_information(t, {"X"}, {"Z"})
        assert i_y2 <= i_y1 + 1e-10
        assert i_z <= i_y2 + 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sum_identity_over_positions(n):
    # For random joints over (Q, T1^n, T2^n):
    #   sum_i I(T1_{i+1..n}; T2_i | Q, T2^{i-1}) = sum_i I(T2^{i-1}; T1_i | Q, T1_{i+1..n})
    rng = np.random.default_rng(3 + n)
    cards = (2,) + (2,) * (2 * n)
    names_t1 = [f"A{i}" for i in range(1, n + 1)]
    names_t2 = [f"B{i}" for i in range(1, n + 1)]
    vars_ = (VarId("Q", 2),) + tuple(VarId(nm, 2) for nm in names_t1 + names_t2)
    for _ in range(5):
        t = make_table(vars_, rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards))
        lhs = rhs = 0.0
        for i in range(1, n + 1):
            future1 = set(names_t1[i:])
            past2 = set(names_t2[:i - 1])
            if future1:
                lhs += mutual_information(t, future1, {names_t2[i - 1]}, {"Q"} | past2)
            if past2:
                rhs += mutual_information(t, past2, {names_t1[i - 1]}, {"Q"} | future1)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_difference_identity_with_side_message():
    # I(W;A^n|Q) - I(W;B^n|Q) telescopes into per-position differences
    rng = np.random.default_rng(9)
    n = 2
    names_a = ["A1", "A2"]
    names_b = ["B1", "B2"]
    vars_ = (VarId("Q", 2), VarId("W", 2)) + tuple(VarId(nm, 2) for nm in names_a + names_b)
    for _ in range(5):
        t = make_table(vars_, rng.dirichlet(np.ones(2 ** 6)).reshape((2,) * 6))
        lhs = (mutual_information(t, {"W"}, set(names_a), {"Q"})
               - mutual_information(t, {"W"}, set(names_b), {"Q"}))
        rhs = 0.0
        for i in range(1, n + 1):
            cond = {"Q"} | set(names_a[:i - 1]) | set(names_b[i:])
            rhs += mutual_information(t, {"W"}, {names_a[i - 1]}, cond)
            rhs -= mutual_information(t, {"W"}, {names_b[i - 1]}, cond)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_entropy_computes_each_marginal_once(monkeypatch):
    from wiretap_regions import info_core

    rng = np.random.default_rng(5)
    table = make_table((VarId("A", 2), VarId("B", 3), VarId("C", 4)),
                       rng.dirichlet(np.ones(24)).reshape(2, 3, 4))
    subsets = [None, ["A"], ["B", "A"], ["A", "B"], {"C", "A"}, ["C"], ("A", "B", "C"), []]

    def uncached(names):
        arr = table.probs if names is None else info_core._marginal_array(table, names)
        q = arr[arr > 0.0]
        return float(-(q * np.log(q)).sum())

    expected = [uncached(s) for s in subsets]
    real, marginals = info_core._marginal_array, []

    def marginal_array(t, names):
        marginals.append(frozenset(names))
        return real(t, names)

    monkeypatch.setattr(info_core, "_marginal_array", marginal_array)
    for _ in range(3):
        assert [entropy(table, s) for s in subsets] == expected
    assert len(marginals) == len(set(marginals)) == len({frozenset(s) for s in subsets[1:]})


def _direct_mi(t, a, b, c=()):
    """Reference I(A;B|C): the sum of p(abc) log [p(abc) p(c) / (p(ac) p(bc))]
    over the supported cells of the joint of A, B and C."""
    names = [n for n in t.names if n in set(a) | set(b) | set(c)]
    drop = tuple(i for i, n in enumerate(t.names) if n not in names)
    joint = t.probs.sum(axis=drop) if drop else t.probs

    def marg(sub):
        keep = tuple(i for i, n in enumerate(names) if n not in sub)
        return np.broadcast_to(joint.sum(axis=keep, keepdims=True), joint.shape)

    mask = joint > 0.0
    p, p_ac, p_bc, p_c = (x[mask] for x in (joint, marg(set(a) | set(c)),
                                             marg(set(b) | set(c)), marg(set(c))))
    return float((p * (np.log(p) + np.log(p_c) - np.log(p_ac) - np.log(p_bc))).sum())


@st.composite
def _table_and_groups(draw, groups):
    """A table over 2-5 variables (cardinalities 1-4) with about a third of
    its cells zero, and possibly a last variable that is a function of the
    first, with each variable given to one of ``groups`` sets or to none; the
    first ``groups`` variables go to distinct sets, so every set is nonempty."""
    cards = draw(st.lists(st.integers(1, 4), min_size=max(2, groups), max_size=5))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0))
    w = np.array(draw(st.lists(cell, min_size=int(np.prod(cards)),
                               max_size=int(np.prod(cards))))).reshape(cards)
    w.flat[0] += w.sum() == 0.0
    if draw(st.booleans()):
        f = np.array(draw(st.lists(st.integers(0, cards[-1] - 1), min_size=cards[0],
                                   max_size=cards[0])))
        det = np.zeros_like(w)
        at = np.broadcast_to(f.reshape((-1,) + (1,) * (len(cards) - 1)), tuple(cards[:-1]) + (1,))
        np.put_along_axis(det, at, w.sum(axis=-1, keepdims=True), axis=-1)
        w = det
    t = make_table(tuple(VarId(f"T{i}", k) for i, k in enumerate(cards)), w / w.sum())
    labels = list(range(groups)) + [draw(st.integers(0, groups)) for _ in cards[groups:]]
    return t, [{n for n, g in zip(t.names, labels) if g == k} for k in range(groups)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_table_and_groups(3), st.booleans())
def test_mi_from_entropies_matches_direct_summation(case, conditioned):
    t, (a, b, c) = case
    c = c if conditioned else set()
    assert abs(mutual_information(t, a, b, c) - _direct_mi(t, a, b, c)) <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_table_and_groups(4))
def test_mi_chain_rule(case):
    # I(A;BC|D) = I(A;B|D) + I(A;C|BD)
    t, (a, b, c, d) = case
    lhs = mutual_information(t, a, b | c, d)
    rhs = mutual_information(t, a, b, d) + mutual_information(t, a, c, b | d)
    assert abs(lhs - rhs) <= 1e-12


def _lone_entropy(probs, axes):
    """Reference H: the marginal over ``axes`` of one array, then -sum p log p
    over its positive cells as one 1-d array."""
    drop = tuple(i for i in range(probs.ndim) if i not in axes)
    arr = probs.sum(axis=drop) if drop else probs
    p = arr[arr > 0.0]
    return float(-(p * np.log(p)).sum())


@st.composite
def _stack_case(draw):
    """1-6 arrays over 1-4 variables (cardinalities 1-4), with about a third
    of their cells zero in half the cases."""
    cards = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n = draw(st.integers(1, 6))
    zeros = draw(st.booleans())
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)) if zeros \
        else st.floats(1e-3, 1.0)
    size = int(np.prod(cards))
    arrays = []
    for _ in range(n):
        w = np.array(draw(st.lists(cell, min_size=size, max_size=size))).reshape(cards)
        w.flat[0] += w.sum() == 0.0
        arrays.append(w / w.sum())
    labels = [draw(st.integers(0, 3)) for _ in cards]
    return cards, arrays, labels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_stack_case())
def test_stacked_entropy_and_mi_equal_each_lone_table(case):
    cards, arrays, labels = case
    vars_ = tuple(VarId(f"T{i}", k) for i, k in enumerate(cards))
    names = [v.name for v in vars_]
    lone = [make_table(vars_, a) for a in arrays]
    stack = make_stack(vars_, np.stack(arrays))
    for r in range(len(names) + 1):
        for axes in itertools.combinations(range(len(names)), r):
            subset = [names[i] for i in axes]
            got = entropy(stack, subset)
            assert got.tolist() == [entropy(t, subset) for t in lone]
            assert got.tolist() == [_lone_entropy(a, axes) for a in arrays]
            # the stacked table keeps one read-only array of member values
            memo = stack._entropies[frozenset(subset)]
            assert memo is got and not memo.flags.writeable
    assert entropy(stack).tolist() == [entropy(t) for t in lone]
    a, b, c = ({n for n, g in zip(names, labels) if g == k} for k in (0, 1, 2))
    if a and b:
        got = mutual_information(stack, a, b, c)
        assert got.tolist() == [mutual_information(t, a, b, c) for t in lone]


def test_mi_below_the_clamp_names_its_table():
    vars_ = (VarId("A", 2), VarId("B", 2))
    stack = make_stack(vars_, np.full((4, 2, 2), 0.25))
    lone = make_table(vars_, np.full((2, 2), 0.25))
    # an entropy memo that no table could give: I(A;B) = 2 ln 2 - 10 < 0
    stack._entropies[frozenset({"A", "B"})] = np.array([2 * math.log(2)] * 2 + [10.0] * 2)
    lone._entropies[frozenset({"A", "B"})] = np.array([10.0])
    with pytest.raises(NegativeMass, match="^instance 2: mutual information -8.6") as e:
        mutual_information(stack, {"A"}, {"B"})
    assert e.value.instance == (2,) and e.value.detail.endswith(f"below clamp {MI_CLAMP}")
    with pytest.raises(NegativeMass, match="^mutual information -8.6") as e:
        mutual_information(lone, {"A"}, {"B"})
    assert e.value.instance == ()
    # rounding noise above the clamp reads 0 in every member
    stack._entropies[frozenset({"A", "B"})] = np.full(4, 2 * math.log(2) + 1e-13)
    assert mutual_information(stack, {"A"}, {"B"}).tolist() == [0.0] * 4


def test_a_lone_and_a_stacked_table_refuse_each_others_shape():
    vars_ = (VarId("A", 2), VarId("B", 3))
    probs = np.full((4, 2, 3), 1 / 6)
    with pytest.raises(ShapeMismatch, match=r"^tensor shape \(4, 2, 3\) != cardinalities"):
        make_table(vars_, probs)
    with pytest.raises(ShapeMismatch, match=r"^tensor shape \(2, 3\) != a member axis and"):
        make_stack(vars_, probs[0])
    assert not make_table(vars_, probs[0]).stacked and make_stack(vars_, probs).stacked


def test_a_stack_validates_every_table_and_names_the_first_bad_one():
    vars_ = (VarId("A", 2),)
    probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.6, 0.5], [0.7, 0.5]])
    with pytest.raises(NotNormalized, match="^instance 2: total mass 1.1") as e:
        make_stack(vars_, probs)
    assert e.value.instance == (2,)
    with pytest.raises(NegativeMass, match="^instance 1: entry -0.5"):
        make_stack(vars_, np.array([[0.5, 0.5], [1.5, -0.5]]))
    with pytest.raises(NotNormalized, match="^total mass 1.1"):
        make_table(vars_, probs[2])
