import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import by_label, random_aux_layered, stack_of, system_of, table_of
from hull_oracle import in_hull
from wiretap_regions import fm_script, info_core, polytope_fm, regions_discrete
from wiretap_regions.errors import (
    BudgetZero,
    InconsistentAux,
    LPFailure,
    NegativeMass,
    TableTooLarge,
    UnknownCorollary,
    ValidationError,
    raise_for_first,
)
from wiretap_regions.info_core import (
    ChannelSpec,
    VarId,
    build_degraded_joint,
    take_stack,
)
from wiretap_regions.io_files import region_csv_text
from wiretap_regions.polytope_fm import (
    IneqSystem,
    LinIneq,
    SystemStack,
    apply_rate_transfer,
    fm_eliminate,
    max_violation,
    region_equal,
    solve_lp,
    support_value,
    vertices,
)
from wiretap_regions.regions_discrete import (
    RATES,
    AuxJoint,
    dominance_slack,
    eval_degraded_inner,
    eval_degraded_outer,
    eval_general_inner,
    eval_original_inner,
    five_bound_system,
    hull_of,
    outer_of,
    pareto_front,
    random_aux_ux,
    reduction_aux,
    specialize_corollary,
    sweep_inner_region,
)

# frozen by the 16-cell direct-summation oracle below (30-digit arithmetic)
CASCADE_C7 = 0.15516374925900341
CASCADE_C9 = 0.2881836954960068


def bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def ux_aux(arr):
    arr = np.asarray(arr, dtype=float)
    return AuxJoint(table_of((VarId("U", arr.shape[0]), VarId("X", arr.shape[1])), arr))


UX_COPY = ux_aux(np.array([[0.5, 0.0], [0.0, 0.5]]))


def cascade_channel():
    return build_degraded_joint(bsc(0.05), bsc(0.1), bsc(0.15))


def identity_channel():
    return build_degraded_joint(np.eye(2), np.eye(2), np.eye(2))


def direct_mi(joint, ai, bi, ci=()):
    """Independent oracle: plain-python conditional MI over a dense joint."""
    joint = np.asarray(joint)
    axes = tuple(range(joint.ndim))
    marg = {}

    def m(keep):
        keep = tuple(sorted(keep))
        if keep not in marg:
            drop = tuple(a for a in axes if a not in keep)
            marg[keep] = joint.sum(axis=drop, keepdims=True)
        return marg[keep]

    pabc = m(tuple(ai) + tuple(bi) + tuple(ci))
    pa = m(tuple(ai) + tuple(ci))
    pb = m(tuple(bi) + tuple(ci))
    pc = m(tuple(ci))
    total = 0.0
    for idx in np.ndindex(pabc.shape):
        p = pabc[idx]
        if p <= 0:
            continue
        ia = tuple(idx[a] if a in set(ai) | set(ci) else 0 for a in axes)
        ib = tuple(idx[a] if a in set(bi) | set(ci) else 0 for a in axes)
        ic = tuple(idx[a] if a in set(ci) else 0 for a in axes)
        total += p * math.log(p * pc[ic] / (pa[ia] * pb[ib]))
    return total


def test_cascade_constants_match_direct_summation():
    ch = cascade_channel()
    # 16-cell joint over (X, Y1, Y2, Z) with U = X uniform
    k = np.einsum("xa,ab,bc->xabc", *ch.stages)
    joint = 0.5 * k
    iuy2 = direct_mi(joint, (0,), (2,))
    iuz = direct_mi(joint, (0,), (3,))
    by = by_label(eval_degraded_inner(UX_COPY, ch))
    assert by["rs2"] == pytest.approx(iuy2 - iuz, abs=1e-12)
    assert by["rs2"] == pytest.approx(CASCADE_C7, abs=1e-12)
    assert by["rs2p2"] == pytest.approx(CASCADE_C9, abs=1e-12)
    # U = X collapses the conditional terms
    assert by["rs12"] == pytest.approx(by["rs2"], abs=1e-12)
    assert by["total"] == pytest.approx(by["rs2p2"], abs=1e-12)


def test_identity_channel_kills_secrecy():
    by = by_label(eval_degraded_inner(UX_COPY, identity_channel()))
    assert by["rs2"] == pytest.approx(0.0, abs=1e-12)
    assert by["rs12"] == pytest.approx(0.0, abs=1e-12)
    assert by["rs12p2"] == pytest.approx(by["total"], abs=1e-12)
    assert by["total"] == pytest.approx(math.log(2), abs=1e-12)


def test_eavesdropper_cut_off():
    # p(z|y2) uniform makes every eavesdropper term vanish
    ch = build_degraded_joint(bsc(0.1), bsc(0.05), np.full((2, 2), 0.5))
    aux = ux_aux([[0.35, 0.15], [0.1, 0.4]])
    by = by_label(eval_degraded_inner(aux, ch))
    assert by["rs2"] == pytest.approx(by["rs2p2"], abs=1e-12)
    assert by["rs12"] == pytest.approx(by["total"], abs=1e-12)
    orig = by_label(eval_original_inner(aux, ch))
    assert orig["rp2"] == pytest.approx(0.0, abs=1e-12)
    assert orig["rp1"] == pytest.approx(0.0, abs=1e-12)


def test_original_inner_identity_channel():
    orig = by_label(eval_original_inner(UX_COPY, identity_channel()))
    assert orig["rs1"] == pytest.approx(0.0, abs=1e-12)


def test_outer_is_inner_without_extra_bound():
    ch = cascade_channel()
    aux = ux_aux([[0.3, 0.2], [0.1, 0.4]])
    inner = eval_degraded_inner(aux, ch)
    outer = eval_degraded_outer(aux, ch)
    assert [q.label for q in outer.rows.ineqs] == ["rs2", "rs12", "rs2p2", "total"]
    trimmed = system_of(inner)
    trimmed = trimmed.with_ineqs([q for q in trimmed.ineqs if q.label != "rs12p2"])
    assert region_equal(stack_of(trimmed), outer)


def rand_degraded_channel(rng, cx=3, c1=3, c2=3, cz=3):
    return build_degraded_joint(rng.dirichlet(np.ones(c1), size=cx),
                                rng.dirichlet(np.ones(c2), size=c1),
                                rng.dirichlet(np.ones(cz), size=c2))


def test_transfer_equivalence_sampled():
    rng = np.random.default_rng(11)
    for _ in range(10):
        ch = rand_degraded_channel(rng)
        aux = random_aux_ux(rng, 4, 3)
        orig = system_of(eval_original_inner(aux, ch))
        s = apply_rate_transfer(orig, [("Rs1", "Rp1"), ("Rs2", "Rp2")], ["t1", "t2"])
        s = fm_eliminate(fm_eliminate(s, "t1"), "t2")
        s = apply_rate_transfer(s, [("Rs2", "Rp1"), ("Rs2", "Rs1")], ["t3", "t4"])
        s = fm_eliminate(fm_eliminate(s, "t3"), "t4")
        s = apply_rate_transfer(s, [("Rp2", "Rp1")], ["t5"])
        s = fm_eliminate(s, "t5")
        assert region_equal(stack_of(s), eval_degraded_inner(aux, ch))


def test_inner_inside_outer_sampled():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ch = rand_degraded_channel(rng)
        aux = random_aux_ux(rng, 4, 3)
        inner = eval_degraded_inner(aux, ch)
        outer = eval_degraded_outer(aux, ch)
        for p in vertices(inner).vertices:
            assert max_violation(outer, p, var_order=inner.vars) <= 1e-9


def test_general_reduction_matches_degraded():
    rng = np.random.default_rng(13)
    for _ in range(5):
        ch = rand_degraded_channel(rng, cx=2, c1=2, c2=2, cz=2)
        aux = random_aux_ux(rng, 3, 2)
        gen = eval_general_inner(reduction_aux(aux), ch)
        assert region_equal(gen, eval_degraded_inner(aux, ch))


def test_general_inner_vacuous_v_layers():
    # V1, V2 independent of everything: all V-terms vanish
    rng = np.random.default_rng(14)
    ch = rand_degraded_channel(rng, cx=2, c1=2, c2=2, cz=2)
    p_qu = rng.dirichlet(np.ones(4)).reshape(2, 2)
    p_x_u = rng.dirichlet(np.ones(2), size=2)
    arr = np.einsum("qu,a,b,ux->quabx", p_qu, np.full(2, 0.5), np.full(2, 0.5), p_x_u)
    aux = AuxJoint(table_of((VarId("Q", 2), VarId("U", 2), VarId("V1", 2),
                             VarId("V2", 2), VarId("X", 2)), arr))
    by = by_label(eval_general_inner(aux, ch))
    assert by["rs1"] == pytest.approx(by["rs2"], abs=1e-10)
    assert by["rs12"] == pytest.approx(by["rs1"], abs=1e-10)


def test_layered_aux_validation():
    rng = np.random.default_rng(15)
    arr = rng.dirichlet(np.ones(32)).reshape(2, 2, 2, 2, 2)
    with pytest.raises(InconsistentAux):
        AuxJoint(table_of((VarId("Q", 2), VarId("U", 2), VarId("V1", 2),
                           VarId("V2", 2), VarId("X", 2)), arr))


def test_a_stacked_layered_aux_names_the_member_that_breaks_the_factorization():
    rng = np.random.default_rng(15)
    vars_ = tuple(VarId(n, 2) for n in ("Q", "U", "V1", "V2", "X"))
    probs = np.stack([regions_discrete._layered_probs(rng, 2, 2, 2, 2, 2, k % 2 == 0)
                      for k in range(6)])
    assert AuxJoint(take_stack(vars_, np.array(probs, dtype=float))).kind == "layered"
    probs[3] = rng.dirichlet(np.ones(32)).reshape(2, 2, 2, 2, 2)
    with pytest.raises(InconsistentAux, match=r"^instance 3: I\(Q; V1,V2,X \| U\)") as e:
        AuxJoint(take_stack(vars_, np.array(probs, dtype=float)))
    assert e.value.instance == (3,)
    with pytest.raises(InconsistentAux) as alone:
        AuxJoint(table_of(vars_, probs[3]))
    assert alone.value.instance == (0,) and alone.value.detail == e.value.detail


def test_reduction_embeds_each_member_of_a_stacked_aux():
    # member k of the reduction of a stack is the reduction of member k alone,
    # bit for bit, and its region is member k's degraded region
    probs = np.random.default_rng(4).dirichlet(np.ones(6), size=3).reshape(3, 3, 2)
    probs[1] = [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]   # zero cells
    aux = AuxJoint(take_stack((VarId("U", 3), VarId("X", 2)), probs))
    got = reduction_aux(aux)
    assert got.kind == "layered" and got.table.probs.shape == (3, 1, 3, 2, 3, 2)
    for k, p in enumerate(probs):
        want = np.zeros((1, 3, 2, 3, 2))
        for u in range(3):
            for x in range(2):
                want[0, u, x, u, x] = p[u, x]
        assert got.table.probs[k].tobytes() == want.tobytes()
        one = reduction_aux(ux_aux(p))
        assert one.table.probs.tobytes() == want.tobytes()
    assert region_equal(eval_general_inner(got, cascade_channel()),
                        eval_degraded_inner(aux, cascade_channel()))


def test_corollaries_match_inner_outer():
    rng = np.random.default_rng(16)
    for _ in range(5):
        ch = rand_degraded_channel(rng)
        aux = random_aux_ux(rng, 4, 3)
        inner = eval_degraded_inner(aux, ch)
        outer = eval_degraded_outer(aux, ch)
        for which in ("cor1", "cor2", "cor3"):
            a = specialize_corollary(inner, which)
            b = specialize_corollary(outer, which)
            assert region_equal(a, b), which


def test_corollary_shapes_generic_aux():
    ch = cascade_channel()
    aux = ux_aux([[0.3, 0.2], [0.1, 0.4]])
    inner = eval_degraded_inner(aux, ch)
    cor1 = specialize_corollary(inner, "cor1")
    assert sorted(tuple(v for v, _ in q.nums) for q in cor1.rows.ineqs) == [
        ("Rp1", "Rp2", "Rs2"), ("Rp2", "Rs2"), ("Rs2",)]
    cor3 = specialize_corollary(inner, "cor3")
    assert sorted(tuple(v for v, _ in q.nums) for q in cor3.rows.ineqs) == [("Rs1", "Rs2"),
                                                                          ("Rs2",)]


def test_cor3_alt_contained_per_aux():
    ch = cascade_channel()
    aux = ux_aux([[0.3, 0.2], [0.1, 0.4]])
    inner = eval_degraded_inner(aux, ch)
    alt = specialize_corollary(inner, "cor3_alt")
    cor3 = specialize_corollary(inner, "cor3")
    for p in vertices(alt).vertices:
        assert max_violation(cor3, p, var_order=alt.vars) <= 1e-9
    with pytest.raises(UnknownCorollary):
        specialize_corollary(eval_degraded_outer(aux, ch), "cor3_alt")
    with pytest.raises(UnknownCorollary):
        specialize_corollary(inner, "cor9")


def test_corollary_pruning_keeps_a_row_a_mixed_sign_row_does_not_imply():
    # a - b <= 0.5 does not bound a on its own: (a, b) = (3.5, 3) meets it and b <= 3
    sys = IneqSystem.of(("a", "b"), [LinIneq.of({"a": 1}, 1.0, label="a"),
                                     LinIneq.of({"a": 1, "b": -1}, 0.5, label="a-b"),
                                     LinIneq.of({"b": 1}, 3.0, label="b")])
    pruned = regions_discrete._prune_dominated(stack_of(sys))
    assert [q.label for q in pruned.rows.ineqs] == ["a", "a-b", "b"]
    assert region_equal(pruned, stack_of(sys))


# Rows with coefficients in {-1, 0, 1}, at least one of them 1, and a dyadic
# right-hand side >= 0: one such row implies another on the orthant exactly
# when it has at least its coefficients and at most its right-hand side.
_PRUNE_VARS = ("a", "b", "c")
_SIGNED_ROW = st.tuples(st.tuples(*[st.integers(-1, 1)] * 3).filter(lambda c: 1 in c),
                        st.integers(0, 12).map(lambda k: k / 4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_SIGNED_ROW, min_size=1, max_size=8))
def test_corollary_pruning_keeps_the_region_and_drops_every_implied_row(rows):
    box = LinIneq.of(dict.fromkeys(_PRUNE_VARS, 1), 4.0)   # keeps the region bounded
    sys = IneqSystem.of(_PRUNE_VARS, [LinIneq.of(dict(zip(_PRUNE_VARS, c)), b)
                                      for c, b in rows] + [box])
    pruned = regions_discrete._prune_dominated(stack_of(sys))
    assert region_equal(pruned, stack_of(sys))
    kept = pruned.rows.ineqs
    # max of each kept row's left side over the orthant part of another kept row
    jobs = [(stack_of(sys.with_ineqs([qj])), [{v: float(c) for v, c in qi.coeffs}
                                       for qi in kept if qi is not qj]) for qj in kept]
    for qj, values in zip(kept, support_value(jobs)):
        others = [qi for qi in kept if qi is not qj]
        for qi, value in zip(others, values):
            assert value is None or value > float(qi.rhs.constant) + 1e-9, (qj, qi)


def _stacked_aux(aux, n):
    t = aux.table
    return AuxJoint(take_stack(t.vars, np.concatenate([t.probs] * n)))


@pytest.mark.parametrize("evaluate, module, layered", [
    (eval_degraded_inner, regions_discrete, False),
    (eval_degraded_outer, regions_discrete, False),
    (eval_original_inner, regions_discrete, False),
    (eval_general_inner, fm_script, True),
], ids=["inner", "outer", "original", "general"])
def test_an_error_on_a_lone_aux_names_no_instance(monkeypatch, evaluate, module, layered):
    # an error a stacked check raises names its member; that a file's one aux
    # names none is the command's rule (test_cli_io's
    # test_an_error_evaluating_an_aux_file_names_no_instance)
    def mutual_information(t, *sets):
        raise_for_first(np.arange(len(t.probs)) == len(t.probs) - 1, NegativeMass,
                        lambda k: "mutual information -1e-09 below clamp -1e-12")

    monkeypatch.setattr(module, "mutual_information", mutual_information)
    aux = (random_aux_layered(np.random.default_rng(3), 2, 2, 2, 2, 2) if layered
           else ux_aux(np.full((2, 2), 0.25)))
    with pytest.raises(NegativeMass, match="^instance 2: mutual information") as stacked:
        evaluate(_stacked_aux(aux, 3), cascade_channel())
    assert stacked.value.instance == (2,)


def first_corner_aux(ch):
    # mirrors the first hand-picked sweep sample: U = X embedded in the larger alphabet
    card_x = ch.input.cardinality
    card_u = card_x + 3
    eye = np.zeros((card_u, card_x))
    for x in range(card_x):
        eye[x % card_u, x] = 1.0 / card_x
    return ux_aux(eye)


def test_sweep_budget_one_singleton():
    ch = cascade_channel()
    res = sweep_inner_region(ch, 1, seed=5)
    assert len(res.rows) == 1
    single = vertices(eval_degraded_inner(first_corner_aux(ch), ch)).vertices
    assert res.points.shape[0] == single.shape[0]
    assert in_hull(res.hull_points[0], single)


def test_sweep_identity_channel_no_secrecy():
    res = sweep_inner_region(identity_channel(), 5, seed=6)
    assert np.abs(res.points[:, [1, 3]]).max() <= 1e-9


def test_sweep_budget_monotone():
    ch = cascade_channel()
    small = sweep_inner_region(ch, 4, seed=7)
    big = sweep_inner_region(ch, 8, seed=7)
    for p in small.hull_points:
        assert in_hull(p, big.points, tol=1e-9)


def test_general_sweep_empty_samples_by_draw_family():
    # a baseline that a change of either draw family must move on purpose:
    # even samples draw V1 and V2 independent given U, odd samples draw
    # (V1, V2, X) given U from one flat Dirichlet, whose Marton penalty
    # I(V1;V2|U) empties every region.  Channels shaped as the benchmark's:
    # |X| = 3 cascades, each stage half the identity and half a Dirichlet(2) draw
    empty, drawn = [0, 0], [0, 0]
    for k in range(4):
        rng = np.random.default_rng([25, k])
        ch = build_degraded_joint(*(0.5 * np.eye(3) + 0.5 * rng.dirichlet([2.0] * 3, size=3)
                                    for _ in range(3)))
        for i, _, _, n in sweep_inner_region(ch, 50, seed=k, mode="general").rows:
            empty[i % 2] += n == 0
            drawn[i % 2] += 1
    assert drawn == [100, 100]
    assert empty == [0, 100]


def _gauss_2x2():
    from wiretap_regions.regions_gaussian import GaussChannel

    eye = np.eye(2)
    return GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * eye, Sigma2=eye,
                        SigmaZ=2 * eye)


def _region_sweep(mode):
    return lambda budget: sweep_inner_region(cascade_channel(), budget, seed=11, mode=mode)


def _gauss_sweep(mode):
    from wiretap_regions.regions_gaussian import sweep_covariances

    return lambda budget: sweep_covariances(_gauss_2x2(), budget, seed=11, mode=mode)


@pytest.mark.parametrize("sweep", [_region_sweep("degraded"), _region_sweep("general"),
                                   _gauss_sweep("fixed_S"), _gauss_sweep("trace_P")],
                         ids=["degraded", "general", "fixed_S", "trace_P"])
def test_a_larger_budget_extends_a_smaller_one(sweep):
    # every sample is drawn before any is evaluated, in one stream order
    big = sweep(9)
    for k in (2, 5):
        small = sweep(k)
        assert small.rows == big.rows[:k]
        assert small.points.tobytes() == big.points[:len(small.points)].tobytes()


def _discrete3_channel(seed):
    # the benchmark's discrete3 shape: a degraded cascade over ternary
    # alphabets, each stage 0.5 I + 0.5 Dirichlet(2, 2, 2) rows
    rng = np.random.default_rng(seed)
    return build_degraded_joint(*(0.5 * np.eye(3) + 0.5 * rng.dirichlet([2.0] * 3, size=3)
                                  for _ in range(3)))


def _zero_row_channel():
    # deterministic stages with zeros in every row: every output joint of
    # every sample holds zero cells
    return build_degraded_joint(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0.5, 0.5]]),
                                np.array([[1.0, 0, 0], [0, 0, 1], [0, 0, 1]]),
                                np.array([[1.0, 0], [0.5, 0.5], [0, 1]]))


def _sweep_one_at_a_time(ch, budget, seed, mode):
    """Reference: each aux drawn and evaluated alone, in the sweep's stream
    order, then merged by sweep_systems as one stack of their right-hand
    sides."""
    rng = np.random.default_rng(seed)
    card_x = ch.input.cardinality
    card_u, card_v = card_x + 3, card_x + 1
    samples = []
    for i in range(budget):
        if mode == "general":
            aux = random_aux_layered(rng, 2, card_u, card_v, card_v, card_x, indep_v=i % 2 == 0)
            samples.append((regions_discrete._aux_hash(aux.table.probs),
                            eval_general_inner(aux, ch)))
            continue
        if i < 3:
            aux = ux_aux(regions_discrete._corner_aux_ux(card_u, card_x)[i])
            # U = X and a constant U hold zero cells, an independent U none:
            # the stack mixes tables with and without zero cells
            assert (aux.table.probs == 0).any() == (i < 2)
        else:
            aux = random_aux_ux(rng, card_u, card_x)
        samples.append((regions_discrete._aux_hash(aux.table.probs), eval_degraded_inner(aux, ch)))
    tags, systems = zip(*samples)
    return regions_discrete.sweep_systems(
        list(tags), SystemStack(systems[0].rows, np.concatenate([s.rhs for s in systems])))


@pytest.mark.parametrize("mode, aux_cells", [("degraded", 5 * 2), ("general", 2 * 5 * 3 * 3 * 2)])
def test_sweep_refuses_output_joints_over_the_cell_cap(monkeypatch, mode, aux_cells):
    # a binary-input sweep draws |U| = 5 and |V1| = |V2| = 3, and each output
    # joint of a binary-output channel has twice its aux's cells: the stacks
    # check each of their tables against the cap as a lone table does, from
    # the cardinalities, before any aux is drawn (budget 4 draws one aux past
    # the three degraded corners)
    ch = cascade_channel()
    monkeypatch.setattr(info_core, "MAX_CELLS", 2 * aux_cells)
    sweep_inner_region(ch, 4, seed=0, mode=mode)

    def drawn(*args):
        raise AssertionError("an aux was drawn")

    monkeypatch.setattr(regions_discrete, "_ux_probs", drawn)
    monkeypatch.setattr(regions_discrete, "_layered_probs", drawn)
    monkeypatch.setattr(info_core, "MAX_CELLS", 2 * aux_cells - 1)
    with pytest.raises(TableTooLarge):
        sweep_inner_region(ch, 4, seed=0, mode=mode)


def _traced_sweep(ch, budget, mode):
    """The CSV of a sweep and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        text = region_csv_text(sweep_inner_region(ch, budget, seed=4, mode=mode))
        return text, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["degraded", "general"])
def test_a_sweep_in_blocks_keeps_its_output_and_bounds_its_memory(monkeypatch, mode):
    # |X| = 6 with binary outputs: a general aux has 5,292 cells and its
    # output joints 10,584 each; vertices() enumerates one sample a block, so
    # only the aux tables could grow with the budget
    ch = build_degraded_joint(np.random.default_rng(3).dirichlet([1.0, 1.0], size=6),
                              bsc(0.1), bsc(0.2))
    sweep_inner_region(ch, 1, seed=4, mode=mode)   # first-call caches are not traced
    monkeypatch.setattr(polytope_fm, "_BLOCK_SOLVES", 1)
    one_block = {b: _traced_sweep(ch, b, mode) for b in (3, 10, 40)}
    widest = 2 * (9 * 6 if mode == "degraded" else 2 * 9 * 7 * 7 * 6)
    if mode == "general":
        assert one_block[40][1] > 2 * one_block[10][1]
    # blocks of 2 split the degraded corners, blocks of 3 the general
    # sweep's alternation of V1, V2 independent and not
    for per_block in (2, 3):
        monkeypatch.setattr(regions_discrete, "_BLOCK_CELLS", per_block * widest)
        blocks = {b: _traced_sweep(ch, b, mode) for b in (3, 10, 40)}
        for b in (3, 10, 40):
            assert blocks[b][0] == one_block[b][0]
        if mode == "general":
            assert blocks[40][1] < 1.2 * blocks[10][1]


@pytest.mark.parametrize("mode", ["degraded", "general"])
@pytest.mark.parametrize("channel", [_discrete3_channel(1), _discrete3_channel(2),
                                     _zero_row_channel()],
                         ids=["discrete3-1", "discrete3-2", "zero-rows"])
def test_stacked_sweep_equals_the_one_at_a_time_loop(channel, mode):
    # one stacked evaluation of every aux gives the loop's output byte for byte
    texts = {}
    for budget in (1, 2, 3, 4, 20):
        got = sweep_inner_region(channel, budget, seed=4, mode=mode)
        want = _sweep_one_at_a_time(channel, budget, 4, mode)
        texts[budget] = region_csv_text(got)
        assert texts[budget] == region_csv_text(want)
        assert got.rows == want.rows
        assert got.points.tobytes() == want.points.tobytes()
        # a larger budget's first sample rows are a smaller one's
        assert got.rows[:1] == sweep_inner_region(channel, 1, seed=4, mode=mode).rows
    samples = [[line for line in texts[b].splitlines() if line.startswith("sample,")]
               for b in (1, 2, 3, 4, 20)]
    for small, big in zip(samples, samples[1:]):
        assert big[:len(small)] == small


def test_a_general_sweep_sums_each_output_joint_over_an_axis_once(monkeypatch):
    # the Imin symbols and the target read each output joint's entropies in
    # one batch, so no full joint is summed over one of its axes twice in an
    # op (one batch per mutual information summed the Y1 and Y2 joints over X
    # 7 times an op)
    real, summed = info_core._sum_axis, []

    def sum_axis(arr, axis):
        summed.append((id(arr), arr.size, axis))
        return real(arr, axis)

    monkeypatch.setattr(info_core, "_sum_axis", sum_axis)
    for seed in (1, 6):
        summed.clear()
        sweep_inner_region(_discrete3_channel(1), 50, seed=seed, mode="general")
        largest = max(size for _, size, _ in summed)
        full = [(i, axis) for i, size, axis in summed if size == largest]
        assert len(full) == len(set(full))
        assert len({i for i, _ in full}) == 3      # the Y1, Y2 and Z joints


def test_flat_cloud_is_hulled_in_its_span():
    # Rs1 = Rs2 = 0 throughout: the cloud is the triangle Rp1 + Rp2 <= log 2
    res = sweep_inner_region(identity_channel(), 40, seed=6)
    cloud = np.round(res.points, 12)
    assert res.hull_points.shape[0] == 3
    for h in res.hull_points:
        assert (cloud == h).all(axis=1).any()
    for p in res.points:
        assert in_hull(p, res.hull_points, tol=1e-9)


def test_small_cloud_keeps_only_its_vertices():
    # three collinear points: fewer than d + 1, and the middle one is no vertex
    hull = hull_of(np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]]))
    assert sorted(map(tuple, hull)) == [(0.0, 0, 0, 0), (2.0, 0, 0, 0)]


def test_sweep_zero_budget():
    with pytest.raises(BudgetZero):
        sweep_inner_region(cascade_channel(), 0, seed=1)


def test_sweep_unknown_mode_is_an_input_error():
    with pytest.raises(ValidationError):
        sweep_inner_region(cascade_channel(), 2, seed=1, mode="layered")


# Constants and directions on dyadic grids: every bound is then exactly 0 or at
# least 1/64 away from it, and every LP reduced cost is 0 or far above HiGHS's
# 1e-7 optimality tolerance, so the properties hold exactly up to rounding.
_CONST = st.integers(-64, 128).map(lambda k: k / 64)
_DIRECTION = st.tuples(*[st.integers(-8, 8).map(lambda k: k / 8)] * 4)


def test_five_bound_systems_share_their_rows():
    a = five_bound_system(1.0, 0.25, 2.0, 0.5, 0.75)
    b = five_bound_system(3.0, 1.0, 0.0, 0.0, 0.0)
    assert a.rows is b.rows
    assert list(by_label(a).items()) == [
        ("rs2", 0.75), ("rs12", 2.5), ("rs2p2", 1.0), ("rs12p2", 2.25), ("total", 3.0)]
    assert [dict(q.coeffs) for q in b.rows.ineqs] == [
        {"Rs2": 1}, {"Rs1": 1, "Rs2": 1}, {"Rp2": 1, "Rs2": 1}, {"Rs1": 1, "Rp2": 1, "Rs2": 1},
        {"Rp1": 1, "Rs1": 1, "Rp2": 1, "Rs2": 1}]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[_CONST] * 5), st.lists(_DIRECTION, min_size=3, max_size=3))
def test_five_bound_vertices_agree_with_support_values(consts, directions):
    sys = five_bound_system(*consts)
    pts = vertices(sys).vertices
    for d in directions:
        value = support_value([(sys, [dict(zip(RATES, d))])])[0][0]
        if pts.shape[0] == 0:
            assert value == float("-inf")
        else:
            assert abs(float((pts @ np.array(d)).max()) - value) <= 1e-7
    outer = outer_of(sys)
    for p in pts:
        assert max_violation(outer, p) <= 1e-9


# Continuous constants and directions, some components scaled down to 1e-7 or
# 1e-9: reduced costs near HiGHS's default tolerances, where an LP at those
# tolerances stops short of the maximum.
_CONST_CONT = st.floats(-1.0, 2.0)
_COMPONENT = st.builds(lambda x, scale: x * scale, st.floats(-1.0, 1.0),
                       st.sampled_from([1.0, 1.0, 1e-7, 1e-9]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[_CONST_CONT] * 5),
       st.lists(st.tuples(*[_COMPONENT] * 4), min_size=1, max_size=4))
@example((1.8527390215858563, -0.6321863097597636, -0.6552903102988145, 0.3144915126272878,
          1.0), [(1e-07, 0.2535958247649386, 0.03570986999225689, 0.08667615142540286)])
def test_stacked_support_values_are_vertex_maxima(consts, directions):
    sys = five_bound_system(*consts)
    objectives = [dict(zip(RATES, d)) for d in directions]
    values = support_value([(sys, objectives)])[0]
    alone = [support_value([(sys, [o])])[0][0] for o in objectives]
    pts = vertices(sys).vertices
    if pts.shape[0] == 0:
        assert values == alone == [float("-inf")] * len(directions)
        return
    tol = 1e-9 * (1.0 + np.abs(pts).sum(axis=1).max())
    for d, value, one in zip(directions, values, alone):
        assert abs(float((pts @ np.array(d)).max()) - value) <= tol
        assert abs(value - one) <= tol


# dyadic coordinates, so that rows tie and dominate each other often and no
# slack sits inside the solver tolerances
_COORD = st.integers(0, 4).map(lambda k: k / 4)
_ROW = st.tuples(*[_COORD] * 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=10), st.lists(st.integers(0, 9), max_size=4),
       st.lists(st.tuples(*[st.integers(-4, 12).map(lambda k: k / 8)] * 4),
                min_size=2, max_size=2))
def test_pareto_front_keeps_what_dominance_needs(rows, dups, probes):
    cloud = np.array(rows + [rows[i % len(rows)] for i in dups])
    front = pareto_front(cloud)
    it = iter(map(tuple, cloud))
    assert all(row in it for row in map(tuple, front))   # a subsequence of the input
    for row in cloud:
        assert (front >= row).all(axis=1).any()
    for i, row in enumerate(front):
        others = np.delete(front, i, axis=0)
        assert not (others >= row).all(axis=1).any()
    for p in probes:
        assert abs(dominance_slack([p], front)[0] - dominance_slack([p], cloud)[0]) <= 1e-9


def primal_dominance_slack(point, cloud) -> float:
    """Reference: one point's slack from the primal LP, min s over simplex
    weights lambda with cloud.T @ lambda + s >= point."""
    n, d = cloud.shape
    res = solve_lp(np.append(np.zeros(n), 1.0), np.hstack([-cloud.T, -np.ones((d, 1))]),
                   -np.asarray(point, dtype=float), np.append(np.ones(n), 0.0)[None, :],
                   [1.0], bounds=[(0, None)] * n + [(None, None)], what="primal dominance")
    return float(res.x[-1])


_PROBE = st.tuples(*[st.integers(-4, 12).map(lambda k: k / 8)] * 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=10), st.lists(_PROBE, min_size=1, max_size=8))
def test_batched_dominance_slack_matches_one_lp_per_point(rows, probes):
    cloud = np.array(rows)
    batched = dominance_slack(probes, cloud)
    assert batched.shape == (len(probes),)
    for p, s in zip(probes, batched):
        assert abs(s - dominance_slack([p], cloud)[0]) <= 1e-9
        assert abs(s - primal_dominance_slack(p, cloud)) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=10), st.lists(_PROBE, min_size=4, max_size=8))
def test_dominance_slack_does_not_depend_on_how_its_points_are_packed(rows, probes):
    cloud = np.array(rows)
    n, real = len(cloud), regions_discrete.solve_lp
    by_budget = {}
    # a budget below n gives every point its own LP
    for budget in (10**6, max(n - 1, 1), n, 2 * n, 3 * n):
        lps = []

        def solve_lp(*args, **kw):
            lps.append(args[1].shape[0])
            return real(*args, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions_discrete, "_DOMINANCE_ROWS", budget)
            mp.setattr(regions_discrete, "solve_lp", solve_lp)
            by_budget[budget] = dominance_slack(probes, cloud)
        per_lp = max(1, budget // n)
        assert len(lps) == -(-len(probes) // per_lp)
        assert max(lps) <= max(budget, n)
        assert len(lps) > 1 or budget == 10**6
    whole = by_budget.pop(10**6)
    for s in by_budget.values():
        np.testing.assert_allclose(s, whole, rtol=0, atol=1e-12)
    for p, s in zip(probes, whole):
        assert abs(s - primal_dominance_slack(p, cloud)) <= 1e-9


@pytest.mark.parametrize("part", ["marginals", "x"])
def test_dominance_slack_raises_when_its_bracket_is_loose(monkeypatch, part):
    # the slack of (1/2, 1/2) over the unit vectors is 0, at lambda = mu = (1/2, 1/2)
    real = regions_discrete.solve_lp

    def solve_lp(*args, **kw):
        res = real(*args, **kw)
        if part == "marginals":   # lambda moves to (1/2 + 1e-6, 1/2 - 1e-6): upper 1e-6
            res.ineqlin.marginals = res.ineqlin.marginals + np.array([-1e-6, 1e-6])
        else:                     # mu's first weight gains 1e-6: lower about -5e-7
            res.x = res.x + np.array([1e-6, 0.0, 0.0])
        return res

    monkeypatch.setattr(regions_discrete, "solve_lp", solve_lp)
    with pytest.raises(LPFailure, match=r"dominance LP of point 0: its slack bracket "
                                        r"\[.*\] is wider than 1e-09"):
        dominance_slack([0.5, 0.5], np.eye(2))


def dense_block_dominance_slack(points, cloud) -> np.ndarray:
    """Reference: dominance_slack's LP with its blocks stacked by scipy's
    block_diag, every zero of the dense blocks stored, and solved with HiGHS
    presolve on."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    p = np.atleast_2d(np.asarray(points, dtype=float))
    (n, d), k = cloud.shape, len(p)
    res = linprog(np.hstack([-p, np.ones((k, 1))]).ravel(),
                  block_diag([np.hstack([cloud, -np.ones((n, 1))])] * k, format="csr"),
                  np.zeros(k * n), block_diag([np.append(np.ones(d), 0.0)[None, :]] * k,
                                              format="csr"),
                  np.ones(k), bounds=([(0, None)] * d + [(None, None)]) * k, method="highs")
    assert res.status == 0
    lam = np.clip(-res.ineqlin.marginals.reshape(k, n), 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    return (p - lam @ cloud).max(axis=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=10), st.lists(_PROBE, min_size=1, max_size=8))
def test_dominance_slack_matches_the_dense_block_lp_with_presolve(rows, probes):
    cloud = np.array(rows)
    np.testing.assert_allclose(dominance_slack(probes, cloud),
                               dense_block_dominance_slack(probes, cloud), rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, min_size=1, max_size=10), st.lists(st.integers(0, 8), min_size=10,
       max_size=10), st.integers(0, 3), st.integers(1, 8).map(lambda k: k / 8))
def test_in_hull_on_dyadic_clouds(rows, weights, col, gap):
    cloud = np.array(rows)
    w = np.array(weights[:len(rows)], dtype=float)
    w[0] += w.sum() == 0
    inside = (w / w.sum()) @ cloud
    assert in_hull(inside, cloud, tol=1e-9)
    outside = inside.copy()
    outside[col] = cloud[:, col].max() + gap
    assert not in_hull(outside, cloud, tol=1e-9)


def test_pareto_front_keeps_order_and_first_duplicate():
    cloud = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.4, 0.4]])
    np.testing.assert_array_equal(pareto_front(cloud), cloud[:3])
    assert pareto_front(np.empty((0, 4))).shape == (0, 4)


def test_dominance_slack_raises_on_solver_failure(monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: scipy.optimize.OptimizeResult(
        status=4, message="numerical difficulties", x=None))
    with pytest.raises(LPFailure, match="status 4"):
        dominance_slack([0.5, 0.5], np.eye(2))


@pytest.mark.parametrize("status", [2, 3])
def test_dominance_slack_raises_when_the_lp_is_not_optimal(monkeypatch, status):
    # an infeasible or unbounded verdict carries no multipliers to read
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: scipy.optimize.OptimizeResult(
        status=status, message="patched", x=None, fun=None))
    with pytest.raises(LPFailure, match=f"dominance LP failed with status {status}"):
        dominance_slack([0.5, 0.5], np.eye(2))


def _relabel(a: np.ndarray, perms) -> np.ndarray:
    """``a`` with letter i of axis k renamed ``perms[k][i]``."""
    for k, p in enumerate(perms):
        a = np.take(a, np.argsort(p), axis=k)
    return a


@st.composite
def _relabelled_model(draw):
    """A channel with |X| = 3 (a cascade, the cascade as a dense kernel, or a
    random dense kernel), a (U, X) aux and a layered aux, and the same three
    with the letters of X, Y1, Y2, Z and of every aux variable permuted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["cascade", "kernel", "dense"]))
    cards = (3, *(draw(st.integers(2, 3)) for _ in range(3)))
    aux_cards = tuple(draw(st.integers(lo, 3)) for lo in (2, 1, 1, 1))   # U, Q, V1, V2
    px, p1, p2, pz, pu, pq, pv1, pv2 = (draw(st.permutations(range(n)))
                                        for n in cards + aux_cards)
    stages = [rng.dirichlet(np.ones(m), size=n) for n, m in zip(cards, cards[1:])]
    kernel = {"cascade": None, "kernel": np.einsum("xa,ab,bc->xabc", *stages),
              "dense": rng.dirichlet(np.ones(np.prod(cards[1:])), size=3).reshape(cards)}[form]
    ux = rng.dirichlet(np.ones(aux_cards[0] * 3)).reshape(aux_cards[0], 3)
    layered = random_aux_layered(rng, aux_cards[1], aux_cards[0], *aux_cards[2:], 3).table.probs[0]
    outputs = tuple(VarId(n, k) for n, k in zip(("Y1", "Y2", "Z"), cards[1:]))

    def model(stages, kernel, ux, layered):
        return (ChannelSpec(VarId("X", 3), outputs, kernel=kernel, stages=stages),
                AuxJoint(table_of((VarId("U", ux.shape[0]), VarId("X", 3)), ux)),
                AuxJoint(table_of(tuple(map(VarId, regions_discrete.LAYERED_VARS,
                                            layered.shape)), layered)))

    if kernel is None:
        moved = [_relabel(s, p) for s, p in zip(stages, ((px, p1), (p1, p2), (p2, pz)))], None
    else:
        stages, moved = None, (None, _relabel(kernel, (px, p1, p2, pz)))
    return (model(stages, kernel, ux, layered),
            model(*moved, _relabel(ux, (pu, px)), _relabel(layered, (pq, pu, pv1, pv2, px))))


def _rows(stack):
    return [(q.coeffs, q.rel, q.label) for q in stack.rows.ineqs], stack.rhs[0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_relabelled_model())
def test_every_region_row_is_invariant_under_relabelling_the_letters(models):
    # every bound is a difference of entropies, which do not see letter names
    (ch, ux, layered), (ch2, ux2, layered2) = models
    assert ch.degraded == ch2.degraded
    evals = [(eval_general_inner, layered, layered2)]
    if ch.degraded:
        evals += [(f, ux, ux2) for f in (eval_degraded_inner, eval_degraded_outer,
                                         eval_original_inner)]
    for f, aux, aux2 in evals:
        (shape, rhs), (shape2, rhs2) = _rows(f(aux, ch)), _rows(f(aux2, ch2))
        assert shape == shape2
        assert np.abs(rhs - rhs2).max() <= 1e-12
