import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import emit_channel_file, random_aux_layered
from wiretap_regions import fm_script, info_core
from wiretap_regions.entropy_algebra import (
    EqualitySet,
    InfoExpr,
    derive_equalities,
    evaluate_all,
    sym,
)
from wiretap_regions.cli import main
from wiretap_regions.errors import (
    DimensionMismatch,
    InconsistentAux,
    ParseError,
    ScriptStepMismatch,
    ValidationError,
)
from wiretap_regions.fm_script import (
    Step,
    _certify_redundant,
    _equality_pivots,
    _substitute_pivots,
    layered_structure,
    load_builtin_chain,
    load_fixture,
    match_systems,
    min_sym_values,
    parse_constraint,
    parse_system,
    random_layered_joint,
    run_step,
    verify_builtin_chain,
    verify_elimination_script,
)
from wiretap_regions.info_core import (
    ChannelSpec,
    ProbTable,
    VarId,
    build_degraded_joint,
    mutual_information,
    take_stack,
)
from wiretap_regions.io_files import region_csv_text
from wiretap_regions.polytope_fm import (
    IneqSystem,
    LinIneq,
    fm_eliminate,
    instantiate,
    support_value,
)
from wiretap_regions.regions_discrete import (
    OUTPUTS,
    RATES,
    ZERO_BOUND_TOL,
    eval_general_inner,
)


def test_full_chain_replays():
    rep = verify_builtin_chain(seed=0, instantiations=2)
    assert rep.ok
    assert all(s.matched for s in rep.steps)
    # the last two recorded systems are the ten-bound region
    assert rep.steps[-1].expect == "target"


def _ten_bounds_by_hand(joint):
    """Reference: the ten bounds written out as (label, coefficients, rhs),
    every quantity a mutual_information on the full joint."""
    def mi(a, b, c=()):
        return mutual_information(joint, set(a), set(b), set(c))

    m = min(mi("U", ["Y1"]), mi("U", ["Y2"]))
    m_q = min(mi("U", ["Y1"], "Q"), mi("U", ["Y2"], "Q"))
    a1, a2 = mi(["V1"], ["Y1"], "U"), mi(["V2"], ["Y2"], "U")
    b12 = mi(["V1"], ["V2"], "U")
    z_uv1_q, z_uv2_q = mi(["U", "V1"], "Z", "Q"), mi(["U", "V2"], "Z", "Q")
    z_uv12_q = mi(["U", "V1", "V2"], "Z", "Q")
    z_v1, z_v2, z_v12 = mi(["V1"], "Z", "U"), mi(["V2"], "Z", "U"), mi(["V1", "V2"], "Z", "U")
    s1, s2, p1, p2 = "Rs1", "Rs2", "Rp1", "Rp2"
    return [
        ("rs1", {s1}, m_q + a1 - z_uv1_q),
        ("rs2", {s2}, m_q + a2 - z_uv2_q),
        ("rs12", {s1, s2}, m_q + a1 + a2 - b12 - z_uv12_q),
        ("rs1p1", {s1, p1}, m + a1),
        ("rs2p2", {s2, p2}, m + a2),
        ("rs1p1s2_a", {s1, p1, s2}, m + a1 + a2 - z_v2),
        ("rs1p1s2_b", {s1, p1, s2}, m + 2 * a1 + a2 - b12 - z_v12),
        ("rs12p2_a", {s1, s2, p2}, m + a1 + a2 - z_v1),
        ("rs12p2_b", {s1, s2, p2}, m + a1 + 2 * a2 - b12 - z_v12),
        ("total", {s1, p1, s2, p2}, m + a1 + a2 - b12),
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 3), min_size=8, max_size=8), st.integers(0, 2**32 - 1),
       st.booleans())
def test_ten_bound_region_is_the_chain_target(cards, seed, indep_v):
    # what `region eval-general` and `region sweep --mode general` print is the
    # chain's target, row for row, and its values are the ten bounds written out
    _, steps, fixtures = load_builtin_chain()
    target = fixtures[steps[-1].expect]
    rng = np.random.default_rng(seed)
    aux = random_aux_layered(rng, *cards[:5], indep_v=indep_v)
    cx, cy1, cy2, cz = cards[4:]
    kernel = rng.dirichlet(np.ones(cy1 * cy2 * cz), size=cx).reshape(cx, cy1, cy2, cz)
    ch = ChannelSpec(VarId("X", cx), (VarId("Y1", cy1), VarId("Y2", cy2), VarId("Z", cz)),
                     kernel=kernel)
    joint = take_stack(aux.table.vars + ch.outputs,
                       np.einsum("nquabx,xijk->nquabxijk", aux.table.probs, kernel))
    got = eval_general_inner(aux, ch)
    assert got.vars == RATES == target.vars
    assert [(q.label, q.coeffs, q.rel) for q in got.rows.ineqs] == \
        [(q.label, q.coeffs, q.rel) for q in target.ineqs]
    want = _ten_bounds_by_hand(joint)
    assert [(q.label, {v for v, c in q.coeffs if c == 1}) for q in got.rows.ineqs] == \
        [(label, coeffs) for label, coeffs, _ in want]
    assert all(q.rel == "<=" and len(q.coeffs) == len(c)
               for q, (_, c, _) in zip(got.rows.ineqs, want))
    [bounds] = got.rhs.tolist()
    assert max(abs(b - rhs) for b, (_, _, rhs) in zip(bounds, want)) <= 1e-12
    # a bound within ZERO_BOUND_TOL of 0 is printed as 0, not as rounding noise
    assert all(b == 0.0 or abs(b) > ZERO_BOUND_TOL for b in bounds)


def test_sys_labels_are_read_and_ignored_by_matching():
    ratevars = {"Rs1", "Rp1"}
    labelled = parse_system("# two rows\nrs1: Rs1 <= I(V1;Y1|U)\n"
                            "total :Rs1 + Rp1 <= Imin(U;Yj)\n", ratevars)
    bare = parse_system("Rs1 <= I(V1;Y1|U)\nRs1 + Rp1 <= Imin(U;Yj)\n", ratevars)
    assert [q.label for q in labelled] == ["rs1", "total"]
    assert [q.label for q in bare] == [None, None]
    assert [q.key() for q in labelled] == [q.key() for q in bare]
    res = match_systems(IneqSystem.of(("Rp1", "Rs1"), labelled),
                        IneqSystem.of(("Rp1", "Rs1"), bare), EqualitySet([]))
    assert res.matched and not res.extras


@pytest.mark.parametrize("label", ["rs 1", "", "1rs", "rs-1", "Imin(U;Yj)"])
def test_malformed_sys_label_is_a_parse_error_naming_its_line(label):
    with pytest.raises(ParseError, match=f"line 3: malformed label"):
        parse_system(f"# comment\nRs1 <= I(V1;Y1|U)\n{label}: Rs1 <= I(V1;Y1|U)\n", {"Rs1"})


def test_chain_final_system_is_ten_bounds():
    _, steps, fixtures = load_builtin_chain()
    target = fixtures[steps[-1].expect]
    assert len(target.ineqs) == 10
    assert set(target.vars) == {"Rp1", "Rs1", "Rp2", "Rs2"}
    assert all(q.rel == "<=" for q in target.ineqs)


def test_empty_script_on_matching_systems_passes():
    start, _, fixtures = load_builtin_chain()
    eqs = derive_equalities(layered_structure())
    rep = verify_elimination_script(start, [], {}, eqs, np.random.default_rng(0))
    assert rep.ok and rep.steps == []


def test_wrong_order_pinpoints_first_divergence():
    start, steps, fixtures = load_builtin_chain()
    eqs = derive_equalities(layered_structure())
    # swap the first two eliminations but keep the recorded systems
    bad = [Step(op="eliminate", var=steps[1].var, expect=steps[0].expect)] + list(steps[1:])
    rep = verify_elimination_script(start, bad, fixtures, eqs, np.random.default_rng(0),
                                    instantiations=1)
    assert not rep.ok
    assert [s.index for s in rep.steps if not s.matched] == [0]
    assert rep.steps[0].message.startswith("missing recorded constraint: ")


def test_unknown_step_op_raises():
    start, _, _ = load_builtin_chain()
    with pytest.raises(ScriptStepMismatch, match="unknown step op 'rotate'"):
        run_step(start, Step(op="rotate", expect="v01"))


def test_match_systems_modulo_equalities():
    ratevars = {"a", "b", "c"}
    eq = parse_constraint("a + b = I(V1;V2|U)", ratevars)
    # the two forms differ exactly by the system equality
    s1 = IneqSystem.of(("a", "b", "c"), [eq, parse_constraint("c + a <= I(V1;Y1|U)", ratevars)])
    s2 = IneqSystem.of(("a", "b", "c"),
                       [eq, parse_constraint("c - b <= I(V1;Y1|U) - I(V1;V2|U)", ratevars)])
    res = match_systems(s1, s2, EqualitySet([]))
    assert res.matched and not res.extras


def test_match_systems_detects_wrong_rhs():
    ratevars = {"a"}
    s1 = IneqSystem.of(("a",), [parse_constraint("a <= I(V1;Y1|U)", ratevars)])
    s2 = IneqSystem.of(("a",), [parse_constraint("a <= I(V2;Y2|U)", ratevars)])
    res = match_systems(s1, s2, EqualitySet([]))
    assert not res.matched
    assert res.missing == list(s2.ineqs) and res.extras == list(s1.ineqs)


def test_parser_round_trip_forms():
    ratevars = {"Rs1", "Rp1"}
    q = parse_constraint("Rs1 + 2 Rp1 <= Imin(U;Yj) + I(V1;Y1|U) - 1/2 I(V1;V2|U)", ratevars)
    assert q.coeff("Rp1") == 2
    q2 = parse_constraint("0 <= I(V1;Y1|U) - I(V1;Z|U)", ratevars)
    assert not q2.coeffs
    sys_rows = parse_system("# comment\nRs1 <= I(U;Z|Q)\n\nRp1 <= H(X)\n", ratevars)
    assert len(sys_rows) == 2


_VARS = ("a", "b", "c", "d", "e")
# non-unit pivots and non-integral coefficients, as the integer core must carry
_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# a constant is a small rational or any finite float, which a row holds exactly
_CONSTANT = st.one_of(_RATIONAL, _RATIONAL, st.floats(allow_nan=False, allow_infinity=False))
_ROW = st.tuples(st.dictionaries(st.sampled_from(_VARS), _RATIONAL, max_size=5),
                 st.dictionaries(st.sampled_from(("s0", "s1", "s2")), _RATIONAL, max_size=3),
                 _CONSTANT)


def _linineq(row, rel):
    """The row of a drawn triple; one without symbols passes its constant to
    ``LinIneq.of`` as a number."""
    coeffs, syms, constant = row
    return LinIneq.of(coeffs, InfoExpr(syms=syms, constant=constant) if syms else constant, rel)


@pytest.mark.parametrize("x", [0.1, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 3,
                               Fraction(-7, 3)])
def test_a_number_on_the_right_is_its_exact_value(x):
    q = LinIneq.of({"x": 3}, x)
    assert type(q.rhs) is InfoExpr and q.rhs == InfoExpr(constant=Fraction(x))
    assert q.rhs.constant == Fraction(x) and not q.rhs.terms and not q.rhs.syms
    # scaling keeps the exact value: no float nearest 1/3 enters
    assert q.canonical().rhs.constant == Fraction(x) / 3


def _fixed_point_substitution(coeffs, rhs, pivots):
    """Reference: the substitution repeated over all pivots until none is
    left, in Fraction values."""
    coeffs = dict(coeffs)
    changed = True
    while changed:
        changed = False
        for pivot, (c, row, row_rhs) in pivots.items():
            a = coeffs.get(pivot)
            if a:
                for v, k in row:
                    coeffs[v] = coeffs.get(v, Fraction(0)) - a * Fraction(k, c)
                rhs = rhs - row_rhs * a
                changed = True
    return {v: c for v, c in coeffs.items() if c != 0}, rhs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, max_size=4), st.lists(_ROW, min_size=1, max_size=3))
def test_one_substitution_pass_removes_every_pivot(equalities, rows):
    pivots = _equality_pivots([_linineq(r, "==") for r in equalities], _VARS)
    for row in rows:
        q = _linineq(row, "<=")
        nums, den, rhs = _substitute_pivots(dict(q.nums), q.den, q.rhs, pivots)
        got = {v: Fraction(k, den) for v, k in nums.items()}, rhs
        assert got == _fixed_point_substitution(dict(q.coeffs), q.rhs, pivots)
        assert not set(nums) & set(pivots)


# --- the integer core against the Fraction arithmetic it replaced ---------------
#
# A row of the reference is (coefficients, rhs, rel): a sorted tuple of
# (variable, Fraction) pairs, a dict of the rhs's Fraction values keyed by
# symbol name ("" for the constant) and the relation.  The functions copy the
# Fraction versions of LinIneq.scaled / plus / canonical, _dedup,
# substitute_equality, fm_eliminate, _substitute_pivots and _equality_pivots.


def _ref_row(coeffs, rhs, rel="<="):
    return (tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0)),
            {n: Fraction(c) for n, c in rhs.items() if c != 0}, rel)


def _ref_axpy(x, y, k):
    out = dict(x)
    for n, c in y.items():
        out[n] = out.get(n, Fraction(0)) + k * c
    return {n: c for n, c in out.items() if c != 0}


def _ref_scaled(r, k):
    coeffs, rhs, rel = r
    return _ref_row({v: c * k for v, c in coeffs}, {n: c * k for n, c in rhs.items()}, rel)


def _ref_plus(r1, r2):
    coeffs = dict(r1[0])
    for v, c in r2[0]:
        coeffs[v] = coeffs.get(v, Fraction(0)) + c
    return _ref_row(coeffs, _ref_axpy(r1[1], r2[1], 1))


def _ref_canonical(r):
    coeffs, _, rel = r
    if not coeffs:
        return r
    g = math.gcd(*(abs(c.numerator) for _, c in coeffs))
    scale = Fraction(math.lcm(*(c.denominator for _, c in coeffs)), g)
    if rel == "==" and coeffs[0][1] < 0:
        scale = -scale
    return _ref_scaled(r, scale) if scale != 1 else r


def _ref_key(r):
    return (r[2], r[0], tuple(sorted(r[1].items())))


def _ref_dedup(rows):
    seen, out = set(), []
    for r in rows:
        k = _ref_key(_ref_canonical(r))
        if k not in seen:
            seen.add(k)
            out.append(r)
    return out


def _ref_coeff(r, var):
    return dict(r[0]).get(var, Fraction(0))


def _ref_ambient_implied(r):
    return r[2] == "<=" and all(c <= 0 for _, c in r[0]) and not r[1]


def _ref_substitute_equality(rows, eq, var):
    c = _ref_coeff(eq, var)
    rest = {v: k for v, k in eq[0] if v != var}

    def replace(r):
        a = _ref_coeff(r, var)
        if a == 0:
            return r
        coeffs = {v: k for v, k in r[0] if v != var}
        for v, k in rest.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) - k * a / c
        out = _ref_row(coeffs, _ref_axpy(r[1], eq[1], -a / c), r[2])
        return None if out[2] == "==" and not out[0] and not out[1] else out

    new = [o for o in map(replace, rows) if o is not None]
    ambient = replace(_ref_row({var: -1}, {}))
    if ambient is not None and not _ref_ambient_implied(ambient):
        new.append(ambient)
    return _ref_dedup(new)


def _ref_fm_eliminate(rows, var):
    for eq in rows:
        if eq[2] == "==" and _ref_coeff(eq, var) != 0:
            return _ref_substitute_equality(rows, eq, var)
    uppers = [r for r in rows if _ref_coeff(r, var) > 0]
    lowers = [r for r in rows if _ref_coeff(r, var) < 0] + [_ref_row({var: -1}, {})]
    out = [r for r in rows if _ref_coeff(r, var) == 0]
    for lo in lowers:
        for up in uppers:
            combo = _ref_plus(_ref_scaled(lo, 1 / -_ref_coeff(lo, var)),
                              _ref_scaled(up, 1 / _ref_coeff(up, var)))
            if not _ref_ambient_implied(combo):
                out.append(combo)
    return _ref_dedup(out)


def _ref_text(r):
    coeffs, rhs, rel = r
    lhs = " + ".join(f"{c}*{v}" if c != 1 else v for v, c in coeffs) or "0"
    bits = [f"{c}*{n}" for n, c in sorted(rhs.items()) if n]
    if rhs.get(""):
        bits.append(str(rhs[""]))
    return f"{lhs} {rel} {' + '.join(bits) or '0'}"


def _ref_of(q):
    """The reference row of a LinIneq, read through its exact value views."""
    return _ref_row(dict(q.coeffs), {**q.rhs.syms, "": q.rhs.constant}, q.rel)


def _assert_like(q, r):
    """``q`` holds the reference row's exact values, in lowest terms, and
    prints as the Fraction code printed it."""
    assert math.gcd(q.den, *(c for _, c in q.nums)) == 1 and q.den > 0
    assert all(type(c) is int for _, c in q.nums) and type(q.rhs.den) is int
    assert (q.coeffs, q.rel) == (r[0], r[2]) and _ref_of(q)[1] == r[1]
    assert repr(q) == _ref_text(r)


_SYSTEM = st.tuples(st.lists(_ROW, min_size=1, max_size=6), st.lists(_ROW, max_size=1),
                    st.sampled_from(_VARS))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_SYSTEM)
def test_integer_fm_step_is_the_fraction_step(system):
    ineqs, eqs, var = system
    rows = [_linineq(r, "<=") for r in ineqs] + [_linineq(r, "==") for r in eqs]
    ref = [_ref_of(q) for q in rows]
    for q, r in zip(rows, ref):
        _assert_like(q, r)
    got = fm_eliminate(IneqSystem.of(_VARS, rows), var)
    want = _ref_fm_eliminate(ref, var)
    assert len(got.ineqs) == len(want)
    for q, r in zip(got.ineqs, want):
        _assert_like(q, r)
        _assert_like(q.canonical(), _ref_canonical(r))
    # two rows share a canonical key exactly when the Fraction keys agree
    keys = [q.canonical().key() for q in rows + list(got.ineqs)]
    ref_keys = [_ref_key(_ref_canonical(r)) for r in ref + want]
    assert [[k == j for j in keys] for k in keys] == \
        [[k == j for j in ref_keys] for k in ref_keys]


def _ref_substitute_pivots(coeffs, rhs, pivots):
    for pivot, (row, row_rhs) in pivots.items():
        a = coeffs.get(pivot)
        if a:
            coeffs[pivot] = Fraction(0)
            for v, c in row.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) - a * c
            rhs = _ref_axpy(rhs, row_rhs, -a)
    return {v: c for v, c in coeffs.items() if c != 0}, rhs


def _ref_equality_pivots(equalities, var_order):
    pivots = {}
    for coeffs, rhs, _ in equalities:
        coeffs, rhs = _ref_substitute_pivots(dict(coeffs), rhs, pivots)
        if not coeffs:
            continue
        pivot = next(v for v in var_order if coeffs.get(v))
        c = coeffs.pop(pivot)
        pivots[pivot] = ({v: k / c for v, k in coeffs.items()},
                         {n: k / c for n, k in rhs.items()})
    return pivots


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_ROW, max_size=4), st.lists(_ROW, min_size=1, max_size=3))
def test_integer_pivot_substitution_is_the_fraction_one(equalities, rows):
    eqs = [_linineq(r, "==") for r in equalities]
    pivots = _equality_pivots(eqs, _VARS)
    ref = _ref_equality_pivots([_ref_of(q) for q in eqs], _VARS)
    assert pivots.keys() == ref.keys()
    for pivot, (c, row, row_rhs) in pivots.items():
        assert c > 0 and dict(row)[pivot] == c and all(type(k) is int for _, k in row)
        assert {v: Fraction(k, c) for v, k in row if v != pivot} == ref[pivot][0]
        assert _ref_of(LinIneq.of({}, row_rhs))[1] == ref[pivot][1]
    for row in rows:
        q = _linineq(row, "<=")
        nums, den, rhs = _substitute_pivots(dict(q.nums), q.den, q.rhs, pivots)
        coeffs, ref_rhs = _ref_substitute_pivots(dict(q.coeffs), _ref_of(q)[1], ref)
        got = LinIneq.exact(nums, den, rhs)
        _assert_like(got, _ref_row(coeffs, ref_rhs))
        _assert_like(got.canonical(), _ref_canonical(_ref_row(coeffs, ref_rhs)))


def test_warm_replay_builds_almost_no_fractions(monkeypatch):
    # the symbolic core is integer arithmetic: a warm replay builds at most 1%
    # of the 12,376 Fractions a replay built when it ran on Fraction rows
    verify_builtin_chain(seed=4)
    real, made = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        made.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert verify_builtin_chain(seed=5).ok
    monkeypatch.undo()
    assert len(made) <= 123


def test_replay_memoises_nothing_across_calls(monkeypatch):
    # a cold `wtr` command replays once, so a cache that lives across calls
    # would speed up only repeated calls in one process
    calls = {"fm_eliminate": 0, "match_systems": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(fm_script, name, counting(name, getattr(fm_script, name)))
    verify_builtin_chain(seed=6, instantiations=1)
    once = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    verify_builtin_chain(seed=6, instantiations=1)
    verify_builtin_chain(seed=7, instantiations=1)
    assert once["fm_eliminate"] > 0 and once["match_systems"] > 0
    assert calls == {k: 2 * n for k, n in once.items()}


def test_drop_signs_step_certifies_its_extra_row(monkeypatch):
    # a target without one of the ten bounds leaves that row as an extra of
    # the sign-row step; it is not redundant, and certification must say so
    _, steps, fixtures = load_builtin_chain()
    eqs = derive_equalities(layered_structure())
    target_name = steps[-1].expect
    target = fixtures[target_name]
    short = dict(fixtures)
    short[target_name] = target.with_ineqs(target.ineqs[:4] + target.ineqs[5:])
    calls = []

    def counting(jobs):
        calls.append(jobs)
        return support_value(jobs)

    monkeypatch.setattr(fm_script, "support_value", counting)
    assert steps[-1].op == "drop_signs"
    rep = verify_elimination_script(fixtures[steps[-2].expect], steps[-1:], short, eqs,
                                    np.random.default_rng(0), instantiations=1)
    [step] = rep.steps
    assert len(calls) > 0
    assert step.extras_dropped == 1
    assert not step.matched and "not redundant" in step.message


@pytest.mark.parametrize("line", ["step eliminate D0", "step transfer Rs1>Rp1:a1",
                                  "step drop_signs", "step drop_signs expect"])
def test_script_step_without_expect_is_a_parse_error(monkeypatch, line):
    data_text = fm_script._data_text

    def script(name):
        return f"start v01\n{line}\n" if name == "chain.script" else data_text(name)

    monkeypatch.setattr(fm_script, "_data_text", script)
    with pytest.raises(ParseError, match="expect"):
        load_builtin_chain()


def test_builtin_fixtures_are_parsed_once_per_text(monkeypatch):
    _, steps, fixtures = load_builtin_chain()

    def parse_system(text, ratevars):
        raise AssertionError("a bundled fixture was parsed again")

    monkeypatch.setattr(fm_script, "parse_system", parse_system)
    _, _, again = load_builtin_chain()
    assert again.keys() == fixtures.keys()
    assert all(again[k] is fixtures[k] for k in fixtures)
    # the general region reads the same parsed target
    rng = np.random.default_rng(3)
    ch = ChannelSpec(VarId("X", 2), (VarId("Y1", 2), VarId("Y2", 2), VarId("Z", 2)),
                     kernel=rng.dirichlet(np.ones(8), size=2).reshape(2, 2, 2, 2))
    region = eval_general_inner(random_aux_layered(rng, 2, 2, 2, 2, 2), ch)
    assert region.rows is fixtures[steps[-1].expect]


def test_chain_runtime_budget():
    import time
    t0 = time.monotonic()
    rep = verify_builtin_chain(seed=1, instantiations=1)
    assert rep.ok
    assert time.monotonic() - t0 < 10.0


@pytest.mark.parametrize("seed", [3, 10, 12, 13, 14, 15])
def test_chain_replays_at_the_default_tolerance(seed):
    # at HiGHS's default feasibility tolerances (1e-7) these seeds left
    # dropped-row slacks of about 6.5e-8, above CERT_TOL
    rep = verify_builtin_chain(seed)
    assert rep.ok, [s.message for s in rep.steps if not s.matched]
    assert max(s.worst_drop_slack for s in rep.steps) <= fm_script.CERT_TOL


@pytest.mark.parametrize("instantiations", [0, -1])
def test_replay_without_instantiations_is_refused(instantiations):
    with pytest.raises(ValidationError, match="instantiations"):
        verify_builtin_chain(seed=0, instantiations=instantiations)


def _certify_row_by_row(kept, extras, tables):
    """Reference: the per-(row, table) loop, instantiating for every pair."""
    results = []
    for q in extras:
        worst = -np.inf
        informative = 0
        for table in tables:
            one = (_stack_of([table]),)
            syms = min_sym_values(one)
            kept_num = instantiate(kept, one, syms)
            lone_syms = {n: float(v[0]) for n, v in syms.items()}
            rhs = (evaluate_all((q.rhs,), (table,), lone_syms)[0]
                   if isinstance(q.rhs, InfoExpr) else float(q.rhs))
            val = support_value([(kept_num, [{v: float(c) for v, c in q.coeffs}])])[0][0]
            if val == float("-inf"):
                continue
            if val is None:
                worst = np.inf
                break
            informative += 1
            worst = max(worst, val - rhs)
        results.append((q, worst if informative or worst == np.inf else 0.0, informative))
    return results


def _stack_of(tables):
    """The table whose members are those of ``tables``, in order."""
    return take_stack(tables[0].vars, np.concatenate([t.probs for t in tables]))


@pytest.mark.parametrize("seed", [0, 3, 12])
def test_certification_gives_each_row_its_own_answer(seed):
    start, steps, fixtures = load_builtin_chain()
    eqs = derive_equalities(layered_structure())
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(3):
        tables.append(random_layered_joint(rng, degraded=True, indep_v=True))
        tables.append(random_layered_joint(rng, degraded=True))
        tables.append(random_layered_joint(rng))
    stack = (_stack_of(tables),)
    syms = min_sym_values(stack)
    cur, jobs = start, []
    for step in steps:
        produced = run_step(cur, step)
        res = match_systems(produced, fixtures[step.expect], eqs)
        if res.extras and step.op != "drop_signs":
            jobs.append((produced.with_ineqs(
                [q for q in produced.ineqs if q not in res.extras]), res.extras))
        cur = fixtures[step.expect]
    certified = 0
    for (kept, extras), got in zip(jobs, _certify_redundant(jobs, stack, syms),
                              strict=True):
        want = _certify_row_by_row(kept, extras, tables)
        # two stacked LPs for every step and table against one LP per row: the
        # same optima up to the LP's rounding, and the same informative tables
        assert [n for *_, n in got] == [n for *_, n in want]
        assert all(abs(g - w) <= 1e-12 or g == w
                   for (_, g, _), (_, w, _) in zip(got, want))
        certified += len(got)
    assert certified == 40


def test_empty_instantiation_costs_one_lp(lp_whats):
    # the kept region x <= s - 1 (x >= 0) is empty exactly when s < 1, and its
    # one row says so: a nonnegative left side below a negative rhs costs no LP
    kept = IneqSystem.of(("x",), [LinIneq.of({"x": 1}, sym("s") - 1)])
    extras = [LinIneq.of({"x": 1}, sym("s")),
              LinIneq.of({"x": 2}, sym("s") + 1),
              LinIneq.of({"x": 1}, InfoExpr(constant=5))]
    empty, nonempty = 0.5, 3.0
    [got] = _certify_redundant([(kept, extras)], (), {"s": np.array([empty])})
    assert [(s, n) for _, s, n in got] == [(0.0, 0)] * 3
    assert lp_whats == []
    [got] = _certify_redundant([(kept, extras)], (), {"s": np.array([empty, nonempty, empty])})
    assert lp_whats == ["support"] * 2
    assert [(s, n) for _, s, n in got] == [(pytest.approx(-1.0), 1), (pytest.approx(0.0), 1),
                                          (pytest.approx(-3.0), 1)]
    # x >= 1 and x <= s - 2 is empty at s = 2.5 although no single row says
    # so: one LP finds it empty for every row
    lp_whats.clear()
    hidden = IneqSystem.of(("x",), [LinIneq.of({"x": -1}, InfoExpr(constant=-1)),
                                    LinIneq.of({"x": 1}, sym("s") - 2)])
    [got] = _certify_redundant([(hidden, extras)], (), {"s": np.array([2.5])})
    assert [(s, n) for _, s, n in got] == [(0.0, 0)] * 3
    assert lp_whats == ["support"]


def test_replay_reports_dropped_rows_no_instantiation_exercised(lp_whats):
    # the kept region a + b <= -1 is empty on every draw, so the rows the
    # elimination of c drops (b <= I(X;Z) and 0 <= I(X;Z)) are certified by
    # no instantiation: the step matches, and its report says so
    r = {"a", "b", "c"}
    start = IneqSystem.of(("a", "b", "c"),
                          parse_system("a + b <= -1\nb - c <= 0\nc <= I(X;Z)\n", r))
    kept = IneqSystem.of(("a", "b"), parse_system("a + b <= -1\n", r))
    rep = verify_elimination_script(start, [Step(op="eliminate", var="c", expect="kept")],
                                    {"kept": kept}, EqualitySet([]), np.random.default_rng(0),
                                    instantiations=2)
    [step] = rep.steps
    assert rep.ok and step.matched
    assert (step.extras_dropped, step.worst_drop_slack) == (2, 0.0)
    assert step.message == "2 dropped row(s) never exercised (all instantiations empty)"
    assert lp_whats == []


def test_replay_solves_two_support_lps(lp_whats):
    # one classification LP and one stacked support LP serve every step and table
    assert verify_builtin_chain(seed=0).ok
    assert lp_whats == ["support", "support"]


def test_every_replay_lp_runs_inside_support_value(monkeypatch):
    # the benchmark tracer charges an LP to its innermost traced caller: a
    # certification LP solved outside support_value would count as another LP
    import inspect

    import wiretap_regions.polytope_fm as pf

    real, inside = pf.solve_lp, []

    def solve_lp(*args, **kw):
        inside.append(any(f.function == "support_value" for f in inspect.stack(0)))
        return real(*args, **kw)

    monkeypatch.setattr(pf, "solve_lp", solve_lp)
    assert verify_builtin_chain(seed=0).ok
    assert inside == [True, True]


def test_unbounded_support_fails_the_step(monkeypatch):
    # a support LP that reports "unbounded" before any table was informative
    # must fail the row, not pass it as never exercised
    monkeypatch.setattr(fm_script, "support_value",
                        lambda jobs: [[None] * len(objectives) for stack, objectives in jobs
                                      for _ in range(len(stack))])
    rep = verify_builtin_chain(seed=0, instantiations=1)
    assert not rep.ok
    first = next(s for s in rep.steps if s.extras_dropped)
    assert not first.matched
    assert first.worst_drop_slack == np.inf
    assert "not redundant" in first.message


def test_unbounded_row_stops_its_own_lps(monkeypatch, lp_whats):
    # x is free in the kept region y <= s: the classification LP finds the row
    # on x unbounded on both tables, and its later answers are not read; only
    # the row on y reaches the support LP
    kept = IneqSystem.of(("x", "y"), [LinIneq.of({"y": 1}, sym("s"))])
    extras = [LinIneq.of({"x": 1}, InfoExpr(constant=1)),
              LinIneq.of({"y": 1}, sym("s") + 1)]
    calls = []

    def counting(jobs):
        calls.append(jobs)
        return support_value(jobs)

    monkeypatch.setattr(fm_script, "support_value", counting)
    [got] = _certify_redundant([(kept, extras)], (), {"s": np.array([1.0, 2.0])})
    assert [[(len(stack), len(objectives)) for stack, objectives in jobs]
            for jobs in calls] == [[(2, 2)]]
    assert lp_whats == ["support"] * 2
    assert [(s, n) for _, s, n in got] == [(np.inf, 0), (pytest.approx(-1.0), 2)]


def _lone_reference(expr, tables, syms):
    """Reference evaluation of one right-hand side on tables of one member:
    the constant, then each atom's -sum p log p over the positive cells of
    its marginal in the smallest table holding it, then each symbol."""
    val = float(expr.constant)
    for atom, c in expr.terms.items():
        t = min((t for t in tables if set(atom.subset) <= set(t.names)),
                key=lambda t: t.probs.size)
        drop = tuple(i for i, n in enumerate(t.names) if n not in atom.subset)
        arr = t.probs[0].sum(axis=drop) if drop else t.probs[0]
        p = arr[arr > 0.0]
        val += float(c) * float(-(p * np.log(p)).sum())
    for name, c in expr.syms.items():
        val += float(c) * syms[name]
    return val


def test_stacked_instantiation_equals_each_member_alone():
    # every chain fixture and the target, on the 9 joints a replay draws: one
    # instantiation of the stack gives each member its own right-hand sides,
    # bit for bit
    _, _, fixtures = load_builtin_chain()

    def draw():
        rng = np.random.default_rng(8)
        return [random_layered_joint(rng, degraded=k % 3 < 2, indep_v=k % 3 == 0)
                for k in range(9)]

    stack = (_stack_of(draw()),)
    syms = min_sym_values(stack)
    assert all(v.shape == (9,) for v in syms.values())
    assert set(fixtures) >= {"target"} and len(fixtures) > 5
    for name, sys in fixtures.items():
        members = instantiate(sys, stack, syms)
        assert len(members) == 9 and members.rows is sys
        for k, table in enumerate(draw()):
            one_syms = min_sym_values((table,))
            assert {n: v.tolist() for n, v in one_syms.items()} == \
                {n: [v[k]] for n, v in syms.items()}
            for g, q in zip(members.rhs[k].tolist(), sys.ineqs, strict=True):
                if isinstance(q.rhs, InfoExpr):
                    assert g == evaluate_all((q.rhs,), (table,), one_syms)[0]
                    # the reference sums each marginal straight from the table
                    assert abs(g - _lone_reference(q.rhs, (table,), one_syms)) <= 1e-13
                else:
                    assert g == q.rhs


def test_stacked_instantiation_refuses_stacks_of_other_lengths():
    rng = np.random.default_rng(2)
    tables = [random_layered_joint(rng) for _ in range(3)]
    target = load_fixture("target")
    with pytest.raises(DimensionMismatch, match=r"stacks of \[2, 3\] members"):
        instantiate(target, (_stack_of(tables),), min_sym_values((_stack_of(tables[:2]),)))


def _count_calls(monkeypatch, name):
    """Count the calls of the package function ``name`` through every module
    that binds it."""
    import sys   # the module, not the ``sys`` systems the tests above name

    calls = []
    original = getattr(info_core, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mname, module in list(sys.modules.items()):
        if mname.startswith("wiretap_regions") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_replay_checks_its_stacked_draws_once(monkeypatch):
    # 9 draws are validated as one stack (one validate_table) and the layered
    # factorization is one stacked mutual information; the other four are
    # the two Imin symbols
    mi = _count_calls(monkeypatch, "mutual_information")
    validated = _count_calls(monkeypatch, "validate_table")
    assert verify_builtin_chain(seed=1).ok
    assert (len(mi), len(validated)) == (5, 1)


def test_replay_refuses_a_draw_that_breaks_the_layered_factorization(monkeypatch):
    # the fifth draw makes Q depend on X given U: the stack check names it
    draws, real = [], fm_script.random_layered_joint

    def draw(*args, **kwargs):
        t = real(*args, **kwargs)
        draws.append(t)
        if len(draws) != 5:
            return t
        tilt = np.array([[1.5, 0.5], [0.5, 1.5]])[:, None, None, None, :, None, None, None]
        probs = t.probs * tilt
        return ProbTable(t.vars, probs / probs.sum())

    monkeypatch.setattr(fm_script, "random_layered_joint", draw)
    with pytest.raises(InconsistentAux, match=r"instance 4: I\(Q; V1,V2,X \| U\)"):
        verify_builtin_chain(seed=1)


def test_region_eval_general_prints_the_lone_evaluation(tmp_path, capsys):
    # a lone aux is evaluated as before: the target's rows, each right-hand
    # side summed on the aux and its three output joints alone
    rng = np.random.default_rng(21)
    aux = random_aux_layered(rng, 2, 3, 2, 2, 2)
    stages = [rng.dirichlet(np.ones(2), size=2) for _ in range(3)]
    ch = build_degraded_joint(*stages)
    ch_path, aux_path = tmp_path / "c.txt", tmp_path / "a.txt"
    emit_channel_file(ch, ch_path)
    rows = aux.table.probs.reshape(-1, 2)
    aux_path.write_text("kind: aux\nvars: Q 2 U 3 V1 2 V2 2 X 2\ntable:\n" + "".join(
        " ".join(repr(float(x)) for x in row) + "\n" for row in rows))
    tables = [aux.table] + [
        take_stack(aux.table.vars + (VarId(name, 2),),
                   np.einsum("...x,xw->...xw", aux.table.probs, ch.pair_kernel(out.name)))
        for name, out in zip(OUTPUTS, ch.outputs)]

    def mi(y, cond=()):
        return mutual_information(tables[1 + OUTPUTS.index(y)], {"U"}, {y}, cond)

    syms = {fm_script.MIN_UY: min(mi("Y1"), mi("Y2")),
            fm_script.MIN_UYQ: min(mi("Y1", {"Q"}), mi("Y2", {"Q"}))}
    target = load_fixture("target")
    got = eval_general_inner(aux, ch)
    assert got.rows is target and len(got) == 1
    for g, q in zip(got.rhs[0].tolist(), target.ineqs, strict=True):
        rhs = _lone_reference(q.rhs, tables, syms)
        # the reference sums each marginal straight from its table, the
        # evaluation along the marginal chain: equal up to rounding
        assert abs(g - (0.0 if abs(rhs) <= ZERO_BOUND_TOL else rhs)) <= 1e-13
    assert main(["region", "eval-general", "--channel", str(ch_path), "--aux", str(aux_path),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out == region_csv_text(got)
