import math
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap_regions.entropy_algebra import (
    EqualitySet,
    FactorStructure,
    InfoExpr,
    d_separated,
    derive_equalities,
    ent,
    evaluate_all,
    expand_mi,
)
from wiretap_regions import entropy_algebra, fm_script
from wiretap_regions.errors import (
    CyclicStructure,
    EmptyArgument,
    OverlappingSets,
    UnknownVariable,
    ValidationError,
)
from wiretap_regions.fm_script import layered_structure, random_layered_joint, verify_builtin_chain
from wiretap_regions.io_files import parse_dag_file
from wiretap_regions.info_core import mutual_information, take_stack
from wiretap_regions.polytope_fm import LinIneq


def test_expand_unconditional():
    e = expand_mi({"U"}, {"Z"})
    assert e == ent({"U"}) + ent({"Z"}) - ent({"U", "Z"})


def test_expand_conditional():
    e = expand_mi({"U"}, {"Y2"}, {"Q"})
    assert e == ent({"U", "Q"}) + ent({"Y2", "Q"}) - ent({"U", "Y2", "Q"}) - ent({"Q"})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [
    lambda v: LinIneq.of({"x": v}),
    lambda v: LinIneq.of({"x": 1, "y": Fraction(1, 3)}, v),
    lambda v: InfoExpr({ent({"U"}): 1}, constant=v),
    lambda v: InfoExpr(syms={"s": v}),
], ids=["coefficient", "rhs", "constant", "symbol"])
def test_a_non_finite_number_entering_the_integer_core_is_a_validation_error(build, value):
    with pytest.raises(ValidationError,
                       match=f"^a coefficient or constant must be finite, got {value}$"):
        build(value)


def test_expand_rejects_overlap_and_empty():
    with pytest.raises(OverlappingSets):
        expand_mi({"A"}, {"A"})
    with pytest.raises(EmptyArgument):
        expand_mi(set(), {"A"})


def test_cyclic_structure_rejected():
    with pytest.raises(CyclicStructure):
        FactorStructure({"A": ("B",), "B": ("A",)})


def test_unknown_parent_or_node_rejected():
    with pytest.raises(UnknownVariable):
        FactorStructure({"A": ("B",)})
    with pytest.raises(UnknownVariable):
        d_separated(FactorStructure({"A": ()}), "A", "B", ())


def test_factor_structure_is_frozen_and_keyed_by_ordered_items():
    st = FactorStructure({"Q": [], "U": ["Q"], "X": ["U"]})
    assert st == FactorStructure({"Q": (), "U": ("Q",), "X": ("U",)})
    assert hash(st) == hash(FactorStructure({"Q": (), "U": ("Q",), "X": ("U",)}))
    assert st != FactorStructure({"X": ("U",), "U": ("Q",), "Q": ()})
    assert st.children == {"Q": ("U",), "U": ("X",), "X": ()}
    with pytest.raises(TypeError):
        st.parents["Z"] = ("X",)
    with pytest.raises(AttributeError):
        st.parents = {}


def test_three_node_chain_equality():
    st = FactorStructure({"Q": (), "U": ("Q",), "X": ("U",)})
    eqs = derive_equalities(st)
    assert eqs.reduce(expand_mi({"Q"}, {"X"}, {"U"})).is_zero()
    assert not eqs.reduce(expand_mi({"Q"}, {"X"})).is_zero()


def test_layered_grouped_independences_in_span():
    eqs = derive_equalities(layered_structure())
    assert eqs.reduce(expand_mi({"Q"}, {"V1", "V2", "X", "Y1", "Y2", "Z"}, {"U"})).is_zero()
    assert eqs.reduce(expand_mi({"U", "V1", "V2", "Q"}, {"Y1", "Y2", "Z"}, {"X"})).is_zero()


def test_chain_rule_is_atom_level():
    lhs = expand_mi({"U", "V1"}, {"Z"}, {"Q"})
    rhs = expand_mi({"U"}, {"Z"}, {"Q"}) + expand_mi({"V1"}, {"Z"}, {"U", "Q"})
    assert (lhs - rhs).is_zero()


def test_exprs_equal_needs_structure():
    eqs = derive_equalities(layered_structure())
    lhs = expand_mi({"V1"}, {"Z"}, {"U", "Q"})
    rhs = expand_mi({"V1"}, {"Z"}, {"U"})
    assert not EqualitySet([]).reduce(lhs - rhs).is_zero()
    assert eqs.reduce(lhs - rhs).is_zero()
    assert not eqs.reduce(ent({"X"}) - ent({"Y1"})).is_zero()


def test_conditioning_drop_verified_numerically():
    # the identification I(V1;Z|U,Q) = I(V1;Z|U) must hold on random factored joints
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = random_layered_joint(rng)
        a = mutual_information(t, {"V1"}, {"Z"}, {"U", "Q"})
        b = mutual_information(t, {"V1"}, {"Z"}, {"U"})
        assert a == pytest.approx(b, abs=1e-10)


def test_emitted_equalities_hold_numerically():
    eqs = derive_equalities(layered_structure())
    rng = np.random.default_rng(1)
    tables = [random_layered_joint(rng) for _ in range(5)]
    for e in eqs.equalities[::7]:
        for t in tables:
            assert abs(evaluate_all((e,), (t,))[0]) < 1e-10


def test_span_soundness_on_random_expressions():
    # whenever the span says two expressions are equal, numeric evaluation agrees on >= 50
    # random factored joints
    eqs = derive_equalities(layered_structure())
    rng = np.random.default_rng(2)
    tables = [random_layered_joint(rng) for _ in range(50)]
    names = ["Q", "U", "V1", "V2", "X", "Y1", "Y2", "Z"]
    for _ in range(12):
        k = rng.integers(0, len(eqs.equalities), size=3)
        base = expand_mi({names[rng.integers(0, 4)]}, {names[4 + rng.integers(0, 4)]})
        shifted = base
        for i in k:
            shifted = shifted + eqs.equalities[i] * int(rng.integers(-2, 3))
        assert eqs.reduce(base - shifted).is_zero()
        for t in tables:
            value, shifted_value = evaluate_all((base, shifted), (t,))
            assert value == pytest.approx(shifted_value, abs=1e-9)


def test_expand_matches_mutual_information_numerically():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_layered_joint(rng)
        for a, b, c in [({"U"}, {"Y1"}, set()), ({"V1"}, {"Y1"}, {"U"}),
                        ({"U", "V2"}, {"Z"}, {"Q"})]:
            sym = evaluate_all((expand_mi(a, b, c),), (t,))[0]
            num = mutual_information(t, a, b, c)
            assert sym == pytest.approx(num, abs=1e-10)


def _aux_marginal(t):
    """The (Q, U, V1, V2, X) marginal of a layered joint."""
    return take_stack(t.vars[:5], t.probs.sum(axis=(6, 7, 8)))


def test_evaluate_reads_each_atom_from_the_smallest_table_holding_it():
    t = random_layered_joint(np.random.default_rng(4))
    aux = _aux_marginal(t)
    e = expand_mi({"U"}, {"Y1"}, {"Q"})
    got = evaluate_all((e,), [t, aux])[0]
    # H(Q,U) is held by both tables and read from the smaller one
    assert frozenset({"Q", "U"}) in aux._entropies
    assert frozenset({"Q", "U"}) not in t._entropies
    assert got == pytest.approx(evaluate_all((e,), [t])[0], abs=1e-15)


def test_evaluate_without_a_symbol_value_is_an_unknown_variable():
    t = random_layered_joint(np.random.default_rng(5))
    e = expand_mi({"U"}, {"Y1"}) + InfoExpr(syms={"Imin(U;Yj)": 1})
    for values in (None, {"Imin(U;Yj|Q)": 0.0}):
        with pytest.raises(UnknownVariable, match=r"Imin\(U;Yj\)"):
            evaluate_all((e,), [t], values)[0]


def test_evaluate_on_tables_that_miss_a_variable_is_an_unknown_variable():
    aux = _aux_marginal(random_layered_joint(np.random.default_rng(6)))
    for tables in ([aux], []):
        with pytest.raises(UnknownVariable, match="Y1|no supplied table holds"):
            evaluate_all((expand_mi({"U"}, {"Y1"}),), tables)[0]


def test_d_separation_basics():
    st = layered_structure()
    assert d_separated(st, "Q", "Z", {"U"})
    assert d_separated(st, "Q", "Z", {"X"})
    assert not d_separated(st, "Q", "Z", set())
    assert not d_separated(st, "V1", "Y1", {"U"})


def test_equality_set_reduction_is_canonical():
    eqs = derive_equalities(layered_structure())
    e = expand_mi({"Q"}, {"Z"}, {"U"})
    r1 = eqs.reduce(e)
    r2 = eqs.reduce(e + eqs.equalities[0] * 3)
    assert r1 == r2
    assert r1.is_zero()


def test_empty_equality_set():
    eqs = EqualitySet([])
    e = expand_mi({"A"}, {"B"})
    assert not eqs.reduce(e).is_zero()
    assert eqs.reduce(InfoExpr()).is_zero()


def test_second_replay_derives_nothing(monkeypatch):
    verify_builtin_chain(seed=2, instantiations=1)
    calls = {"d_separated": 0, "expand_mi": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in (entropy_algebra, fm_script):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert verify_builtin_chain(seed=2, instantiations=1).ok
    assert calls == {"d_separated": 0, "expand_mi": 0}


def test_shared_equality_set_cannot_be_changed():
    eqs = derive_equalities(layered_structure())
    assert derive_equalities(layered_structure()) is eqs
    pivot = next(iter(eqs._pivots))
    with pytest.raises(TypeError):
        eqs._pivots[pivot] = InfoExpr()
    with pytest.raises(AttributeError):
        eqs._pivots = {}
    with pytest.raises(AttributeError):
        eqs.equalities = ()


def test_node_order_is_part_of_the_cache_key():
    chain = {"Q": (), "U": ("Q",), "X": ("U",)}
    forward = derive_equalities(FactorStructure(chain))
    backward = derive_equalities(FactorStructure(dict(reversed(chain.items()))))
    assert forward is not backward
    assert derive_equalities(FactorStructure(dict(chain))) is forward
    assert derive_equalities(FactorStructure(dict(reversed(chain.items())))) is backward


def _degraded_chain():
    path = resources.files("wiretap_regions") / "data" / "factorizations" / "degraded_chain.dag"
    with resources.as_file(path) as p:
        return parse_dag_file(p)


def test_degraded_chain_yields_markov_equalities():
    st = _degraded_chain()
    assert st.nodes == ("U", "X", "Y1", "Y2", "Z")
    eqs = derive_equalities(st)
    assert eqs is not derive_equalities(layered_structure())
    assert derive_equalities(_degraded_chain()) is eqs
    assert eqs.reduce(expand_mi({"U"}, {"Y1"}, {"X"})).is_zero()
    assert eqs.reduce(expand_mi({"U", "X"}, {"Y2", "Z"}, {"Y1"})).is_zero()
    assert eqs.reduce(expand_mi({"U"}, {"Z"}, {"Y2"})).is_zero()
    assert not eqs.reduce(expand_mi({"U"}, {"Z"})).is_zero()
    assert not eqs.reduce(expand_mi({"X"}, {"Y2"}, {"U"})).is_zero()


def _fixed_point_reduce(pivots, expr):
    """Reference: subtract pivot rows until no pivot atom is left."""
    changed = True
    while changed:
        changed = False
        for a in list(expr.terms):
            if a in pivots and a in expr.terms:
                expr = expr - pivots[a] * expr.terms[a]
                changed = True
    return expr


@lru_cache(maxsize=1)
def _layered_bases():
    """The layered equality set and the reference basis: each row reduced
    only against the rows before it, by the fixed-point reduction."""
    eqs = derive_equalities(layered_structure())
    pivots = {}
    for e in eqs.equalities:
        e = _fixed_point_reduce(pivots, e)
        if e.terms:
            pivot = min(e.terms, key=lambda a: (-len(a.subset), a.subset))
            pivots[pivot] = e * Fraction(1, e.terms[pivot])
    return eqs, pivots


_NAMES = ["Q", "U", "V1", "V2", "X", "Y1", "Y2", "Z"]
_terms = st.lists(st.tuples(st.sets(st.sampled_from(_NAMES), min_size=1),
                            st.integers(-3, 3)), max_size=8)
_combination = st.lists(st.tuples(st.integers(0, 10**6), st.integers(-3, 3)), max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_terms, st.integers(-2, 2), _combination)
def test_reduce_is_the_unique_pivot_free_form(terms, constant, combination):
    eqs, reference = _layered_bases()
    expr = InfoExpr(constant=constant)
    for names, k in terms:
        expr = expr + ent(names) * k
    shifted = expr
    for i, k in combination:
        shifted = shifted + eqs.equalities[i % len(eqs.equalities)] * k
    r = eqs.reduce(expr)
    assert eqs.reduce(shifted) == r
    assert eqs.reduce(r) == r
    assert not set(r.terms) & set(eqs._pivots)
    assert set(eqs._pivots) == set(reference)
    assert _fixed_point_reduce(reference, shifted) == r


# --- the integer basis against the Fraction arithmetic it replaced --------------
#
# The reference copies the Fraction version of EqualitySet and _reduce over
# dicts of Fraction values keyed by ("H", sorted names), ("s", symbol) or
# ("c",) for the constant.


def _ref_value(e):
    out = {("H", a.subset): Fraction(c) for a, c in e.terms.items()}
    out.update({("s", n): Fraction(c) for n, c in e.syms.items()})
    if e.constant:
        out[("c",)] = Fraction(e.constant)
    return out


def _ref_reduce(pivots, expr):
    terms = dict(expr)
    for a in [a for a in expr if a in pivots]:
        k = terms.pop(a)
        for b, c in pivots[a].items():
            if b != a:
                terms[b] = terms.get(b, Fraction(0)) - k * c
    return {b: c for b, c in terms.items() if c != 0}


def _ref_basis(equalities):
    pivots = {}
    for e in equalities:
        e = _ref_reduce(pivots, e)
        order = sorted((a for a in e if a[0] == "H"), key=lambda a: (-len(a[1]), a[1]))
        if not order:
            continue
        pivot = order[0]
        e = {a: c / e[pivot] for a, c in e.items()}
        for a, row in pivots.items():
            k = row.get(pivot)
            if k:
                merged = dict(row)
                for b, c in e.items():
                    merged[b] = merged.get(b, Fraction(0)) - k * c
                pivots[a] = {b: c for b, c in merged.items() if c != 0}
        pivots[pivot] = e
    return pivots


def _ref_text(value):
    bits = [f"{c}*H({','.join(a[1])})" for a, c in sorted(value.items()) if a[0] == "H"]
    bits += [f"{c}*{a[1]}" for a, c in sorted(value.items()) if a[0] == "s"]
    if ("c",) in value:
        bits.append(str(value[("c",)]))
    return " + ".join(bits) or "0"


_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_EXPR = st.tuples(st.lists(st.tuples(st.sets(st.sampled_from("ABCD"), min_size=1), _RATIONAL),
                           max_size=5),
                  st.dictionaries(st.sampled_from(("s0", "s1")), _RATIONAL, max_size=2),
                  _RATIONAL)


def _expr(drawn):
    terms, syms, constant = drawn
    e = InfoExpr(syms=syms, constant=constant)
    for names, k in terms:
        e = e + ent(names) * k
    return e


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_EXPR, max_size=6), st.lists(_EXPR, min_size=1, max_size=4))
def test_integer_basis_reduces_as_the_fraction_one(equalities, exprs):
    equalities, exprs = [_expr(d) for d in equalities], [_expr(d) for d in exprs]
    eqs = EqualitySet(equalities)
    ref = _ref_basis([_ref_value(e) for e in equalities])
    assert {("H", a.subset) for a in eqs._pivots} == set(ref)
    for a, row in eqs._pivots.items():
        # a primitive integer row, its pivot positive, proportional to the reference row
        assert row.den == 1 and row.nums[a] > 0
        assert math.gcd(row.cnum, *row.nums.values(), *row.snums.values()) == 1
        assert _ref_value(row * Fraction(1, row.nums[a])) == ref[("H", a.subset)]
    reduced = [eqs.reduce(e) for e in exprs]
    want = [_ref_reduce(ref, _ref_value(e)) for e in exprs]
    for r, w in zip(reduced, want):
        assert r.den > 0 and math.gcd(r.den, r.cnum, *r.nums.values(), *r.snums.values()) == 1
        assert _ref_value(r) == w
        assert repr(r) == _ref_text(w)
    # two reduced forms share a key exactly when the Fraction values agree
    assert [[r.key() == s.key() for s in reduced] for r in reduced] == \
        [[w == v for v in want] for w in want]
