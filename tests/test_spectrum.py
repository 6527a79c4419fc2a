"""Tests for spectrum validation and triple-sum classification.

The brute-force classifier and the closed-form equation route are
implemented independently; their agreement on every valid spectrum is
the oracle check here.
"""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import spectrum as sp
from lacuna.errors import RangeError, SpectrumError, StructureViolation


def test_generator_form():
    got = sp.make_spectrum(base=5, depth=4)
    assert got.lambdas == (0, 1, 5, 25, 125)
    assert got.elements == (-125, -25, -5, -1, 0, 1, 5, 25, 125)
    assert got.top == 125
    scaled = sp.make_spectrum(base=4, depth=3, scale=7)
    assert scaled.lambdas == (0, 7, 28, 112)


def test_explicit_form_validation():
    ok = sp.make_spectrum([0, 1, 4, 13])
    assert ok.lambdas == (0, 1, 4, 13)
    with pytest.raises(SpectrumError, match="index 2"):
        sp.make_spectrum([0, 1, 3])
    with pytest.raises(SpectrumError, match="lambda_0"):
        sp.make_spectrum([1, 4, 16])
    with pytest.raises(SpectrumError, match="increasing"):
        sp.make_spectrum([0, 4, 4])
    with pytest.raises(SpectrumError, match="integer"):
        sp.make_spectrum([0, 1.5, 6])
    # a numpy integer passes the one integer check, as in the generator form
    numpy_ints = sp.make_spectrum([0, np.int64(1), 5])
    assert numpy_ints.lambdas == (0, 1, 5) and all(type(v) is int for v in numpy_ints.lambdas)
    with pytest.raises(SpectrumError):
        sp.make_spectrum([])
    with pytest.raises(SpectrumError):
        sp.make_spectrum([0, 1], base=4)
    with pytest.raises(SpectrumError, match="base"):
        sp.make_spectrum(base=3, depth=4)
    with pytest.raises(SpectrumError, match="scale"):
        sp.make_spectrum(base=4, depth=3, scale=0)


def test_membership_helpers():
    a5 = sp.make_spectrum(base=5, depth=3)
    assert 25 in a5 and -25 in a5 and 0 in a5
    assert 3 not in a5


def test_enumerate_smallest_sets():
    only_zero = sp.make_spectrum([0])
    reps = sp.triples_by_sum(only_zero.elements)
    assert set(reps) == {0}
    assert reps[0] == [(0, 0, 0)]
    a5_small = sp.make_spectrum([0, 1, 5])
    grouped = sp.triples_by_sum(a5_small.elements)
    assert set(grouped[3]) == {(1, 1, 1), (-1, -1, 5)}
    total = sum(len(v) for v in grouped.values())
    m = len(a5_small.elements)
    assert total == math.comb(m + 2, 3)


# (sorted triple, perm_count, has_repeat, the point it is a trivial form of)
_SHAPES = [
    ((0, 0, 0), 1, True, 0),  # all three equal
    ((5, 5, 5), 1, True, None),
    ((1, 1, 5), 3, True, None),  # low pair equal
    ((-1, -1, 1), 3, True, -1),
    ((-5, 1, 1), 3, True, None),  # high pair equal
    ((-1, 1, 1), 3, True, 1),
    ((-1, 0, 4), 6, False, None),  # all distinct
    ((-5, -1, 5), 6, False, -1),
]


def test_triple_functions_on_every_shape():
    for triple, perms, repeat, trivial_at in _SHAPES:
        # the sign mirror has the mirrored shape and the mirrored point
        mirror = tuple(sorted(-v for v in triple))
        mirror_at = None if trivial_at is None else -trivial_at
        for t, point in ((triple, trivial_at), (mirror, mirror_at)):
            assert sp.perm_count(t) == perms == len(set(itertools.permutations(t)))
            assert sp.has_repeat(t) is repeat
            # a triple is the trivial form of its own sum or of nothing
            hits = [d for d in range(-16, 17) if sp.is_trivial_form(t, d)]
            assert hits == ([] if point is None else [point]), t


def test_both_routes_give_sorted_int_triples():
    for spectrum in (sp.make_spectrum(base=4, depth=5), sp.make_spectrum([0, 1, 4, 13, 40, 121])):
        for route in (sp.classify_brute_force, sp.exceptions_from_equations):
            points = route(spectrum)
            assert points
            for p in points:
                assert type(p.reps) is tuple and list(p.reps) == sorted(p.reps)
                for r in p.reps:
                    assert type(r) is tuple and len(r) == 3
                    assert all(type(v) is int for v in r)
                    assert list(r) == sorted(r) and sum(r) == p.point


def test_classify_a5_truncation():
    a5 = sp.make_spectrum(base=5, depth=4)
    pts = {p.point: p for p in sp.classify_brute_force(a5)}
    exc = sorted(d for d, p in pts.items() if p.kind is sp.PointKind.EXCEPTION)
    assert exc == [-75, -15, -3, 3, 15, 75]
    for d in (3, 15, 75):
        assert pts[d].subtype is sp.ExceptionKind.BOTH_REPEAT
        assert pts[d].boundary_safe
    assert set(pts[3].reps) == {(1, 1, 1), (-1, -1, 5)}
    # members themselves only carry cancellation-padded forms
    for lam in (1, 5, 25, 125):
        assert pts[lam].kind is sp.PointKind.TRIVIAL
    assert pts[0].kind is sp.PointKind.TRIVIAL
    # a generic distinct sum has exactly one representation
    assert pts[125 + 25 + 5].kind is sp.PointKind.UNIQUE
    # the doubled top element is unique here but truncation-sensitive
    assert pts[250].kind is sp.PointKind.UNIQUE
    assert not pts[250].boundary_safe
    assert pts[75].boundary_safe  # 75 <= 125


def test_classify_a4_truncation():
    a4 = sp.make_spectrum(base=4, depth=4)
    pts = {p.point: p for p in sp.classify_brute_force(a4)}
    exc = sorted(d for d, p in pts.items() if p.kind is sp.PointKind.EXCEPTION)
    assert exc == [-48, -32, -12, -8, -3, -2, 2, 3, 8, 12, 32, 48]
    assert pts[2].subtype is sp.ExceptionKind.BOTH_REPEAT
    assert set(pts[2].reps) == {(-1, -1, 4), (0, 1, 1)}
    assert pts[3].subtype is sp.ExceptionKind.ONE_DISTINCT
    assert set(pts[3].reps) == {(-1, 0, 4), (1, 1, 1)}


def test_classify_tiny_sets():
    assert all(
        p.kind is not sp.PointKind.EXCEPTION
        for p in sp.classify_brute_force(sp.make_spectrum([0, 1]))
    )
    zero_only = sp.classify_brute_force(sp.make_spectrum([0]))
    assert len(zero_only) == 1
    assert zero_only[0].kind is sp.PointKind.TRIVIAL


def test_classify_rejects_invalid_structure():
    # ratio-2 set built without validation: 1 = 1+0+0 = 2-1+0 mixes a
    # padded form with a genuinely different one
    bad = sp.SpectrumSet(lambdas=(0, 1, 2), elements=(-2, -1, 0, 1, 2))
    with pytest.raises(StructureViolation):
        sp.classify_brute_force(bad)


def test_equations_route_families():
    a4 = sp.make_spectrum(base=4, depth=4)
    by_point = {p.point: p for p in sp.exceptions_from_equations(a4)}
    assert by_point[2].family_tags == frozenset({1, 3, 5, 7})
    assert by_point[3].family_tags == frozenset({2, 4, 6, 8})
    assert by_point[-2].family_tags == frozenset({1, 3, 5, 7})
    a5 = sp.make_spectrum(base=5, depth=4)
    tags5 = {p.point: p.family_tags for p in sp.exceptions_from_equations(a5)}
    assert tags5[3] == frozenset({1, 2, 3, 4})
    assert tags5[75] == frozenset({1, 2, 3, 4})


def test_equations_route_empty_cases():
    assert sp.exceptions_from_equations(sp.make_spectrum([0, 1, 10, 100])) == ()
    assert sp.exceptions_from_equations(sp.make_spectrum([0, 1])) == ()
    assert sp.exceptions_from_equations(sp.make_spectrum([0])) == ()


def _assert_oracle_match(spectrum):
    brute = {
        (p.point, p.reps, p.subtype)
        for p in sp.classify_brute_force(spectrum)
        if p.kind is sp.PointKind.EXCEPTION and p.boundary_safe
    }
    found = sp.exceptions_from_equations(spectrum)
    equations = {(p.point, p.reps, p.subtype) for p in found if p.boundary_safe}
    assert brute == equations, spectrum.lambdas
    # each pattern rearranges an exact equation solution, so both writings
    # of every point sum to it and at least one repeats an element
    for p in found:
        assert all(sum(rep) == p.point for rep in p.reps), (spectrum.lambdas, p.point)
        assert any(sp.has_repeat(rep) for rep in p.reps), (spectrum.lambdas, p.point)


def test_oracle_equivalence_geometric():
    for base in (4, 5, 6, 7, 9):
        for depth in range(1, 7):
            _assert_oracle_match(sp.make_spectrum(base=base, depth=depth))


def test_oracle_equivalence_random():
    rng = random.Random(20260819)
    for _ in range(50):
        lams = [0, rng.randint(1, 9)]
        for _ in range(rng.randint(0, 6)):
            lams.append(3 * lams[-1] + rng.randint(1, max(2, lams[-1])))
        spec = sp.make_spectrum(lams)
        _assert_oracle_match(spec)
        for p in sp.exceptions_from_equations(spec):
            assert len(p.reps) == 2
            assert any(sp.has_repeat(r) for r in p.reps)


def test_pair_sum_uniqueness():
    ok, witness = sp.has_unique_pair_sums(sp.make_spectrum(base=5, depth=4))
    assert ok and witness is None
    ok, witness = sp.has_unique_pair_sums(sp.make_spectrum([0]))
    assert ok and witness is None
    bad = sp.SpectrumSet(lambdas=(0, 1, 2), elements=(-2, -1, 0, 1, 2))
    ok, witness = sp.has_unique_pair_sums(bad)
    assert not ok
    point, first, second = witness
    assert point == 1
    assert {first, second} == {(-1, 2), (0, 1)}


def test_oversized_generator_refused_before_expansion():
    # a generator has 2 depth + 1 elements: refused before any power exists
    with pytest.raises(RangeError, match="^2000000001 elements exceed the supported 140$"):
        sp.make_spectrum(base=4, depth=10**9)


def test_element_cap():
    many = sp.SpectrumSet(lambdas=(0,), elements=tuple(range(sp.MAX_ELEMENTS + 1)))
    with pytest.raises(RangeError):
        sp.classify_brute_force(many)


@st.composite
def valid_lambdas(draw):
    lams = [0, draw(st.integers(min_value=1, max_value=7))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        bump = draw(st.integers(min_value=1, max_value=lams[-1] + 2))
        lams.append(3 * lams[-1] + bump)
    return lams


@settings(max_examples=80, deadline=None)
@given(valid_lambdas(), st.integers(min_value=1, max_value=9))
def test_scaling_invariance(lams, scale):
    base = sp.classify_brute_force(sp.make_spectrum(lams))
    scaled = sp.classify_brute_force(sp.make_spectrum([scale * v for v in lams]))
    assert len(base) == len(scaled)
    for a, b in zip(base, scaled):
        assert b.point == scale * a.point
        assert b.kind is a.kind
        assert b.subtype is a.subtype
        assert b.boundary_safe == a.boundary_safe
        assert list(b.reps) == [tuple(scale * e for e in r) for r in a.reps]
    tags_a = {p.point: p.family_tags for p in sp.exceptions_from_equations(sp.make_spectrum(lams))}
    tags_b = {
        p.point: p.family_tags
        for p in sp.exceptions_from_equations(sp.make_spectrum([scale * v for v in lams]))
    }
    assert tags_b == {scale * d: t for d, t in tags_a.items()}
