"""Symmetric truncations of fast-growing integer sequences and their
triple-sum bookkeeping.

A spectrum stores 0 = lambda_0 < lambda_1 < ... with lambda_{n+1} > 3
lambda_n (strict) and stands for the symmetric set {0, +-lambda_1, ...}.
Every attainable triple sum D gets classified by how many essentially
different unordered triples produce it:

* unique: exactly one triple;
* trivial: D is itself an element and every triple is D padded with a
  cancelling pair {m, -m};
* exception: exactly two triples, at least one carrying a repeated
  element.

Brute-force classification and a closed-form reconstruction of the
exceptions from two Diophantine equations are implemented independently;
the tests require them to agree on the boundary-safe range.

Lambdas are plain Python integers, so arbitrarily large values are exact
and no separate overflow checking is needed. The module imports only the
standard library. A triple is a plain sorted ``tuple[int, int, int]``,
and ``ClassifiedPoint`` is a frozen slotted dataclass: depth 40 makes
some 89k points over 92k triples, and no point carries a per-instance
``__dict__``.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import RangeError, SpectrumError, StructureViolation, check_int

# Brute force holds every triple in memory: at 139 elements (depth 69)
# `spectrum classify --cross-check` peaks at 301 MB, streaming a 142 MB json report.
MAX_ELEMENTS = 140
MIN_GENERATOR_BASE = 4  # smallest integer ratio that stays strictly above 3


class PointKind(Enum):
    UNIQUE = "unique"
    TRIVIAL = "trivial"
    EXCEPTION = "exception"


class ExceptionKind(Enum):
    BOTH_REPEAT = "both_repeat"    # each of the two triples has a repeat
    ONE_DISTINCT = "one_distinct"  # exactly one triple is repeat-free


@dataclass(frozen=True)
class SpectrumSet:
    """Validated truncation; construct through make_spectrum."""

    lambdas: tuple[int, ...]
    elements: tuple[int, ...]

    @property
    def top(self) -> int:
        return self.lambdas[-1]

    def __contains__(self, value: int) -> bool:
        return value in self._element_set

    @functools.cached_property
    def _element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def is_double(self, value: int) -> bool:
        """True when value = 2a for some element a."""
        return value % 2 == 0 and value // 2 in self._element_set

    def is_triple(self, value: int) -> bool:
        """True when value = 3a for some element a."""
        return value % 3 == 0 and value // 3 in self._element_set


def _generator_int(value: object, what: str, lo: int, kind: str) -> int:
    try:
        return check_int(value, what, lo, math.inf)
    except RangeError:
        raise SpectrumError(f"generator {what} must be {kind}, got {value!r}") from None


def make_spectrum(
    lambdas=None,
    *,
    base: int | None = None,
    depth: int | None = None,
    scale: int = 1,
) -> SpectrumSet:
    """Validate an explicit lambda list or expand a geometric generator.

    Generator form produces [0, scale, scale*base, ..., scale*base^(depth-1)];
    base must be an integer >= 4 so the ratio stays strictly above 3; each
    parameter goes through ``check_int``, and a refusal is a SpectrumError.
    """
    if (lambdas is None) == (base is None):
        raise SpectrumError("provide either an explicit lambda list or a generator base")
    if base is not None:
        base = _generator_int(base, "base", MIN_GENERATOR_BASE, "an integer >= 4")
        depth = _generator_int(depth, "depth", 0, "a non-negative integer")
        scale = _generator_int(scale, "scale", 1, "a positive integer")
        if 2 * depth + 1 > MAX_ELEMENTS:  # refused before any power is built
            raise RangeError(f"{2 * depth + 1} elements exceed the supported {MAX_ELEMENTS}")
        lambdas = [0] + [scale * base**k for k in range(depth)]
    seq = tuple(lambdas)
    if not seq:
        raise SpectrumError("lambda list is empty")
    for i, v in enumerate(seq):
        if not isinstance(v, int) or isinstance(v, bool):
            raise SpectrumError(f"lambda at index {i} is not an integer: {v!r}")
    if seq[0] != 0:
        raise SpectrumError(f"lambda_0 must be 0, got {seq[0]}")
    for i in range(1, len(seq)):
        if seq[i] <= seq[i - 1]:
            raise SpectrumError(f"lambdas must be strictly increasing; index {i} fails")
        if i >= 2 and seq[i] <= 3 * seq[i - 1]:
            raise SpectrumError(
                f"ratio condition fails at index {i}: {seq[i]} <= 3*{seq[i - 1]}"
            )
    elements = tuple(sorted({-v for v in seq} | set(seq)))
    if len(elements) > MAX_ELEMENTS:
        raise RangeError(f"{len(elements)} elements exceed the supported {MAX_ELEMENTS}")
    return SpectrumSet(lambdas=seq, elements=elements)


Triple = tuple[int, int, int]  # an unordered triple of elements, stored sorted


def perm_count(t: Triple) -> int:
    """Number of distinct orderings of the triple: 1, 3 or 6."""
    return {1: 1, 2: 3, 3: 6}[len(set(t))]


def has_repeat(t: Triple) -> bool:
    """True when some element appears more than once."""
    return len(set(t)) < 3


def is_trivial_form(t: Triple, point: int) -> bool:
    """True when the triple is {point, m, -m} for some m."""
    a, b, c = t
    return (
        (a + b == 0 and c == point)
        or (a + c == 0 and b == point)
        or (b + c == 0 and a == point)
    )


@dataclass(frozen=True, slots=True)
class ClassifiedPoint:
    """One attainable triple sum with its complete representation list.

    boundary_safe means |point| <= lambda_N: any representation using a
    hypothetical next element lambda_{N+1} > 3 lambda_N would sum to more
    than lambda_N in absolute value, so the classification of such a
    point can never change when the truncation is extended.
    """

    point: int
    reps: tuple[Triple, ...]
    kind: PointKind
    subtype: ExceptionKind | None
    family_tags: frozenset[int]
    boundary_safe: bool


def triples_by_sum(values: Iterable[int]) -> dict[int, list[Triple]]:
    """Every unordered triple of ``values``, sorted, grouped by its sum.

    Each group lists its triples in ascending order.
    """
    grouped: dict[int, list[Triple]] = defaultdict(list)
    for combo in itertools.combinations_with_replacement(sorted(values), 3):
        grouped[combo[0] + combo[1] + combo[2]].append(combo)
    return grouped


def _classify_one(
    point: int, reps: tuple[Triple, ...], spectrum: SpectrumSet
) -> ClassifiedPoint:
    safe = abs(point) <= spectrum.top
    nontrivial = [r for r in reps if not is_trivial_form(r, point)]
    if 0 < len(nontrivial) < len(reps):
        raise StructureViolation(
            f"point {point} mixes a cancellation-padded form with "
            f"{len(nontrivial)} other representation(s)"
        )
    if not nontrivial:
        return ClassifiedPoint(point, reps, PointKind.TRIVIAL, None, frozenset(), safe)
    if len(reps) == 1:
        return ClassifiedPoint(point, reps, PointKind.UNIQUE, None, frozenset(), safe)
    if len(reps) != 2:
        raise StructureViolation(
            f"point {point} has {len(reps)} essentially different representations"
        )
    repeats = sum(1 for r in reps if has_repeat(r))
    if repeats == 0:
        raise StructureViolation(
            f"point {point} has two repeat-free representations"
        )
    subtype = ExceptionKind.BOTH_REPEAT if repeats == 2 else ExceptionKind.ONE_DISTINCT
    return ClassifiedPoint(point, reps, PointKind.EXCEPTION, subtype, frozenset(), safe)


def classify_brute_force(spectrum: SpectrumSet) -> tuple[ClassifiedPoint, ...]:
    """Classify every attainable triple sum by exhaustive enumeration."""
    if len(spectrum.elements) > MAX_ELEMENTS:
        raise RangeError(f"element count {len(spectrum.elements)} exceeds {MAX_ELEMENTS}")
    grouped = triples_by_sum(spectrum.elements)
    return tuple(
        _classify_one(point, tuple(grouped[point]), spectrum) for point in sorted(grouped)
    )


def _equation_solutions(spectrum: SpectrumSet) -> tuple[list, list]:
    """Solve the two consecutive-index equations over the truncation.

    First: lambda_{n+1} = 3 lambda_n + lm + lk, 0 <= lm <= lk <= lambda_n,
    lk > 0. Second: lambda_{n+1} + lm = 3 lambda_n + lk, 0 <= lm < lk <=
    lambda_n. Returns per-equation lists of (n, lm, lk) by value.
    """
    lam = spectrum.lambdas
    values = set(lam)
    eq1: list[tuple[int, int, int]] = []
    eq2: list[tuple[int, int, int]] = []
    for n in range(1, len(lam) - 1):
        target = lam[n + 1] - 3 * lam[n]
        for lk in lam[1:]:
            if lk > lam[n]:
                break
            lm = target - lk
            if 0 <= lm <= lk and lm in values:
                eq1.append((n, lm, lk))
            lm2 = lk - target
            if 0 <= lm2 < lk and lm2 in values:
                eq2.append((n, lm2, lk))
    return eq1, eq2


def _family_patterns(lam_next: int, lam_n: int, lm: int, lk: int, first_eq: bool):
    """The four rearrangements of one equation solution into triple pairs."""
    if first_eq:
        return [
            (1, (lam_next, -lam_n, -lam_n), (lam_n, lm, lk)),
            (2, (lam_next, -lam_n, -lm), (lam_n, lam_n, lk)),
            (3, (lam_next, -lam_n, -lk), (lam_n, lam_n, lm)),
            (4, (lam_next, -lm, -lk), (lam_n, lam_n, lam_n)),
        ]
    return [
        (5, (lam_next, -lam_n, -lam_n), (lam_n, -lm, lk)),
        (6, (lam_next, -lam_n, lm), (lam_n, lam_n, lk)),
        (7, (lam_next, -lam_n, -lk), (lam_n, lam_n, -lm)),
        (8, (lam_next, lm, -lk), (lam_n, lam_n, lam_n)),
    ]


def exceptions_from_equations(spectrum: SpectrumSet) -> tuple[ClassifiedPoint, ...]:
    """Reconstruct all exceptions from the two closed-form equations.

    Family tags are positional (1..8) in the order the rearrangement
    patterns are generated: 1-4 from the first equation, 5-8 from the
    second. An empty result is valid.
    """
    eq1, eq2 = _equation_solutions(spectrum)
    lam = spectrum.lambdas
    tagged: dict[tuple, set[int]] = defaultdict(set)
    for solutions, first in ((eq1, True), (eq2, False)):
        for n, lm, lk in solutions:
            for tag, raw1, raw2 in _family_patterns(lam[n + 1], lam[n], lm, lk, first):
                for sign in (1, -1):
                    rep1 = tuple(sorted(sign * v for v in raw1))
                    rep2 = tuple(sorted(sign * v for v in raw2))
                    if sum(rep1) != sum(rep2):
                        raise StructureViolation(
                            f"pattern {tag} produced unequal sums "
                            f"{sum(rep1)} != {sum(rep2)}"
                        )
                    if rep1 == rep2:
                        continue  # degenerate instance, not two different triples
                    tagged[(sum(rep1), tuple(sorted((rep1, rep2))))].add(tag)
    by_point: dict[int, list[tuple]] = defaultdict(list)
    for (point, pair), tags in tagged.items():
        by_point[point].append((pair, tags))
    out = []
    for point in sorted(by_point):
        entries = by_point[point]
        if len(entries) != 1:
            raise StructureViolation(
                f"point {point} arises with {len(entries)} distinct triple pairs"
            )
        reps, tags = entries[0]
        repeats = sum(1 for r in reps if has_repeat(r))
        if repeats == 0:
            raise StructureViolation(f"point {point} lost its repeated element")
        subtype = ExceptionKind.BOTH_REPEAT if repeats == 2 else ExceptionKind.ONE_DISTINCT
        out.append(
            ClassifiedPoint(
                point,
                reps,
                PointKind.EXCEPTION,
                subtype,
                frozenset(tags),
                abs(point) <= spectrum.top,
            )
        )
    return tuple(out)


def has_unique_pair_sums(spectrum: SpectrumSet):
    """Check that every nonzero pair sum comes from a single unordered pair.

    Returns (True, None), or (False, (point, pair_a, pair_b)) with the
    smallest violating sum.
    """
    grouped: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for combo in itertools.combinations_with_replacement(spectrum.elements, 2):
        grouped[sum(combo)].append(combo)
    # report the violation of smallest magnitude, positive sum first
    for point in sorted(grouped, key=lambda d: (abs(d), -d)):
        pairs = grouped[point]
        if point != 0 and len(pairs) > 1:
            return False, (point, pairs[0], pairs[1])
    return True, None
