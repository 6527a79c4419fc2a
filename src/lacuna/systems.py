"""Exception systems and the grouped bound's terms, free of F and I.

The grouped bound stays below I(0,0,0) times the cubed mass when, per
exception writing, the grouped coefficients stay below the interaction
margin 3F. One table, ``_SYSTEM_OF_KINDS``, gives each exception point
its system and tells both the bound and the systems which writing
carries eps_D and which 1/eps_D. Every row, global or exception, is an
F-free template of ``_rows``, and ``decide`` checks every row against a
table of F lower ends in one loop. Every term of the bound is an
integral-free template of ``_bound_terms``.

The module is pure data and arithmetic: it imports only the standard
library, ``lacuna.spectrum`` and ``lacuna.errors``, so the decision runs
as well on exact rationals as on floats, with no quadrature loaded.
``lacuna.certificate`` reads F and I for the rows and the terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import CertificateError, RangeError, StructureViolation
from .spectrum import ClassifiedPoint, PointKind, SpectrumSet, Triple, classify_brute_force

DEFAULT_B = 6.66

# ---------------------------------------------------------------------------
# the exception table: each exception point's system and where its eps
# lands, read alike by the grouped bound and the systems

SYSTEMS = ("trivial", "S2", "S3", "S4", "S5")

# Where eps lands. The grouped bound splits the cross term of an exception
# point's two writings by a weighted AM-GM: one writing carries eps_D and the
# other 1/eps_D, or, at a "trivial" point, each carries a second flat share. A
# writing of each kind asks mult * F >= flat + coeff * eps^power:
#   distinct (n,m,k):   F >= 15 + 6 eps^power
#   pair (p,p,q):      3F >= 18 + 9 eps^power
#   zero pair (p,p,0): 3F >= 9(b+1)/(b-1) + 9 + 9 eps^power
#   cube (m,m,m):       F >= 1 + eps^power
# Power -1 bounds eps below, +1 above, and 0 gives an eps-free margin row.
# kind: (mult, flat, coeff, the row's text at each power the kind takes)
_WRITING = {
    "distinct": (1.0, 15.0, 6.0, {-1: "15 + 6/eps <= F({}, {}, {})"}),
    "pair": (3.0, 18.0, 9.0, {-1: "9(2 + 1/eps) <= 3F({},{},{})", 0: "27 <= 3F({},{},{})",
                              1: "9(2 + eps) <= 3F({},{},{})"}),
    "zero pair": (3.0, 9.0, 9.0, {1: "9(b+1)/(b-1) + 9(1+eps) <= 3F({},{},{})"}),
    "cube": (1.0, 1.0, 1.0, {1: "1 + eps <= F({},{},{})"}),
}
# A point's sorted writing kinds give its system and each kind's power of
# eps, in the same order. (cube, zero pair) would need 2p = 3m on 3-separated
# moduli and (zero pair, zero pair) would be one writing, so neither occurs.
_SYSTEM_OF_KINDS = {
    ("distinct", "pair"): ("S2", (-1, 1)),
    ("distinct", "zero pair"): ("S2", (-1, 1)),
    ("cube", "distinct"): ("S3", (1, -1)),
    ("pair", "zero pair"): ("S4", (-1, 1)),
    ("cube", "pair"): ("S5", (1, -1)),
    ("pair", "pair"): ("trivial", (0, 0)),
}


def _kind(rep: Triple) -> tuple[str, tuple[int, int, int]]:
    """A writing's kind and its F moduli: a repeated modulus first, else descending."""
    a, b, c = rep
    if a == b == c:
        return "cube", (abs(a),) * 3
    if a == b or b == c:
        p, q = (a, c) if a == b else (c, a)
        return ("pair" if q else "zero pair"), (abs(p), abs(p), abs(q))
    return "distinct", tuple(sorted((abs(v) for v in rep), reverse=True))


def _system_of(point: ClassifiedPoint) -> tuple[str, dict[str, int]]:
    """The system of an exception point and each writing kind's power of eps.

    A pair of kinds outside ``_SYSTEM_OF_KINDS`` is a hard error.
    """
    kinds = tuple(sorted(_kind(r)[0] for r in point.reps))
    if kinds not in _SYSTEM_OF_KINDS:
        raise StructureViolation(f"exception {point.point} writings {kinds} match no known system")
    system, powers = _SYSTEM_OF_KINDS[kinds]
    return system, dict(zip(kinds, powers))


@functools.lru_cache(maxsize=64)
def _exceptions(spectrum: SpectrumSet) -> dict[int, tuple[str, dict[str, int], ClassifiedPoint]]:
    """Each exception point of the spectrum with its system and its kinds' powers of eps."""
    return {
        c.point: (*_system_of(c), c)
        for c in classify_brute_force(spectrum)
        if c.kind is PointKind.EXCEPTION
    }


@functools.lru_cache(maxsize=64)
def exception_frequencies(spectrum: SpectrumSet) -> tuple[int, ...]:
    """Elements participating in some exception writing, sorted."""
    points = [point for *_, point in _exceptions(spectrum).values()]
    return tuple(sorted({n for point in points for rep in point.reps for n in rep}))


# ---------------------------------------------------------------------------
# the weights, the rows and the decision


def check_weight(b: float) -> None:
    """Refuse a weight b of the grouped bound that is not finite and > 1."""
    if not 1 < b < math.inf:
        raise RangeError(f"weight b must exceed 1 and be finite, got {b}")


@dataclass(frozen=True)
class CertificateParams:
    """Weights of the grouped bound: one b, one eps per exception."""

    b: float = DEFAULT_B
    eps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        check_weight(self.b)
        for d, e in self.eps:
            if not (e > 0 and math.isfinite(e)):
                raise RangeError(f"eps for exception {d} must be positive, got {e}")

    @staticmethod
    def from_mapping(b: float, eps: Mapping[int, float]) -> "CertificateParams":
        return CertificateParams(b=b, eps=tuple(sorted(eps.items())))

    @functools.cached_property
    def _eps_map(self) -> dict[int, float]:
        return dict(self.eps)

    def eps_for(self, d: int) -> float:
        try:
            return self._eps_map[d]
        except KeyError:
            raise CertificateError(f"no eps assigned for exception point {d}") from None


@dataclass(frozen=True)
class SystemInstance:
    """One checked inequality instance, with its eps window if any.

    Global rows and eps-free exception rows keep the default window
    (0, inf) and carry the inequality slack in ``margin``; eps rows keep
    the window endpoints and its width. Either way the row is feasible
    exactly when its margin is nonnegative.
    """

    system_id: str
    point: int | None
    description: str
    margin: float
    eps_lo: float = 0.0
    eps_hi: float = math.inf

    @property
    def feasible(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class SystemReport:
    system_id: str
    instances: tuple[SystemInstance, ...]

    @property
    def passed(self) -> bool:
        return all(r.feasible for r in self.instances)

    @property
    def tightest_margin(self) -> float:
        return min((r.margin for r in self.instances), default=math.inf)


# (system, point, text, mult, F moduli, rhs, coeff, power): the row
# mult * F >= rhs + coeff * eps^power, its right-hand terms subtracted in order
_Row = tuple[str, int | None, str, float, tuple[int, ...], tuple[float, ...], float, int]


def _rows(spectrum: SpectrumSet, b: float) -> Iterator[_Row]:
    """Every system row as an F-free template: the global rows, then each
    exception point's writings, their powers of eps from ``_exceptions``.

    A power-0 row folds its eps-free share into rhs and has coeff 0.
    """
    pos = [v for v in spectrum.lambdas if v > 0]
    quartic = 9.0 * (b + 1.0) / (b - 1.0)
    cross = 9.0 * (b - 3.0) / (b - 1.0)

    def global_row(text: str, mult: float, moduli: tuple[int, ...], rhs: float) -> _Row:
        return "trivial", None, text, mult, moduli, (rhs,), 0.0, 0

    for mu in pos:
        yield global_row(f"9 <= 3F({mu},{mu},{mu})", 3.0, (mu, mu, mu), 9.0)
        yield global_row(f"15 <= 3F({mu},0,0)", 3.0, (mu, 0, 0), 15.0)
        yield global_row(f"9(b-3)/(b-1) + 18 <= 3F({mu},{mu},0)", 3.0, (mu, mu, 0), cross + 18.0)
        yield global_row(f"9(b+1)/(b-1) + 9 <= 3F({mu},{mu},0)", 3.0, (mu, mu, 0), quartic + 9.0)
    for m1, m2 in itertools.permutations(pos, 2):
        yield global_row(f"27 <= 3F({m1},{m1},{m2})", 3.0, (m1, m1, m2), 27.0)
    # make_spectrum keeps the lambdas strictly increasing
    for n3, n2, n1 in itertools.combinations(spectrum.lambdas, 3):
        yield global_row(f"15 <= F({n1},{n2},{n3})", 1.0, (n1, n2, n3), 15.0)
    for d, (system, powers, point) in _exceptions(spectrum).items():
        for rep in point.reps:
            kind, moduli = _kind(rep)
            power = powers[kind]
            mult, flat, coeff, texts = _WRITING[kind]
            # 3F - quartic - 9 here against 3F - (quartic + 9) in the global
            # row: the two round apart, and each window keeps its own bits
            rhs = (quartic, flat) if kind == "zero pair" else (flat,)
            if power == 0:
                rhs, coeff = (flat + coeff,), 0.0
            yield system, d, texts[power].format(*moduli), mult, moduli, rhs, coeff, power


def _bound_terms(
    spectrum: SpectrumSet, params: CertificateParams, support: Sequence[int]
) -> Iterator[tuple[float, tuple[int, int, int]]]:
    """The eleven grouped sums as integral-free terms over ``support``.

    The bound is the sum over the terms (coeff, (n1, n2, n3)), in one
    fixed order, of coeff * I(m1,m1,m2,m2,m3,m3) x_n1 x_n2 x_n3 with
    x = |fhat|^2 and m = |n|. An exception writing's share coeff *
    eps^power reads its power from ``_exceptions`` as ``_rows`` does; a
    fired exception without an eps weight is a hard error.
    """
    powers = {d: p for d, (_, p, _) in _exceptions(spectrum).items()}
    present = set(support)

    def split(d: int, kind: str) -> tuple[float, float]:
        # a writing's flat coefficient and its eps share, 0 off the exceptions
        _, flat, coeff, _ = _WRITING[kind]
        power = powers.get(d, {}).get(kind)
        if power is None:
            return flat, 0.0
        eps = params.eps_for(d) if power else 1.0
        return flat, coeff / eps if power < 0 else coeff * eps

    def grouped() -> Iterator[tuple[float, tuple[int, int, int]]]:
        # distinct-moduli triples: the flat and the eps share in one coefficient
        for n1 in support:
            for n2 in support:
                if abs(n1) == abs(n2):
                    continue
                for n3 in support:
                    if abs(n3) == abs(n1) or abs(n3) == abs(n2):
                        continue
                    yield sum(split(n1 + n2 + n3, "distinct")), (n1, n2, n3)
        for n1 in support:
            if n1 == 0:
                continue
            # quartic cross sums over n2 with a different modulus: the flat,
            # then the eps share as a term of its own
            for n2 in support:
                if abs(n1) == abs(n2):
                    continue
                flat, share = split(2 * n1 + n2, "pair" if n2 else "zero pair")
                yield flat, (n1, n1, n2)
                if share:
                    yield share, (n1, n1, n2)
                # paired-conjugate cross sum, nonzero opposite modulus only
                if n2 != 0:
                    yield 9.0, (n1, -n1, n2)
            # pure sixth powers
            yield sum(split(3 * n1, "cube")), (n1, n1, n1)
            yield 9.0, (n1, n1, -n1)
            # rows against the zero frequency
            yield 9.0 * (params.b + 1.0) / (params.b - 1.0), (n1, n1, 0)
            yield 9.0 * (params.b - 3.0) / (params.b - 1.0), (n1, -n1, 0)
            yield 6.0, (n1, 0, 0)
        # conjugate-pair square sums, any first modulus
        for n1 in support:
            for n2 in support:
                if abs(n1) == abs(n2):
                    continue
                yield 18.0 - (9.0 if n2 == 0 else 0.0), (n1, n2, -n2)
        # the constant-mode cube
        yield 1.0, (0, 0, 0)

    # only where x can be nonzero; each |n| is twice in I, so its sign is +
    return (term for term in grouped() if present.issuperset(term[1]))


def decide(rows: list[_Row], f_table: Mapping[tuple[int, ...], float]) -> list[SystemReport]:
    """Decide every row against ``f_table``, F's lower end per sorted triple.

    With room = mult * F less the rhs terms in order, power 0 gives the
    margin row room; power -1 bounds the point's eps below by coeff /
    room (inf where room <= 0) and +1 bounds it above by room / coeff,
    and the window's row names the lower end's writing first. An
    exception row also shows its F lower end. Only + - * / and
    comparisons touch the numbers, so exact rationals decide alike.
    """
    instances: dict[str, list[SystemInstance]] = {system_id: [] for system_id in SYSTEMS}
    ends: dict[int, dict[int, tuple[float, str]]] = {}
    for system, d, text, mult, moduli, rhs, coeff, power in rows:
        f_lo = f_table[tuple(sorted(moduli))]
        if d is not None:
            text = f"{text} [F_lo={float(f_lo):.4f}]"
        room = mult * f_lo
        for term in rhs:
            room -= term
        if power == 0:
            instances[system].append(SystemInstance(system, d, text, room))
            continue
        if power > 0:
            end = room / coeff
        else:
            end = coeff / room if room > 0.0 else math.inf
        window = ends.setdefault(d, {})
        window[power] = end, text
        if len(window) == 2:
            (lo, lo_text), (hi, hi_text) = window[-1], window[1]
            row = SystemInstance(system, d, f"{lo_text}; {hi_text}", hi - lo, lo, hi)
            instances[system].append(row)
    return [SystemReport(system_id, tuple(instances[system_id])) for system_id in SYSTEMS]


def params_from_reports(b: float, reports: list[SystemReport]) -> CertificateParams:
    """Each eps at the midpoint of its window in already solved systems."""
    eps: dict[int, float] = {}
    for report in reports:
        for inst in report.instances:
            if inst.point is None or inst.eps_hi == math.inf:
                continue
            if not inst.feasible:
                raise CertificateError(
                    f"system {inst.system_id} infeasible at exception {inst.point}: "
                    f"{inst.description}"
                )
            eps[inst.point] = 0.5 * (inst.eps_lo + inst.eps_hi)
    return CertificateParams.from_mapping(b, eps)
