"""Certificate layer: exact sextic sums, grouped upper bound, systems.

The object under test is the sextic interaction sum

    S = sum over D of sum over triple pairs (R1, R2) with sum D of
        p(R1) p(R2) fhat(R1) conj(fhat(R2)) I(R1 join R2),

where p counts permutations of a triple and I is the six-fold Bessel
product integral. ``compute_S_exact`` evaluates S literally on a finite
support. ``compute_S_upper_bound`` evaluates the eleven grouped sums
that dominate S after every cross term has been split by Cauchy-Schwarz,
a weighted AM-GM with one free weight b, and one free weight eps_D per
exception point. ``check_systems`` certifies, per exception shape, that
the grouped coefficients stay below the interaction margin 3F, which is
what makes the grouped bound at most I(0,0,0) times the cubed mass.
``verdict_of`` compares both ends with a three-valued verdict, and
``verify_theorem`` applies it to the literal S of one vector.

For a fixed spectrum both sides are fixed forms in the amplitudes: S is
the Hermitian form sum over D of v_D^H M_D v_D, with v_D[R] = p(R) times
the product of fhat over R, and the grouped bound is a cubic form in
x = |fhat|^2. ``assemble_forms`` builds both once, from the same direct
integrals the literal sums look up, and ``evaluate_forms`` checks many
vectors with numpy, a fixed block of vectors at a time. The literal sums
stay as the oracle the tests compare the forms against.

One function, ``f_lower``, gives every lower bound for the ratio F the
systems read: the larger of a recorded analytic floor and the direct
quadrature bound computed on demand. The floors are strict inequalities
on finite windows, trusted as assumptions (the pair and distinct floors
only on 3-separated moduli, as in a lacunary spectrum) and corroborated
by the integrals test suite. Every verdict consumes interval endpoints,
so "holds" survives worst-case quadrature error.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import CertificateError, RangeError, StructureViolation, check_int
from .integrals import (
    DEFAULT_R_MAX,
    MAX_SEXTET_ORDER,
    IntegralValue,
    i_direct,
)
from .spectrum import (
    ClassifiedPoint,
    PointKind,
    SpectrumSet,
    Triple,
    classify_brute_force,
    perm_count,
    triples_by_sum,
)

MAX_SUPPORT = 11        # cap of the literal compute_S_exact: O(support^6) grouped by D
IMAG_REL_TOL = 1.0e-9   # conjugate symmetry makes S real; larger is a bug
DEFAULT_B = 6.66
FORM_BLOCK = 16         # vectors per numpy pass: temporaries stay near 1 MB

# Analytic window floors for F(a, b, c) = I(0,0,0) / I(a,b,c), recorded
# as assumptions. The integrals tests corroborate each on a finite
# window; none is re-derived here. The pair and distinct floors hold on
# 3-separated moduli: each nonzero modulus more than three times the
# next, as in every lacunary spectrum.
F_FLOOR_SINGLE = 5.0           # (n,0,0), n >= 1; equality at n = 1
F_FLOOR_PAIR0 = 7.94           # (n,n,0), n >= 1
F_FLOOR_PAIR0_HIGH = 10.8      # (n,n,0), n >= 3
F_FLOOR_TRIPLE = 3.2           # (n,n,n), n >= 1
F_FLOOR_PAIR_MEMBER = 13.2     # (n,n,m), n != m >= 1, 3-separated
F_FLOOR_DISTINCT_MEMBER = 21.0  # (n,m,k), n > m > k >= 0, 3-separated


# ---------------------------------------------------------------------------
# coefficient vectors


@dataclass(frozen=True)
class CoefficientVector:
    """Finitely supported Fourier coefficients bound to a spectrum.

    ``entries`` keeps nonzero amplitudes only, sorted by frequency, so
    equal vectors compare equal regardless of construction order.
    """

    spectrum: SpectrumSet
    entries: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for n, z in self.entries:
            if n not in self.spectrum:
                raise RangeError(f"frequency {n} is not a spectrum element")
            if n in seen:
                raise RangeError(f"duplicate frequency {n}")
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise RangeError(f"amplitude at {n} is not finite")
            seen.add(n)

    @staticmethod
    def from_dict(spectrum: SpectrumSet, values: Mapping[int, complex]) -> "CoefficientVector":
        entries = tuple(
            (int(n), complex(z)) for n, z in sorted(values.items()) if complex(z) != 0
        )
        return CoefficientVector(spectrum, entries)

    @staticmethod
    def constant(spectrum: SpectrumSet, value: complex = 1.0) -> "CoefficientVector":
        return CoefficientVector.from_dict(spectrum, {n: value for n in spectrum.elements})

    @functools.cached_property
    def _map(self) -> dict[int, complex]:
        return dict(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    def amp(self, n: int) -> complex:
        return self._map.get(n, 0.0 + 0.0j)

    def mass(self) -> float:
        return sum(abs(z) ** 2 for _, z in self.entries)


# ---------------------------------------------------------------------------
# the exception table: each exception point's system, decided once for the
# grouped bound and the systems

SYSTEMS = ("trivial", "S2", "S3", "S4", "S5")


def _shape(rep: Triple) -> tuple:
    a, b, c = rep
    if a == b == c:
        return ("triple", a)
    if a == b:
        return ("pair", a, c)
    if b == c:
        return ("pair", b, a)
    return ("distinct", rep)


def _system_of(point: ClassifiedPoint) -> str:
    """The system of an exception point, read from its two writings' shapes.

    A repeat-free writing against a squared one is S2, against a cube S3;
    a squared writing against a cube is S5; two squared writings are S4
    when one pairs with zero, and "trivial" (no eps fires) otherwise.
    """
    shapes = [_shape(r) for r in point.reps]
    kinds = tuple(sorted(s[0] for s in shapes))
    if kinds == ("pair", "pair"):
        return "S4" if sum(s[2] == 0 for s in shapes) == 1 else "trivial"
    system = {
        ("distinct", "pair"): "S2",
        ("distinct", "triple"): "S3",
        ("pair", "triple"): "S5",
    }.get(kinds)
    if system is None:
        raise StructureViolation(f"exception {point.point} writings {kinds} match no known system")
    return system


@functools.lru_cache(maxsize=64)
def _exceptions(spectrum: SpectrumSet) -> dict[int, tuple[str, ClassifiedPoint]]:
    """Each exception point of the spectrum with its system."""
    return {
        c.point: (_system_of(c), c)
        for c in classify_brute_force(spectrum)
        if c.kind is PointKind.EXCEPTION
    }


# ---------------------------------------------------------------------------
# basic inequality and the window for its weight b


def check_basic_inequality(r: float, s: float, b: float) -> bool:
    """r^3 s <= b/(2b-2) r^4 + 1/(2b-2) s^4 + (b-3)/(2b-2) r^2 s^2.

    Evaluated exactly in integers (floats are dyadic), so the verdict is
    immune to cancellation near the r = s equality line: with
    r : s = x : y and b = p/q, both sides times 2(b - 1) > 0 and q are
    homogeneous of degree 4 in (x, y).
    """
    if not b > 1:
        raise RangeError(f"weight b must exceed 1, got {b}")
    if r < 0 or s < 0:
        raise RangeError("r and s must be non-negative")
    (rn, rd), (sn, sd), (p, q) = (float(v).as_integer_ratio() for v in (r, s, b))
    x, y = rn * sd, sn * rd
    return 2 * (p - q) * x**3 * y <= p * x**4 + q * y**4 + (p - 3 * q) * x * x * y * y


@dataclass(frozen=True)
class BWindow:
    """Closed feasible interval for the weight b, with exact endpoints."""

    lo: float
    hi: float
    lo_exact: Fraction
    hi_exact: Fraction
    feasible: bool


def feasible_b_interval(f_pair_zero_lo: float = F_FLOOR_PAIR0) -> BWindow:
    """Intersect the two b-dependent global rows against 3*F(n,n,0).

    Row "9(b+1)/(b-1) + 9 <= 3F" forces b >= R/(R-18) and row
    "9(b-3)/(b-1) + 18 <= 3F" forces b <= (45-R)/(27-R), where
    R = 3*F(n,n,0) at its minimal verified floor. Solved exactly.
    """
    floor = Fraction(str(f_pair_zero_lo))
    if floor <= 0:
        raise RangeError(f"F floor must be positive, got {f_pair_zero_lo}")
    r3 = 3 * floor
    if r3 <= 18:
        # the quartic row already fails for every b > 1
        return BWindow(math.inf, -math.inf, Fraction(0), Fraction(0), False)
    lo = r3 / (r3 - 18)
    if r3 < 27:
        hi = (45 - r3) / (27 - r3)
    else:
        hi = Fraction(10**9)  # the cross row is vacuous for b > 1
    feasible = 1 < lo <= hi
    return BWindow(float(lo), float(hi), lo, hi, feasible)


# ---------------------------------------------------------------------------
# norm expansion


@dataclass(frozen=True)
class NormSixth:
    """(sum |fhat|^2)^3 next to its grouped nine-sum expansion."""

    mass_cubed: float
    grouped: float


def compute_norm6(f: CoefficientVector) -> NormSixth:
    """Cube of the squared l2 mass, plus the grouped expansion.

    The grouped form splits ordered frequency triples by modulus
    pattern; the two results must agree to 1e-12 relative (tested).
    """
    x = {n: abs(z) ** 2 for n, z in f.entries}
    supp = f.support
    mass = sum(x.values())
    x0 = x.get(0, 0.0)

    def xm(n: int) -> float:
        return x.get(n, 0.0)

    grouped = x0**3                                               # 0,0,0
    g_distinct = 0.0
    for u in supp:
        for v in supp:
            if abs(u) == abs(v):
                continue
            for w in supp:
                if abs(w) == abs(u) or abs(w) == abs(v):
                    continue
                g_distinct += x[u] * x[v] * x[w]
    grouped += g_distinct
    for u in supp:
        if u == 0:
            continue
        grouped += x[u] ** 3                                      # n,n,n
        grouped += 3.0 * x[u] ** 2 * x0                           # n,n,0
        grouped += 3.0 * x[u] * x[u] * xm(-u)                     # n,n,-n
        grouped += 3.0 * x[u] * xm(-u) * x0                       # n,-n,0
        grouped += 3.0 * x[u] * x0**2                             # n,0,0
        for v in supp:
            if v == 0 or abs(v) == abs(u):
                continue
            grouped += 3.0 * x[u] ** 2 * x[v]                     # n,n,m
            grouped += 3.0 * x[u] * x[v] * xm(-v)                 # n,m,-m
    return NormSixth(mass_cubed=mass**3, grouped=grouped)


# ---------------------------------------------------------------------------
# exact sextic sum


@dataclass(frozen=True)
class SextetSum:
    """S or its grouped upper bound, with the propagated quadrature error."""

    value: float
    error_bound: float


def _fprod(f: CoefficientVector, rep: Triple) -> complex:
    z = 1.0 + 0.0j
    for n in rep:
        z *= f.amp(n)
    return z


def _check_real(total: complex) -> None:
    if abs(total.imag) > IMAG_REL_TOL * abs(total.real) + 1.0e-300:
        raise CertificateError(
            f"sextic sum has imaginary part {total.imag} against real {total.real}"
        )


def compute_S_exact(
    f: CoefficientVector,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> SextetSum:
    """Evaluate S literally, grouped by the shared triple sum D.

    Each unordered support triple R carries weight p(R); a pair
    (R1, R2) with equal sums contributes p(R1) p(R2) fhat(R1)
    conj(fhat(R2)) I(R1 join R2). Diagonal pairs reduce to the squared
    triple integral; mixed pairs hit the direct quadrature, cached on
    sorted moduli. S reads only the support: which sums are exceptions
    matters to the grouped bound and the systems, not to S.
    """
    supp = f.support
    if len(supp) > MAX_SUPPORT:
        raise RangeError(f"support size {len(supp)} exceeds cap {MAX_SUPPORT}")
    by_d = triples_by_sum(supp)

    total = 0.0 + 0.0j
    err = 0.0
    for _, reps in sorted(by_d.items()):
        for r1 in reps:
            z1 = _fprod(f, r1)
            if z1 == 0:
                continue
            for r2 in reps:
                z2 = _fprod(f, r2)
                if z2 == 0:
                    continue
                weight = float(perm_count(r1) * perm_count(r2))
                ival = i_direct(r1 + r2, r_max=r_max)
                term = weight * z1 * z2.conjugate()
                total += term * ival.value
                err += abs(term) * ival.error_bound
    _check_real(total)
    return SextetSum(value=total.real, error_bound=err)


# ---------------------------------------------------------------------------
# certificate parameters and the grouped upper bound


@dataclass(frozen=True)
class CertificateParams:
    """Weights of the grouped bound: one b, one eps per exception."""

    b: float = DEFAULT_B
    eps: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.b > 1:
            raise RangeError(f"weight b must exceed 1, got {self.b}")
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


BoundTerm = tuple[float, tuple[int, int, int], IntegralValue]


def _bound_terms(
    spectrum: SpectrumSet,
    params: CertificateParams,
    support: Sequence[int],
    r_max: float,
) -> list[BoundTerm]:
    """The eleven grouped sums as terms (coeff, (n1, n2, n3), integral).

    A term contributes coeff * x[n1] x[n2] x[n3] * integral, x = |fhat|^2,
    and is listed only when all three frequencies lie in ``support``, where
    x can be nonzero. Each exception's system comes from ``_exceptions``,
    the table the systems read, so eps lands on the writing they assume;
    eps weights are looked up per fired exception and a missing one is a
    hard error.
    """
    system = {d: s for d, (s, _) in _exceptions(spectrum).items()}
    supp = tuple(support)
    present = set(supp)
    b = params.b
    terms: list[BoundTerm] = []

    def add(coeff: float, mono: tuple[int, int, int], moduli: tuple[int, int, int]) -> None:
        # each modulus appears twice, so the sextet's sign is always +
        if present.issuperset(mono):
            terms.append((coeff, mono, i_direct(moduli + moduli, r_max=r_max)))

    # distinct-moduli triples: 15, plus 6/eps when the sum lies in S2 or S3
    for n1 in supp:
        for n2 in supp:
            if abs(n1) == abs(n2):
                continue
            for n3 in supp:
                if abs(n3) == abs(n1) or abs(n3) == abs(n2):
                    continue
                d = n1 + n2 + n3
                coeff = 15.0
                if system.get(d) in ("S2", "S3"):
                    coeff += 6.0 / params.eps_for(d)
                add(coeff, (n1, n2, n3), (n1, n2, n3))

    for n1 in supp:
        if n1 == 0:
            continue
        # quartic cross sums over n2 with a different modulus
        for n2 in supp:
            if abs(n1) == abs(n2):
                continue
            d = 2 * n1 + n2
            s = system.get(d)
            quartic = (n1, n1, n2)
            coeff = 9.0 * (1.0 + (1.0 if n2 != 0 else 0.0))
            if s == "S2":
                coeff += 9.0 * params.eps_for(d)
            add(coeff, quartic, quartic)
            # the second writing's share: 1/eps against a cube; in S4 eps
            # on the zero-paired writing and 1/eps on the other
            if s == "S5":
                add(9.0 / params.eps_for(d), quartic, quartic)
            elif s == "S4":
                add(9.0 * params.eps_for(d) ** (1 if n2 == 0 else -1), quartic, quartic)
            elif s == "trivial":
                add(9.0, quartic, quartic)
            # paired-conjugate cross sum, nonzero opposite modulus only
            if n2 != 0:
                add(9.0, (n1, -n1, n2), quartic)
        # pure sixth powers: 1, plus eps when 3 n1 lies in S3 or S5
        d3 = 3 * n1
        coeff = 1.0
        if system.get(d3) in ("S3", "S5"):
            coeff += params.eps_for(d3)
        add(coeff, (n1, n1, n1), (n1, n1, n1))
        add(9.0, (n1, n1, -n1), (n1, n1, n1))
        # rows against the zero frequency
        add(9.0 * (b + 1.0) / (b - 1.0), (n1, n1, 0), (n1, n1, 0))
        add(9.0 * (b - 3.0) / (b - 1.0), (n1, -n1, 0), (n1, n1, 0))
        add(6.0, (n1, 0, 0), (n1, 0, 0))
    # conjugate-pair square sums, any first modulus
    for n1 in supp:
        for n2 in supp:
            if abs(n1) == abs(n2):
                continue
            coeff = 18.0 - (9.0 if n2 == 0 else 0.0)
            add(coeff, (n1, n2, -n2), (n1, n2, n2))
    # the constant-mode cube
    add(1.0, (0, 0, 0), (0, 0, 0))
    return terms


def compute_S_upper_bound(
    f: CoefficientVector,
    params: CertificateParams,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> SextetSum:
    """The eleven grouped sums dominating S, summed literally on f's support.

    The propagated error adds |coefficient| times each integral's bound.
    A fired exception without an eps weight is a ``CertificateError``.
    """
    x = {n: abs(z) ** 2 for n, z in f.entries}
    total = 0.0
    err = 0.0
    for coeff, (n1, n2, n3), ival in _bound_terms(f.spectrum, params, f.support, r_max):
        monomial = x[n1] * x[n2] * x[n3]
        total += coeff * monomial * ival.value
        err += abs(coeff) * monomial * ival.error_bound
    return SextetSum(value=total, error_bound=err)


# ---------------------------------------------------------------------------
# both sides as forms assembled once per spectrum


@dataclass(frozen=True)
class AssembledForms:
    """The sextic form S and the grouped-bound form over a fixed support.

    Column k of an amplitude array holds fhat(support[k]). Triple t is
    ``triples[t]`` (column indices) with weight ``weights[t]`` = p(R); the
    ordered same-D triple pairs (i, j) are the columns of ``pairs``, with
    I(R_i join R_j) in ``pair_value`` and its error in ``pair_error``.
    The grouped bound is sum over (a, b, c) of T[a, b, c] x_a x_b x_c with
    T = ``bound_value``, and its error the same sum over ``bound_error``.
    """

    support: tuple[int, ...]
    triples: np.ndarray        # (T, 3) column indices
    weights: np.ndarray        # (T,)
    pairs: np.ndarray          # (2, P) triple indices
    pair_value: np.ndarray     # (P,)
    pair_error: np.ndarray     # (P,)
    bound_value: np.ndarray    # (n, n, n)
    bound_error: np.ndarray    # (n, n, n)


def assemble_forms(
    spectrum: SpectrumSet,
    params: CertificateParams,
    support: Sequence[int],
    *,
    r_max: float = DEFAULT_R_MAX,
) -> AssembledForms:
    """Build both forms once over ``support``, a set of spectrum elements.

    Each direct integral is the one the literal sums look up for a vector
    on this support, so the forms add no quadrature. A fired exception
    without an eps weight is a ``CertificateError`` here, at build time.
    """
    supp = tuple(sorted(support))
    col = {n: k for k, n in enumerate(supp)}
    reps: list[Triple] = []
    pairs: list[tuple[int, int]] = []
    values: list[float] = []
    errors: list[float] = []
    for _, group in sorted(triples_by_sum(supp).items()):
        first = len(reps)
        reps.extend(group)
        for i, r1 in enumerate(group, first):
            for j, r2 in enumerate(group, first):
                ival = i_direct(r1 + r2, r_max=r_max)
                pairs.append((i, j))
                values.append(ival.value)
                errors.append(ival.error_bound)

    n = len(supp)
    bound_value = np.zeros((n, n, n))
    bound_error = np.zeros((n, n, n))
    for coeff, mono, ival in _bound_terms(spectrum, params, supp, r_max):
        k = tuple(col[m] for m in mono)
        bound_value[k] += coeff * ival.value
        bound_error[k] += abs(coeff) * ival.error_bound
    triples = [[col[m] for m in r] for r in reps]
    return AssembledForms(
        support=supp,
        triples=np.array(triples, dtype=np.intp).reshape(-1, 3),
        weights=np.array([float(perm_count(r)) for r in reps]),
        pairs=np.array(pairs, dtype=np.intp).reshape(-1, 2).T,
        pair_value=np.array(values),
        pair_error=np.array(errors),
        bound_value=bound_value,
        bound_error=bound_error,
    )


def evaluate_forms(
    forms: AssembledForms, vectors: Sequence[CoefficientVector]
) -> list[tuple[SextetSum, SextetSum]]:
    """S and the grouped bound of each vector, as ``compute_S_exact`` and
    ``compute_S_upper_bound`` give them up to summation order.

    Every vector must lie on the forms' support. ``FORM_BLOCK`` vectors
    go through numpy at a time, which bounds the temporaries.
    """
    col = {n: k for k, n in enumerate(forms.support)}
    n = len(forms.support)
    t1, t2, t3 = forms.triples.T
    i, j = forms.pairs
    out: list[tuple[SextetSum, SextetSum]] = []
    for lo in range(0, len(vectors), FORM_BLOCK):
        block = vectors[lo:lo + FORM_BLOCK]
        amp = np.zeros((len(block), n), dtype=complex)
        for row, f in enumerate(block):
            for m, z in f.entries:
                amp[row, col[m]] = z
        w = forms.weights * amp[:, t1] * amp[:, t2] * amp[:, t3]
        # in place: at most two (vectors x pairs) arrays are alive at once
        prod = w[:, j]
        np.conjugate(prod, out=prod)
        prod *= w[:, i]
        s = np.einsum("vp,p->v", prod, forms.pair_value)
        del prod
        aw = np.abs(w)
        prod_abs = aw[:, i]
        prod_abs *= aw[:, j]
        s_err = np.einsum("vp,p->v", prod_abs, forms.pair_error)
        x = np.abs(amp) ** 2
        ub = np.einsum("va,vb,vc,abc->v", x, x, x, forms.bound_value)
        ub_err = np.einsum("va,vb,vc,abc->v", x, x, x, forms.bound_error)
        for total, se, u, ue in zip(*(c.tolist() for c in (s, s_err, ub, ub_err))):
            _check_real(total)
            out.append((SextetSum(total.real, se), SextetSum(u, ue)))
    return out


# ---------------------------------------------------------------------------
# lower bounds for F


def f_lower(m1: int, m2: int, m3: int, r_max: float = DEFAULT_R_MAX) -> float:
    """A lower bound for F on these moduli; signs and order do not matter.

    The larger of the recorded floor of the triple's shape and, up to the
    direct route's order cap, the proven I(0,...,0).lo / I(n,n,m,m,k,k).hi.
    The pair and distinct floors are recorded for 3-separated moduli only;
    elsewhere the floor is 0, as F > 0.
    """
    n, m, k = sorted((abs(m1), abs(m2), abs(m3)), reverse=True)
    if n == 0:
        floor = 1.0
    elif m == 0:                         # (n, 0, 0)
        floor = F_FLOOR_SINGLE
    elif n == m == k:
        floor = F_FLOOR_TRIPLE
    elif n == m and k == 0:
        floor = F_FLOOR_PAIR0_HIGH if n >= 3 else F_FLOOR_PAIR0
    else:                                # a pair (p, p, q) or a distinct triple
        mods = sorted({n, m, k} - {0})
        if not all(hi > 3 * lo for lo, hi in zip(mods, mods[1:])):
            floor = 0.0
        elif n == m or m == k:
            floor = F_FLOOR_PAIR_MEMBER
        else:
            floor = F_FLOOR_DISTINCT_MEMBER
    if n > MAX_SEXTET_ORDER:
        return floor
    # the denominator's integrand is nonnegative, so den.hi > 0 even where
    # den.lo is not; the denominator comes first, as in f_ratio
    den = i_direct((n, n, m, m, k, k), r_max=r_max)
    num = i_direct((0,) * 6, r_max=r_max)
    return max(floor, num.lo / den.hi)


# ---------------------------------------------------------------------------
# inequality systems


@dataclass(frozen=True)
class SystemInstance:
    """One checked inequality instance, with its eps window if any.

    Global rows and eps-free exception rows report the window (0, inf)
    and carry the inequality slack in ``margin``; eps rows report the
    window endpoints and its width.
    """

    system_id: str
    point: int | None
    description: str
    eps_lo: float
    eps_hi: float
    feasible: bool
    margin: float


@dataclass(frozen=True)
class SystemReport:
    system_id: str
    instances: tuple[SystemInstance, ...]
    passed: bool
    tightest_margin: float


def _free_instance(system_id: str, point: int | None, desc: str, slack: float) -> SystemInstance:
    return SystemInstance(
        system_id=system_id,
        point=point,
        description=desc,
        eps_lo=0.0,
        eps_hi=math.inf,
        feasible=slack >= 0.0,
        margin=slack,
    )


def _eps_instance(
    system_id: str, point: int, desc: str, eps_lo: float, eps_hi: float
) -> SystemInstance:
    return SystemInstance(
        system_id=system_id,
        point=point,
        description=desc,
        eps_lo=eps_lo,
        eps_hi=eps_hi,
        feasible=eps_lo <= eps_hi,
        margin=eps_hi - eps_lo,
    )


def _global_rows(spectrum: SpectrumSet, b: float, r_max: float) -> list[SystemInstance]:
    rows: list[SystemInstance] = []
    pos = [v for v in spectrum.lambdas if v > 0]
    quartic = 9.0 * (b + 1.0) / (b - 1.0)
    cross = 9.0 * (b - 3.0) / (b - 1.0)
    for mu in pos:
        lo = 3.0 * f_lower(mu, mu, mu, r_max)
        rows.append(_free_instance("trivial", None, f"9 <= 3F({mu},{mu},{mu})", lo - 9.0))
        lo = 3.0 * f_lower(mu, 0, 0, r_max)
        rows.append(_free_instance("trivial", None, f"15 <= 3F({mu},0,0)", lo - 15.0))
        lo = 3.0 * f_lower(mu, mu, 0, r_max)
        rows.append(
            _free_instance(
                "trivial", None, f"9(b-3)/(b-1) + 18 <= 3F({mu},{mu},0)", lo - (cross + 18.0)
            )
        )
        rows.append(
            _free_instance(
                "trivial", None, f"9(b+1)/(b-1) + 9 <= 3F({mu},{mu},0)", lo - (quartic + 9.0)
            )
        )
    for m1 in pos:
        for m2 in pos:
            if m1 == m2:
                continue
            lo = 3.0 * f_lower(m1, m1, m2, r_max)
            rows.append(
                _free_instance("trivial", None, f"27 <= 3F({m1},{m1},{m2})", lo - 27.0)
            )
    # make_spectrum keeps the lambdas strictly increasing
    for n3, n2, n1 in itertools.combinations(spectrum.lambdas, 3):
        lo = f_lower(n1, n2, n3, r_max)
        rows.append(_free_instance("trivial", None, f"15 <= F({n1},{n2},{n3})", lo - 15.0))
    return rows


def _dispatch_exception(
    system: str, point: ClassifiedPoint, b: float, r_max: float
) -> list[SystemInstance]:
    """The rows of one exception point under its system from ``_exceptions``."""
    d = point.point
    shapes = sorted((_shape(r) for r in point.reps), key=lambda s: s[0])
    quartic = 9.0 * (b + 1.0) / (b - 1.0)

    def dist_eps_lo(entries: tuple[int, int, int]) -> tuple[float, str]:
        f_lo = f_lower(*entries, r_max)
        lo = 6.0 / (f_lo - 15.0) if f_lo > 15.0 else math.inf
        mods = tuple(sorted((abs(v) for v in entries), reverse=True))
        return lo, f"15 + 6/eps <= F{mods} [F_lo={f_lo:.4f}]"

    def pair_eps_lo(p: int, q: int) -> tuple[float, str]:
        f_lo = f_lower(p, p, q, r_max)
        lo = 9.0 / (3.0 * f_lo - 18.0) if 3.0 * f_lo > 18.0 else math.inf
        return lo, f"9(2 + 1/eps) <= 3F({abs(p)},{abs(p)},{abs(q)}) [F_lo={f_lo:.4f}]"

    if system == "S2":
        # one repeat-free writing against a squared one
        entries = shapes[0][1]
        _, m1, m2 = shapes[1]
        lo, lo_desc = dist_eps_lo(entries)
        f2 = f_lower(m1, m1, m2, r_max)
        base = (quartic if m2 == 0 else 0.0) + 9.0 * (1.0 + (1.0 if m2 != 0 else 0.0))
        hi = (3.0 * f2 - base) / 9.0
        desc = (
            f"{lo_desc}; 9(..) + 9 eps <= 3F({abs(m1)},{abs(m1)},{abs(m2)}) "
            f"[F_lo={f2:.4f}]"
        )
        return [_eps_instance("S2", d, desc, lo, hi)]
    if system in ("S3", "S5"):
        # a repeat-free (S3) or squared (S5) writing against the cube 3 m1
        other, (_, m1) = shapes
        lo, lo_desc = dist_eps_lo(other[1]) if system == "S3" else pair_eps_lo(*other[1:])
        f2 = f_lower(m1, m1, m1, r_max)
        hi = f2 - 1.0
        desc = f"{lo_desc}; 1 + eps <= F({abs(m1)},{abs(m1)},{abs(m1)}) [F_lo={f2:.4f}]"
        return [_eps_instance(system, d, desc, lo, hi)]
    if system == "S4":
        [(_, n1, _)] = [s for s in shapes if s[2] == 0]
        [(_, m1, m2)] = [s for s in shapes if s[2] != 0]
        f1 = f_lower(n1, n1, 0, r_max)
        hi = (3.0 * f1 - quartic - 9.0) / 9.0
        lo, lo_desc = pair_eps_lo(m1, m2)
        desc = (
            f"9(b+1)/(b-1) + 9(1+eps) <= 3F({abs(n1)},{abs(n1)},0) "
            f"[F_lo={f1:.4f}]; {lo_desc}"
        )
        return [_eps_instance("S4", d, desc, lo, hi)]
    # no eps fires: each squared writing must clear the flat row
    out = []
    for _, p, q in shapes:
        f_lo = f_lower(p, p, q, r_max)
        out.append(
            _free_instance(
                "trivial",
                d,
                f"27 <= 3F({abs(p)},{abs(p)},{abs(q)}) [F_lo={f_lo:.4f}]",
                3.0 * f_lo - 27.0,
            )
        )
    return out


def check_systems(
    A: SpectrumSet,
    b: float = DEFAULT_B,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> list[SystemReport]:
    """Check the global rows once and one system per exception point.

    Each exception's system comes from ``_exceptions``, the table the
    grouped bound reads, so both assume the same eps split; a shape pair
    outside the known families is a hard error. Feasibility of an eps
    window uses interval lower bounds for every F, so a reported window
    survives quadrature error.
    """
    if not b > 1:
        raise RangeError(f"weight b must exceed 1, got {b}")
    instances: dict[str, list[SystemInstance]] = {system_id: [] for system_id in SYSTEMS}
    instances["trivial"].extend(_global_rows(A, b, r_max))
    for system, point in _exceptions(A).values():
        instances[system].extend(_dispatch_exception(system, point, b, r_max))
    reports = []
    for system_id in SYSTEMS:
        rows = tuple(instances[system_id])
        passed = all(r.feasible for r in rows)
        tightest = min((r.margin for r in rows), default=math.inf)
        reports.append(SystemReport(system_id, rows, passed, tightest))
    return reports


def derive_params(
    A: SpectrumSet,
    b: float = DEFAULT_B,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> tuple[CertificateParams, tuple[SystemReport, ...]]:
    """Solve the systems and take each eps at its window midpoint."""
    reports = check_systems(A, b, r_max=r_max)
    return params_from_reports(b, reports), tuple(reports)


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


# ---------------------------------------------------------------------------
# final comparison


@dataclass(frozen=True)
class TheoremVerdict:
    """Three-valued outcome of S <= I(0,0,0) * mass^3."""

    verdict: str            # "holds" | "fails" | "indeterminate"
    margin: float           # I(0,0,0) mass^3 - S
    error_budget: float
    equality_case: bool     # within budget of equality with support in {0}


def verdict_of(
    s: SextetSum,
    f: CoefficientVector,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> TheoremVerdict:
    """Compare S of ``f`` against the constant-mode ceiling I(0,0,0) mass^3.

    Both sides use the same I(0,0,0) evaluation, so a vector supported
    on {0} lands within roundoff of equality and is reported as the
    equality case rather than an indeterminate verdict.
    """
    i000 = i_direct((0,) * 6, r_max=r_max)
    mass3 = f.mass() ** 3
    budget = s.error_bound + i000.error_bound * mass3
    margin = i000.value * mass3 - s.value
    on_zero = all(n == 0 for n in f.support)
    if margin > budget:
        verdict = "holds"
    elif margin < -budget:
        verdict = "fails"
    else:
        verdict = "indeterminate"
    return TheoremVerdict(
        verdict=verdict,
        margin=margin,
        error_budget=budget,
        equality_case=(verdict != "fails" and abs(margin) <= budget and on_zero),
    )


def verify_theorem(
    f: CoefficientVector,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> TheoremVerdict:
    """The verdict of the literal sextic sum of ``f``."""
    return verdict_of(compute_S_exact(f, r_max=r_max), f, r_max=r_max)


# ---------------------------------------------------------------------------
# randomized trial vectors


@functools.lru_cache(maxsize=64)
def exception_frequencies(spectrum: SpectrumSet) -> tuple[int, ...]:
    """Elements participating in some exception writing, sorted."""
    out: set[int] = set()
    for _, point in _exceptions(spectrum).values():
        for rep in point.reps:
            out.update(rep)
    return tuple(sorted(out))


def random_vector(
    spectrum: SpectrumSet,
    rng,
    *,
    size: int | None = None,
    adversarial: bool = False,
) -> CoefficientVector:
    """Complex Gaussian amplitudes on a random support subset.

    Adversarial draws prefer frequencies that participate in exception
    writings, where the grouped bound is tightest.
    """
    elements = sorted(spectrum.elements)
    if size is None:
        size = min(len(elements), 9)
    size = check_int(size, "support size", 1, min(len(elements), MAX_SUPPORT))
    if adversarial:
        preferred = list(exception_frequencies(spectrum))  # a subset of the elements
        hot = set(preferred)
        rest = [n for n in elements if n not in hot]
        support = preferred[:size] if len(preferred) >= size else (
            preferred + rng.sample(rest, size - len(preferred))
        )
    else:
        support = rng.sample(elements, size)
    values = {n: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for n in support}
    return CoefficientVector.from_dict(spectrum, values)
