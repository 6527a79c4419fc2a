"""Certificate layer: exact sextic sums, grouped upper bound, systems.

The object under test is the sextic interaction sum

    S = sum over D of sum over triple pairs (R1, R2) with sum D of
        p(R1) p(R2) fhat(R1) conj(fhat(R2)) I(R1 join R2),

where p counts permutations of a triple and I is the six-fold Bessel
product integral. ``compute_S_exact`` evaluates S literally on a finite
support. The eleven grouped sums that dominate S, after every cross term
has been split by Cauchy-Schwarz, a weighted AM-GM with one free weight
b, and one free weight eps_D per exception point, are one cubic form in
x = |fhat|^2, built as one (n, n, n) tensor; ``compute_S_upper_bound``
evaluates it on one vector's support. ``check_systems`` certifies, per
exception writing, that the grouped coefficients stay below the
interaction margin 3F, which is what makes the grouped bound at most
I(0,0,0) times the cubed mass. One table, ``_SYSTEM_OF_KINDS``, gives
each exception point its system and tells both the bound and the
systems which writing carries eps_D and which 1/eps_D. Every row,
global or exception, is an F-free template that names F's arguments;
``check_systems`` reads each distinct F triple once into one table and
decides every row against it in one loop.
``verdict_of`` compares both ends with a three-valued verdict, and
``verify_theorem`` applies it to the literal S of one vector.

S is also a fixed Hermitian form in the amplitudes, sum over D of
v_D^H M_D v_D with v_D[R] = p(R) times the product of fhat over R.
``assemble_forms`` builds it and the bound's tensor once, and
``evaluate_forms`` checks many vectors with numpy, a fixed block at a
time. Every sum is an ``IntegralValue``, so an error bound that
underflowed to zero is refused. The literal S is the forms' oracle.

One function, ``integrals.f_lower``, gives every lower bound for the
ratio F the systems read, and ``check_systems`` is its one caller here:
the larger of the floor of the triple's shape and the proven ``lo`` of
``integrals.f_ratio``, the program's one F interval. The floors live in
one table beside ``f_ratio``, whose comments name the finite window on
which each is checked; beyond it a floor is trusted as an assumption,
and the member floors apply to 3-separated moduli only, as in a
lacunary spectrum. This module re-exports ``f_lower`` and the floors it
reads. Every verdict consumes interval endpoints, so "holds" survives
worst-case quadrature error.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CertificateError, RangeError, StructureViolation, check_int
from .integrals import (
    DEFAULT_R_MAX,
    F_FLOOR_DISTINCT_MEMBER,
    F_FLOOR_PAIR0,
    F_FLOOR_PAIR0_HIGH,
    F_FLOOR_PAIR_MEMBER,
    F_FLOOR_SINGLE,
    F_FLOOR_TRIPLE,
    IntegralValue,
    f_lower,
    fill_grid_rows,
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
# exact sextic sum


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
) -> IntegralValue:
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
    return IntegralValue(total.real, err)


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


def _bound_tensor(
    spectrum: SpectrumSet,
    params: CertificateParams,
    support: Sequence[int],
    r_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The eleven grouped sums as one cubic form T over ``support``, with its error.

    Index k stands for ``support[k]``. A term adds coeff * integral to
    T[k1, k2, k3] and |coeff| times its error bound to the error tensor,
    so the bound is sum T[a, b, c] x_a x_b x_c with x = |fhat|^2. An
    exception writing adds its share coeff * eps^power, its power read
    from ``_exceptions`` as the systems read it, so eps lands on the
    writing they assume; eps weights are looked up per fired exception and
    a missing one is a hard error.
    """
    powers = {d: p for d, (_, p, _) in _exceptions(spectrum).items()}
    supp = tuple(support)
    col = {n: k for k, n in enumerate(supp)}
    present = set(supp)
    b = params.b
    value = np.zeros((len(supp),) * 3)
    error = np.zeros((len(supp),) * 3)

    def add(coeff: float, mono: tuple[int, int, int], moduli: tuple[int, int, int]) -> None:
        # added only where x can be nonzero; each modulus appears twice,
        # so the sextet's sign is always +
        if present.issuperset(mono):
            ival = i_direct(moduli + moduli, r_max=r_max)
            k = tuple(col[m] for m in mono)
            value[k] += coeff * ival.value
            error[k] += abs(coeff) * ival.error_bound

    def split(d: int, kind: str) -> tuple[float, float]:
        # a writing's flat coefficient and its eps share, 0 off the exceptions
        _, flat, coeff, _ = _WRITING[kind]
        power = powers.get(d, {}).get(kind)
        if power is None:
            return flat, 0.0
        eps = params.eps_for(d) if power else 1.0
        return flat, coeff / eps if power < 0 else coeff * eps

    # distinct-moduli triples: the flat and the eps share in one coefficient
    for n1 in supp:
        for n2 in supp:
            if abs(n1) == abs(n2):
                continue
            for n3 in supp:
                if abs(n3) == abs(n1) or abs(n3) == abs(n2):
                    continue
                add(sum(split(n1 + n2 + n3, "distinct")), (n1, n2, n3), (n1, n2, n3))

    for n1 in supp:
        if n1 == 0:
            continue
        # quartic cross sums over n2 with a different modulus: the flat,
        # then the eps share as a term of its own
        for n2 in supp:
            if abs(n1) == abs(n2):
                continue
            quartic = (n1, n1, n2)
            flat, share = split(2 * n1 + n2, "pair" if n2 else "zero pair")
            add(flat, quartic, quartic)
            if share:
                add(share, quartic, quartic)
            # paired-conjugate cross sum, nonzero opposite modulus only
            if n2 != 0:
                add(9.0, (n1, -n1, n2), quartic)
        # pure sixth powers
        add(sum(split(3 * n1, "cube")), (n1, n1, n1), (n1, n1, n1))
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
    return value, error


def compute_S_upper_bound(
    f: CoefficientVector,
    params: CertificateParams,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> IntegralValue:
    """The grouped bound of f: the tensor of ``_bound_tensor`` on f's support.

    A fired exception without an eps weight is a ``CertificateError``.
    """
    x = np.array([abs(z) ** 2 for _, z in f.entries])
    tensors = _bound_tensor(f.spectrum, params, f.support, r_max)
    return IntegralValue(*(float(np.einsum("a,b,c,abc->", x, x, x, t)) for t in tensors))


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

    bound_value, bound_error = _bound_tensor(spectrum, params, supp, r_max)
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
) -> list[tuple[IntegralValue, IntegralValue]]:
    """S and the grouped bound of each vector, as ``compute_S_exact`` and
    ``compute_S_upper_bound`` give them up to summation order.

    Every vector must lie on the forms' support. ``FORM_BLOCK`` vectors
    go through numpy at a time, which bounds the temporaries.
    """
    col = {n: k for k, n in enumerate(forms.support)}
    n = len(forms.support)
    t1, t2, t3 = forms.triples.T
    i, j = forms.pairs
    out: list[tuple[IntegralValue, IntegralValue]] = []
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
            out.append((IntegralValue(total.real, se), IntegralValue(u, ue)))
    return out


# ---------------------------------------------------------------------------
# inequality systems


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


def check_systems(
    A: SpectrumSet,
    b: float = DEFAULT_B,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> list[SystemReport]:
    """Check the global rows once and one system per exception point.

    Every row is a template of ``_rows``; ``f_lower`` reads each distinct
    sorted F triple they name once, in first-use order, into one table,
    and one loop decides every row against it. With room = mult * F less
    the rhs terms in order, power 0 gives the margin row room; power -1
    bounds the point's eps below by coeff / room (inf where room <= 0)
    and +1 bounds it above by room / coeff, and the window's row names
    the lower end's writing first. An exception row also shows its F
    lower end. The powers are the ones the grouped bound reads, so both
    assume the same eps split. Every row reads interval lower bounds for
    F, so a reported window survives quadrature error. The direct
    route's grid rows of every modulus come from one Bessel pass before
    the first F.
    """
    if not b > 1:
        raise RangeError(f"weight b must exceed 1, got {b}")
    fill_grid_rows((0, *A.elements), r_max)
    rows = list(_rows(A, b))
    keys = dict.fromkeys(tuple(sorted(row[4])) for row in rows)
    f_table = {key: f_lower(*key, r_max) for key in keys}
    instances: dict[str, list[SystemInstance]] = {system_id: [] for system_id in SYSTEMS}
    ends: dict[int, dict[int, tuple[float, str]]] = {}
    for system, d, text, mult, moduli, rhs, coeff, power in rows:
        f_lo = f_table[tuple(sorted(moduli))]
        if d is not None:
            text = f"{text} [F_lo={f_lo:.4f}]"
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
    equality_case: bool     # indeterminate, with support in {0}


def verdict_of(
    s: IntegralValue,
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
    if margin > budget:
        verdict = "holds"
    elif margin < -budget:
        verdict = "fails"
    else:
        verdict = "indeterminate"
    on_zero = all(n == 0 for n in f.support)
    return TheoremVerdict(verdict, margin, budget, verdict == "indeterminate" and on_zero)


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
    for *_, point in _exceptions(spectrum).values():
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
