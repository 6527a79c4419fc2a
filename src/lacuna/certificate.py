"""Certificate layer: exact sextic sums, grouped upper bound, systems.

The object under test is the sextic interaction sum

    S = sum over D of sum over triple pairs (R1, R2) with sum D of
        p(R1) p(R2) fhat(R1) conj(fhat(R2)) I(R1 join R2),

where p counts permutations of a triple and I is the six-fold Bessel
product integral. ``compute_S_exact`` evaluates S literally on a finite
support. The eleven grouped sums that dominate S, after every cross term
has been split by Cauchy-Schwarz, a weighted AM-GM with one free weight
b, and one free weight eps_D per exception point, are one cubic form in
x = |fhat|^2: ``lacuna.systems`` gives its terms free of integrals, and
``_bound_tensor`` builds it as one (n, n, n) tensor from one table of
diagonal integrals. ``check_systems`` reads F for the systems of
``lacuna.systems``, which make the grouped bound at most I(0,0,0) times
the cubed mass, and decides them there. ``verdict_of`` compares both
ends with a three-valued verdict, and ``verify_theorem`` applies it to
the literal S of one vector.

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
lacunary spectrum. Every verdict consumes interval endpoints, so
"holds" survives worst-case quadrature error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import CertificateError, RangeError, check_int
from .integrals import (
    DEFAULT_R_MAX, F_FLOOR_PAIR0, IntegralValue, f_lower, fill_grid_rows, i_direct,
)
from .spectrum import SpectrumSet, Triple, perm_count, triples_by_sum
from .systems import (
    DEFAULT_B, CertificateParams, SystemReport, _bound_terms, _rows, check_weight, decide,
    exception_frequencies, params_from_reports,
)

MAX_SUPPORT = 11        # cap of the literal compute_S_exact: O(support^6) grouped by D
IMAG_REL_TOL = 1.0e-9   # conjugate symmetry makes S real; larger is a bug
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
# basic inequality and the window for its weight b


def check_basic_inequality(r: float, s: float, b: float) -> bool:
    """r^3 s <= b/(2b-2) r^4 + 1/(2b-2) s^4 + (b-3)/(2b-2) r^2 s^2.

    Evaluated exactly in integers (floats are dyadic), so the verdict is
    immune to cancellation near the r = s equality line: with
    r : s = x : y and b = p/q, both sides times 2(b - 1) > 0 and q are
    homogeneous of degree 4 in (x, y).
    """
    check_weight(b)
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
# the grouped upper bound


def _bound_tensor(
    spectrum: SpectrumSet,
    params: CertificateParams,
    support: Sequence[int],
    r_max: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The eleven grouped sums as one cubic form T over ``support``, with its error.

    Index k stands for ``support[k]``. Each term of ``systems._bound_terms``
    adds coeff * I to T[k1, k2, k3] and |coeff| times I's error bound to
    the error tensor, I the diagonal integral at its moduli, read once per
    distinct sorted triple. The bound is sum T[a, b, c] x_a x_b x_c.
    """
    supp = tuple(support)
    col = {n: k for k, n in enumerate(supp)}
    terms = [
        (coeff, tuple(col[n] for n in mono), tuple(sorted(map(abs, mono))))
        for coeff, mono in _bound_terms(spectrum, params, supp)
    ]
    keys = dict.fromkeys(key for *_, key in terms)
    table = {key: i_direct(key + key, r_max=r_max) for key in keys}
    value = np.zeros((len(supp),) * 3)
    error = np.zeros((len(supp),) * 3)
    for coeff, k, key in terms:
        value[k] += coeff * table[key].value
        error[k] += abs(coeff) * table[key].error_bound
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
# the systems, decided on F's lower ends


def check_systems(
    A: SpectrumSet,
    b: float = DEFAULT_B,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> list[SystemReport]:
    """Check the global rows once and one system per exception point.

    The direct route's grid rows of every modulus come from one Bessel
    pass; ``f_lower`` then reads each distinct sorted F triple the
    templates of ``systems._rows`` name once, in first-use order, and
    ``systems.decide`` checks every row against that table. The powers
    of eps are the ones the grouped bound reads, so both assume the same
    eps split, and every row reads interval lower bounds for F, so a
    reported window survives quadrature error.
    """
    check_weight(b)
    fill_grid_rows((0, *A.elements), r_max)
    rows = list(_rows(A, b))
    keys = dict.fromkeys(tuple(sorted(row[4])) for row in rows)
    return decide(rows, {key: f_lower(*key, r_max) for key in keys})


def derive_params(
    A: SpectrumSet,
    b: float = DEFAULT_B,
    *,
    r_max: float = DEFAULT_R_MAX,
) -> tuple[CertificateParams, tuple[SystemReport, ...]]:
    """Solve the systems and take each eps at its window midpoint."""
    reports = check_systems(A, b, r_max=r_max)
    return params_from_reports(b, reports), tuple(reports)


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
