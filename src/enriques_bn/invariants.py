"""Gonality-type invariants of polarizations on an unnodal Enriques surface.

phi(L) is the minimal degree L.E over effective isotropic classes E; mu(L)
is the minimal L.B - 2 over effective B with B^2 = 4, phi(B) = 2, B not
numerically equivalent to L.  The generic gonality of smooth curves in |L|
is

    k = min{ 2 phi(L), mu(L), floor(L^2/4) + 2 },

where the floor term wins exactly for the six squares/phi pairs in
EXCEPTIONAL_SQUARE_PHI_PAIRS (and then equals 2 phi - 1), and mu wins
exactly when L^2 = phi^2 (phi even) or L^2 = phi^2 + phi - 2.  The generic
Clifford index is k - 2.

All searches run through the complement projection, so every reported
minimum is certified: phi candidates satisfy phi <= sqrt(L^2), and a mu
search capped at L.B <= 2 phi + 2 decides the gonality minimum even when it
reports "not found".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CertificateError,
    GenusTooSmallError,
    NotAmpleEnoughError,
    NotAmpleError,
    SearchExhaustedError,
)
from .lattice import (
    CONFIG_I,
    CONFIG_II,
    CONFIG_III,
    DivisorClass,
    NumClass,
    content,
    solve_integer_linear,
)
from .positivity import classify_positivity, reference_ample
from .shortvec import complement_lift

#: (L^2, phi) pairs where the gonality drops to floor(L^2/4) + 2 = 2 phi - 1.
EXCEPTIONAL_SQUARE_PHI_PAIRS = frozenset(
    {(30, 5), (22, 4), (20, 4), (14, 3), (12, 3), (6, 2)}
)

CASE_GENERIC = "generic-2phi"
CASE_MU_SQUARE = "mu-case-square"
CASE_MU_SQUARE_PLUS = "mu-case-square-plus"
CASE_FLOOR_EXCEPTIONAL = "floor-exceptional"
CASE_FLOOR_PLAIN = "floor-plain"

MU_EXACT = "exact"
MU_NOT_FOUND = "not-found-below-cap"

#: Budgets of ``decompose_isotropic``: candidate pool size and search nodes.
DECOMPOSE_MAX_CANDIDATES = 512
DECOMPOSE_MAX_NODES = 200_000


@dataclass(frozen=True)
class PhiResult:
    value: int
    witness: DivisorClass


@dataclass(frozen=True)
class MuResult:
    status: str
    cap: int
    value: int | None = None
    witness: DivisorClass | None = None

    @property
    def exact(self) -> bool:
        return self.status == MU_EXACT


@dataclass(frozen=True)
class GonalityReport:
    k: int
    phi: PhiResult
    mu: MuResult
    floor_term: int
    case_label: str
    genus: int
    notes: tuple[str, ...] = ()

    def clifford(self) -> int:
        """Generic Clifford index: k - 2 for genus >= 4.

        Genus 2 and 3 are governed by the small-genus conventions (0 for
        hyperelliptic, 1 for non-hyperelliptic genus 3); those numerically
        still equal k - 2, and are raised as GenusTooSmallError carrying the
        value.
        """
        value = self.k - 2
        if self.genus >= 4:
            return value
        if self.k == 2:
            reason = "hyperelliptic convention: Cliff = 0"
        else:
            reason = "non-hyperelliptic genus-3 convention: Cliff = 1"
        raise GenusTooSmallError(self.genus, value, reason)


@dataclass(frozen=True)
class IsotropicDecomposition:
    generators: tuple[DivisorClass, ...]
    coefficients: tuple[int, ...]
    configuration: str


def _require_effective_positive(L: DivisorClass, op: str) -> None:
    st = classify_positivity(L)
    if not (st.is_effective and L.square > 0):
        raise NotAmpleEnoughError(
            f"{op} needs an effective class of positive square; got "
            f"square {L.square}, status {st.witness}"
        )


def phi(L: DivisorClass) -> PhiResult:
    """Exact minimum of L.E over primitive isotropic effective classes E.

    Complete by the bound phi(L) <= sqrt(L^2): for t = 1.. isqrt(L^2), the
    isotropic classes with x.L = t have complement norm exactly t^2/L^2, a
    finite ellipsoid search.  The witness is the lexicographically least
    primitive hit at the smallest t.
    """
    _require_effective_positive(L, "phi")
    lift = complement_lift(L.num)
    a0 = reference_ample(L.num.form)
    for t in range(1, math.isqrt(L.square) + 1):
        # at the first t with hits every hit is primitive: x = cP with
        # c >= 2 would put the isotropic P at the earlier degree t / c
        hits = lift.fiber(t, 0)
        if hits:
            # effectivity is automatic: x.L > 0 puts x in the cone of L
            bad = next((x for x in hits if x.dot(a0.num) <= 0), None)
            if bad is not None:
                raise CertificateError(
                    f"isotropic class {bad.coords} with x.L = {t} > 0 pairs "
                    f"to {bad.dot(a0.num)} with the reference ample class"
                )
            return PhiResult(t, DivisorClass(hits[0], 0))
    raise SearchExhaustedError(
        f"no isotropic class with L.E <= isqrt(L^2) = {math.isqrt(L.square)}; "
        "input is outside the modeled cone"
    )


def mu(L: DivisorClass, cap: int | None = None) -> MuResult:
    """Exact minimum of L.B - 2 over effective B, B^2 = 4, phi(B) = 2, B != L.

    The search considers all B with L.B <= cap (default 2 phi(L) + 2, which
    suffices to decide the gonality minimum) and reports "not found below
    cap" otherwise; that report certifies mu(L) > cap - 2.

    Each degree's candidates come from ``ComplementLift.first``, which
    walks the fiber in lexicographic order and stops at the first
    admissible class, so no fiber of B^2 = 4 is built in full.

    The phi(B) = 2 test never rebuilds lattice machinery per candidate:
    phi(B) = 1 would need an isotropic E with E.B = 1, and the Gram
    determinant of <B, E, L> (which is >= 0 in signature (1,9)) forces
    E.L <= (B.L + sqrt((B.L)^2 - 4 L^2)) / 4, so at degree t = B.L one
    pool of isotropic classes with E.L below that bound decides the test
    for every candidate.  The bound grows with t, so the pool is extended
    degree by degree and never holds a class the current degree does not
    need.  Degrees with t^2 < 4 L^2 are skipped: by the Hodge index
    theorem (B.L)^2 >= B^2 L^2 = 4 L^2, so no candidate lies there.
    """
    _require_effective_positive(L, "mu")
    if cap is None:
        cap = 2 * phi(L).value + 2
    lift = complement_lift(L.num)
    num_L = L.num
    l_sq = L.square
    iso_pool: list[NumClass] = []
    pool_degree = 0  # iso_pool holds every isotropic E with E.L <= this

    def admissible(x: NumClass) -> bool:
        # the definition excludes B numerically equal to L, and phi(x) = 1
        # fails it; B^2 = 4 admits no larger phi than 2
        return x != num_L and all(e.dot(x) != 1 for e in iso_pool)

    for t in range(1, cap + 1):
        disc = t * t - 4 * l_sq
        if disc < 0:
            continue
        for s in range(pool_degree + 1, (t + math.isqrt(disc)) // 4 + 1):
            iso_pool.extend(lift.fiber(s, 0))
            pool_degree = s
        # fibers come in lexicographic order, so the first admissible
        # candidate at the minimal degree is the canonical witness
        x = lift.first(t, 4, admissible)
        if x is not None:
            return MuResult(MU_EXACT, cap, t - 2, DivisorClass(x, 0))
    return MuResult(MU_NOT_FOUND, cap)


def _is_twice_d10(L: DivisorClass) -> bool:
    """Whether L = 2D numerically with D^2 = 10 and phi(D) = 3."""
    if any(c % 2 for c in L.num.coords):
        return False
    half = NumClass(tuple(c // 2 for c in L.num.coords), L.num.form)
    if half.square != 10:
        return False
    return phi(DivisorClass(half, 0)).value == 3


def gonality(L: DivisorClass) -> GonalityReport:
    """Generic gonality of smooth curves in |L|, with its achieving case."""
    st = classify_positivity(L)
    if not st.is_ample or L.square < 2:
        raise NotAmpleError(
            f"gonality needs an ample class with L^2 >= 2; got square {L.square}"
        )
    p = phi(L)
    m = mu(L, 2 * p.value + 2)  # mu's default cap, without a second phi
    floor_term = L.square // 4 + 2
    genus = L.square // 2 + 1
    terms = [2 * p.value, floor_term]
    if m.exact:
        terms.append(m.value)
    k = min(terms)

    notes: list[str] = []
    pair_key = (L.square, p.value)
    label = None
    if pair_key in EXCEPTIONAL_SQUARE_PHI_PAIRS:
        label = CASE_FLOOR_EXCEPTIONAL
        if not k == floor_term == 2 * p.value - 1:
            raise CertificateError(
                f"exceptional pair {pair_key} needs k = floor(L^2/4) + 2 = "
                f"2 phi - 1, got k = {k}, floor term {floor_term}"
            )
    elif k == 2 * p.value:
        label = CASE_GENERIC
    elif m.exact and m.value == k:
        # mu achieves the minimum (possibly tying the floor term); the two
        # mu shapes require the classified value of k to match as well
        if (
            L.square == p.value**2
            and p.value % 2 == 0
            and k == 2 * p.value - 2
        ):
            label = CASE_MU_SQUARE
        elif (
            L.square == p.value**2 + p.value - 2
            and p.value >= 3
            and k == (2 * p.value - 1 if p.value >= 5 else 2 * p.value - 2)
            and not _is_twice_d10(L)
        ):
            label = CASE_MU_SQUARE_PLUS
            notes.append(
                "square-plus case: L = 2D exclusion checked numerically "
                "(torsion ignored)"
            )
    if label is None:
        if k == floor_term:
            # the floor term achieves the minimum at a pair outside the
            # exceptional list.  This covers the boundary shapes where the
            # classified mu value is impossible: at (4, 2) the would-be
            # minimizer is numerically L itself (excluded by definition),
            # and for L^2 = phi^2 + phi - 2 with phi in {3, 4} the Hodge
            # bound (L.B)^2 >= 4 L^2 already forces mu > 2 phi - 2.
            label = CASE_FLOOR_PLAIN
        else:
            raise CertificateError(
                f"mu wins at (L^2, phi) = {pair_key}, outside the known "
                "classification; this indicates a search bug"
            )
    return GonalityReport(k, p, m, floor_term, label, genus, tuple(notes))


def clifford_generic(L: DivisorClass) -> int:
    """Generic Clifford index of smooth curves in |L|; see
    ``GonalityReport.clifford``."""
    return gonality(L).clifford()


# ---------------------------------------------------------------------------
# Isotropic decompositions.
# ---------------------------------------------------------------------------


def _pattern_of(two_edges: list[tuple[int, int]]) -> str | None:
    """Which decomposition pattern a set of 2-pairings realizes, if any."""
    if not two_edges:
        return CONFIG_I
    if len(two_edges) == 1:
        return CONFIG_II
    if len(two_edges) == 2:
        a, b = two_edges
        shared = set(a) & set(b)
        if len(shared) == 1:
            return CONFIG_III
    return None


def _solve_coefficients(
    gens: list[NumClass], target: NumClass
) -> list[int] | None:
    """Positive integer a_i with sum a_i E_i = target, or None.

    Solves the coordinate equations over the integers.  A pattern-compatible
    generator set has a pattern Gram, which is nonsingular for every n <= 10,
    so the generators are independent and the solution is unique.  The
    rebuilt sum is checked, and a mismatch raises CertificateError.
    """
    rows = list(zip(*(e.coords for e in gens)))
    coeffs, _ = solve_integer_linear(rows, target.coords)
    if coeffs is None or min(coeffs) <= 0:
        return None
    acc = coeffs[0] * gens[0]
    for c, e in zip(coeffs[1:], gens[1:]):
        acc = acc + c * e
    if acc != target:
        raise CertificateError(
            f"coefficients {coeffs} rebuild {acc.coords}, not {target.coords}"
        )
    return list(coeffs)


def _normalize_decomposition(
    gens: list[NumClass], coeffs: list[int], two_edges: list[tuple[int, int]]
) -> IsotropicDecomposition:
    """Reorder generators to the canonical pattern indexing."""
    n = len(gens)
    label = _pattern_of(two_edges)
    if label is None:
        raise CertificateError(
            f"2-pairings {two_edges} realize no decomposition pattern"
        )
    order = list(range(n))
    if label == CONFIG_II:
        a, b = two_edges[0]
        order = [a, b] + [i for i in range(n) if i not in (a, b)]
    elif label == CONFIG_III:
        (a1, b1), (a2, b2) = two_edges
        shared = (set((a1, b1)) & set((a2, b2))).pop()
        partners = sorted({a1, b1, a2, b2} - {shared})
        order = [shared] + partners + [
            i for i in range(n) if i != shared and i not in partners
        ]
    return IsotropicDecomposition(
        tuple(DivisorClass(gens[i], 0) for i in order),
        tuple(coeffs[i] for i in order),
        label,
    )


def decompose_isotropic(L: DivisorClass) -> IsotropicDecomposition:
    """One decomposition L = a_1 E_1 + ... + a_n E_n into primitive isotropic
    effective classes whose pairwise pairings follow pattern (i), (ii) or
    (iii).

    The candidate pool is grown degree by degree from 1 up to L^2 (in any
    decomposition every generator satisfies E_i.L <= L^2; stages below
    phi(L) have empty pools and are skipped); within a stage, generators
    are tried in order of increasing L-degree then lexicographic
    coordinates, small generator sets before large ones, and the first
    pattern-compatible subset admitting positive integer coefficients wins.
    Deterministic; raises SearchExhaustedError with the bound that was hit
    (DECOMPOSE_MAX_CANDIDATES, DECOMPOSE_MAX_NODES) rather than silently
    truncating.

    Two cuts leave that order and its first hit unchanged:

    - a stage tries only subsets holding a class new at its degree: every
      subset of the older pool already failed the same solve one stage
      before (the last chosen index starts at the old pool size);
    - a partial subset is dropped unless its residual R = L - sum E_i is
      0 or has R^2 >= 0 and R.A0 > 0.  In a decomposition R is a
      nonnegative combination of effective isotropic classes pairing to 1
      or 2, so this holds for every subset of the generators.  As the
      complement of A0 is negative definite, the test reads R^2 >= 0 and
      R.A0 >= 0, and both numbers follow from the pairings already known:
      adding E to the subset takes R^2 to R^2 - 2 (E.L - sum of E.E_i).
    """
    st = classify_positivity(L)
    if not st.is_effective or L.square < 0:
        raise NotAmpleEnoughError(
            "decompose_isotropic needs an effective class of nonnegative square"
        )
    if L.square == 0:
        c, prim = content(L.num)
        return IsotropicDecomposition((DivisorClass(prim, 0),), (c,), CONFIG_I)

    lift = complement_lift(L.num)
    a0 = reference_ample(L.num.form).num
    l_sq = L.square
    # the pool by degree, then lexicographically (fibers come sorted), with
    # each class's degrees against L and A0; it only ever grows at the end,
    # so indices into it and the pairing cache stay valid across stages
    cands: list[NumClass] = []
    deg_l: list[int] = []
    deg_a0: list[int] = []
    pairs: dict[tuple[int, int], int] = {}

    def pairing(i: int, j: int) -> int:
        if (i, j) not in pairs:
            pairs[i, j] = cands[i].dot(cands[j])
        return pairs[i, j]

    budget = DECOMPOSE_MAX_NODES

    def search(size: int, first_new: int) -> IsotropicDecomposition | None:
        """Depth-first over index tuples of exactly the given size whose
        last index is at least first_new."""
        n_cand = len(cands)
        chosen: list[int] = []
        two_edges: list[tuple[int, int]] = []

        def rec(
            start: int, r_sq: int, r_a0: int
        ) -> IsotropicDecomposition | None:
            nonlocal budget
            if len(chosen) == size:
                gens = [cands[i] for i in chosen]
                coeffs = _solve_coefficients(gens, L.num)
                if coeffs is not None:
                    return _normalize_decomposition(gens, coeffs, two_edges)
                return None
            if len(chosen) == size - 1:
                start = max(start, first_new)
            for idx in range(start, n_cand):
                budget -= 1
                if budget <= 0:
                    raise SearchExhaustedError(
                        f"decomposition search exceeded {DECOMPOSE_MAX_NODES} "
                        f"nodes (pool size {n_cand})"
                    )
                ok = True
                new_edges = []
                paired = 0
                for pos, prev in enumerate(chosen):
                    v = pairing(prev, idx)
                    if v not in (1, 2):
                        ok = False
                        break
                    paired += v
                    if v == 2:
                        new_edges.append((pos, len(chosen)))
                if not ok:
                    continue
                next_sq = r_sq - 2 * (deg_l[idx] - paired)
                next_a0 = r_a0 - deg_a0[idx]
                if next_sq < 0 or next_a0 < 0:
                    continue  # the residual is neither 0 nor effective
                if _pattern_of(two_edges + new_edges) is None:
                    continue
                chosen.append(idx)
                two_edges.extend(new_edges)
                hit = rec(idx + 1, next_sq, next_a0)
                if hit is not None:
                    return hit
                del two_edges[len(two_edges) - len(new_edges):]
                chosen.pop()
            return None

        return rec(0, l_sq, L.num.dot(a0))

    # Small generator sets are overwhelmingly more common, so try all pairs
    # before any triple and so on; together with the degree-staged pool
    # growth this makes the returned decomposition deterministic.
    for bound in range(1, l_sq + 1):
        new = [x for x in lift.fiber(bound, 0) if content(x)[0] == 1]
        if not new:
            continue  # nothing new at this degree
        first_new = len(cands)
        cands.extend(new)
        deg_l.extend([bound] * len(new))
        deg_a0.extend(x.dot(a0) for x in new)
        if len(cands) > DECOMPOSE_MAX_CANDIDATES:
            raise SearchExhaustedError(
                f"candidate pool exceeded {DECOMPOSE_MAX_CANDIDATES} classes "
                f"at degree bound {bound}"
            )
        for size in range(2, min(10, len(cands)) + 1):
            hit = search(size, first_new)
            if hit is not None:
                return hit
    raise SearchExhaustedError(
        f"no decomposition found with generator degrees <= L^2 = {l_sq}; "
        f"node budget remaining {budget}"
    )
