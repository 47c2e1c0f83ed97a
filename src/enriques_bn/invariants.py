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

Each effective class L of positive square has one :class:`Polarization`,
kept by :func:`polarization` for the last POLARIZATION_CACHE_SIZE classes,
keyed on L by value: its constructor is the one check of L, its lift is
built once, and its isotropic fibers (x.L = t, x^2 = 0), phi(L) and
gonality report are computed at most once.  All are fixed by L alone.
phi's degree loop, mu's isotropic pool and every searched generator of
decompose_isotropic read the fibers (:meth:`Polarization.isotropic`), so
no isotropic fiber of L is searched twice, and each caller runs its own
search on the lift for B^2 = 4, so a reused answer keeps its
certificates and threads may share them.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import mul
from typing import NamedTuple

from .errors import (
    CertificateError,
    GenusTooSmallError,
    NotAmpleEnoughError,
    NotAmpleError,
    SearchExhaustedError,
)
from .lattice import (
    CONFIG_I,
    ConfigurationPresentation,
    DivisorClass,
    NumClass,
    config_i,
    config_ii,
    config_iii,
    content,
    is_primitive,
)
from .positivity import classify_positivity, reference_ample
from .shortvec import ComplementLift

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

#: Budget of ``decompose_isotropic``: slots filled.
DECOMPOSE_MAX_NODES = 200_000

#: How many classes :func:`polarization` keeps.
POLARIZATION_CACHE_SIZE = 32


class PhiResult(NamedTuple):
    value: int
    witness: DivisorClass


class MuResult(NamedTuple):
    status: str
    cap: int
    value: int | None = None
    witness: DivisorClass | None = None

    @property
    def exact(self) -> bool:
        return self.status == MU_EXACT


class GonalityReport(NamedTuple):
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


class IsotropicDecomposition(NamedTuple):
    generators: tuple[DivisorClass, ...]
    coefficients: tuple[int, ...]
    configuration: str


def phi(L: DivisorClass) -> PhiResult:
    """Exact minimum of L.E over primitive isotropic effective classes E.

    The value is searched once per class, by
    :attr:`Polarization.isotropic_floor`.  The witness is the
    lexicographically least class of the fiber at it.
    """
    pol = polarization(L.num)
    value = pol.isotropic_floor
    return PhiResult(value, DivisorClass(pol.isotropic(value)[0], 0))


def mu(L: DivisorClass, cap: int | None = None) -> MuResult:
    """Exact minimum of L.B - 2 over effective B, B^2 = 4, phi(B) = 2, B != L.

    The search considers all B with L.B <= cap (default 2 phi(L) + 2, which
    suffices to decide the gonality minimum) and reports "not found below
    cap" otherwise; that report certifies mu(L) > cap - 2.

    Each degree's candidates come from ``ComplementLift.first``, which
    walks the fiber in lexicographic order and stops at the first
    admissible class, so no fiber of B^2 = 4 is built in full.

    The phi(B) = 2 test never rebuilds lattice machinery per candidate:
    phi(B) = 1 makes B = 2E + F with E.B = 1 and E, F effective isotropic
    (the lemma in :func:`multiple_content`), so t >= 2 E.L + phi(L).  At
    degree t one pool, the stored fibers (:meth:`Polarization.isotropic`)
    of degrees phi(L) .. (t - phi(L)) / 2, decides the test for every
    candidate; it is empty below t = 3 phi(L), no isotropic class has
    0 < E.L < phi(L), and no fiber is searched that phi or an earlier call
    has searched.  No degree with t^2 < 4 L^2 is scanned: by the Hodge
    index theorem (B.L)^2 >= B^2 L^2 = 4 L^2, so no candidate lies there.
    """
    pol = polarization(L.num)
    floor = pol.isotropic_floor
    if cap is None:
        cap = 2 * floor + 2
    for t in range(math.isqrt(4 * L.square - 1) + 1, cap + 1):
        top = (t - floor) // 2
        pool = [e for s in range(floor, top + 1) for e in pol.isotropic(s)]
        # the definition excludes B numerically equal to L, and phi(B) = 1
        # fails it; B^2 = 4 admits no larger phi than 2.  Fibers come in
        # lexicographic order, so the first admissible candidate at the
        # minimal degree is the canonical witness
        x = pol.lift.first(
            t, 4, lambda b: b != L.num and all(e.dot(b) != 1 for e in pool)
        )
        if x is not None:
            return MuResult(MU_EXACT, cap, t - 2, DivisorClass(x, 0))
    return MuResult(MU_NOT_FOUND, cap)


def multiple_content(L: DivisorClass, square: int, phi_value: int) -> int:
    """The content c of L when B = L/c has B^2 = square and
    phi(B) = phi_value, else 0; torsion is ignored.  Both are read off L's
    stored invariants, so no class but L gets a lift or a search:
    B^2 = square is L^2 = c^2 square, and phi(B) = phi_value is
    phi(L) = c phi_value, as phi is homogeneous: every isotropic E has
    E.L = c E.B, so the same classes have positive degree on L and on B.

    Two tests of the form L = c B read it.

    - The square-plus exclusion L = 2D, D^2 = 10, phi(D) = 3, is
      ``multiple_content(L, 10, 3) == 2``: D = mP with P^2 even needs
      m^2 | 5, so D is primitive.
    - The plane-cover family L = c(E_1 + E_2), E_1, E_2 primitive
      isotropic with E_1.E_2 = 2 and c >= 3, is
      ``multiple_content(L, 4, 2) >= 3``, by the lemma and the fact
      below.  They use that two effective isotropic classes pair to >= 0,
      and to 0 only when they are proportional (Cossec-Dolgachev,
      *Enriques Surfaces I*, ch. II).

    Lemma: an effective B with B^2 = 4 has phi(B) <= isqrt(4) = 2, and it
    is E_1 + E_2 as above when phi(B) = 2, and 2E + F with E.B = 1 and E,
    F effective isotropic when phi(B) = 1.  Let E be phi's primitive
    witness, of E.B = phi(B).  If phi(B) = 2, F = B - E has
    F^2 = 4 - 2 E.B = 0, E.F = 2 and F.B = 2 > 0, so F is effective
    isotropic, and F = mP with m >= 2 would give P.B = 2/m = 1 < phi(B),
    so F is primitive.  If phi(B) = 1, F = B - 2E has F^2 = 4 - 4 E.B = 0
    and F.B = 2 > 0, so F is effective isotropic, and F.L >= phi(L) for
    every polarization L (F.L > 0 by the Hodge index theorem).
    Conversely B = E_1 + E_2 has B^2 = 4 and E_1.B = 2; an isotropic E
    with E.B = 1 would pair to 0 with one E_i, be a multiple of it, and so
    have E.B even.  B = mP with P^2 even needs m^2 | 2, so B is primitive
    and c = content(L).

    That is the answer of the decomposition search: L = c(E_1 + E_2) if
    and only if ``decompose_isotropic(L)`` returns pattern (ii) with two
    generators and coefficients (c, c).  phi(L) = c phi(B) = 2c bounds
    every generator's degree from below, so no level comes before
    (2c, 2).  At that level the shape (ii) with a = (c, c) is realized by
    E_1, E_2, and the shape (i) with a = (2c, c) has a generator of degree
    c < phi(L) (it would make L/c = 2E_1' + E_2', of phi 1).  Conversely a
    returned L = c(E_1 + E_2) has content c and B = E_1 + E_2 as above.
    """
    c = content(L.num)[0]
    if L.square != c * c * square:
        return 0
    return c if polarization(L.num).isotropic_floor == c * phi_value else 0


class Polarization:
    """The shared computations of one class L, effective of positive
    square: its :class:`ComplementLift`, built once, and its isotropic
    fibers, phi and gonality report, each computed at most once.  Get one
    from :func:`polarization`.  The constructor is the one check of L: it
    raises NotAmpleEnoughError, and builds nothing, unless L is effective
    with L^2 > 0, so every reader may take that as given.
    """

    def __init__(self, L: NumClass):
        st = classify_positivity(DivisorClass(L, 0))
        if not (st.is_effective and L.square > 0):
            raise NotAmpleEnoughError(
                "a polarization needs an effective class of positive square; "
                f"got square {L.square}, status {st.witness}"
            )
        self.L = L
        self.lift = ComplementLift(L)
        self._isotropic: dict[int, tuple[NumClass, ...]] = {}

    def isotropic(self, t: int) -> tuple[NumClass, ...]:
        """Every isotropic x with x.L = t in lexicographic order, the lift's
        fiber, searched at most once per t.  It is fixed by L and t, so the
        stored tuple is what a fresh search returns; two threads that miss
        at once store equal tuples."""
        fiber = self._isotropic.get(t)
        if fiber is None:
            fiber = self._isotropic[t] = tuple(self.lift.fiber(t, 0))
        return fiber

    @cached_property
    def isotropic_floor(self) -> int:
        """phi(L), the least t > 0 with an isotropic x, x.L = t.

        Complete by the bound phi(L) <= sqrt(L^2): for t = 1.. isqrt(L^2),
        the isotropic classes with x.L = t have complement norm exactly
        t^2/L^2, a finite ellipsoid search, and phi(L) is the first t with
        hits.  So no isotropic class has 0 < x.L < phi(L), and every class
        of the fiber at phi(L) is primitive: x = cP with c >= 2 would put
        the isotropic P at the degree phi(L) / c < phi(L).
        """
        a0 = reference_ample(self.L.form)
        for t in range(1, math.isqrt(self.L.square) + 1):
            hits = self.isotropic(t)
            if hits:
                # effectivity is automatic: x.L > 0 puts x in the cone of L
                bad = next((x for x in hits if x.dot(a0.num) <= 0), None)
                if bad is not None:
                    raise CertificateError(
                        f"isotropic class {bad.coords} with x.L = {t} > 0 pairs "
                        f"to {bad.dot(a0.num)} with the reference ample class"
                    )
                return t
        raise SearchExhaustedError(
            f"no isotropic class with L.E <= isqrt(L^2) = {math.isqrt(self.L.square)}; "
            "input is outside the modeled cone"
        )

    @cached_property
    def report(self) -> GonalityReport:
        """The gonality report of L; :func:`gonality` checks that L is ample.

        No step reads the torsion bit, so the report serves both.  phi and
        mu are called through this module's names.
        """
        L = DivisorClass(self.L, 0)
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
                and multiple_content(L, 10, 3) != 2
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


@lru_cache(maxsize=POLARIZATION_CACHE_SIZE)
def polarization(L: NumClass) -> Polarization:
    """The :class:`Polarization` of L, kept for the last
    POLARIZATION_CACHE_SIZE classes asked for.

    The key is L by value; its equality and hash include the form, so equal
    coordinates in another form get their own object.  Two threads that
    miss at once may each build one; both are equal.
    """
    return Polarization(L)


def gonality(L: DivisorClass) -> GonalityReport:
    """Generic gonality of smooth curves in |L|, with its achieving case.

    The ample check runs before :func:`polarization` is asked, on every call.
    """
    st = classify_positivity(L)
    if not st.is_ample or L.square < 2:
        raise NotAmpleError(
            f"gonality needs an ample class with L^2 >= 2; got square {L.square}"
        )
    return polarization(L.num).report


def clifford_generic(L: DivisorClass) -> int:
    """Generic Clifford index of smooth curves in |L|; see
    ``GonalityReport.clifford``."""
    return gonality(L).clifford()


# ---------------------------------------------------------------------------
# Isotropic decompositions.
# ---------------------------------------------------------------------------


def _levels(l_sq: int) -> list[list[tuple]]:
    """The decomposition shapes of square l_sq, grouped by level (D, n) in
    increasing order: (pattern, alike, a, delta) for every pattern (i)
    n = 2..10, (ii) n = 2..10, (iii) n = 3..10 with Gram G, every a >= 1
    with a^T G a = l_sq, delta = G a and D = max delta.

    Slot j is ``alike`` slot j - 1 when their rows of G agree outside
    columns j - 1 and j; the alike runs are the blocks {1..n} of (i),
    {1, 2} and {3..n} of (ii) and {2, 3} and {4..n} of (iii), and a is
    non-increasing inside each.  G has a zero diagonal and positive entries
    elsewhere, so a^T G a is linear in each a_j with slope 2 (G a)_j > 0: a
    prefix completed by ones bounds every completion from below, the slope
    at the next slot bounds its coefficient, and the last coefficient
    solves its linear equation.  A prefix carries q, its own a^T G a, and
    c = G a over its slots, so each bound costs O(n).
    """
    levels: dict[tuple[int, int], list[tuple]] = {}
    for make, smallest in ((config_i, 2), (config_ii, 2), (config_iii, 3)):
        # a = (1, ..., 1) gives at least n (n - 1), so (2n - 1)^2 <= 4 l_sq + 1
        for n in range(smallest, min(10, (math.isqrt(4 * l_sq + 1) + 1) // 2) + 1):
            p = make(n)
            g = p.gram_sub
            alike = [False] + [
                all(g[j - 1][k] == g[j][k] for k in range(n) if k not in (j - 1, j))
                for j in range(1, n)
            ]
            # after[m] = (G 1)_m over the slots past m; tail[m] = 1^T G 1
            # over the slots from m on
            after = [sum(g[m][m + 1:]) for m in range(n)]
            tail = [0] * (n + 1)
            for m in range(n - 1, -1, -1):
                tail[m] = tail[m + 1] + 2 * after[m]
            prefixes = [([], 0, [0] * n)]
            while prefixes:
                a, q, c = prefixes.pop()
                m = len(a)
                room, rest = divmod(
                    l_sq - q - 2 * sum(c[m:]) - tail[m], 2 * (c[m] + after[m])
                )
                top = min(1 + room, a[-1]) if alike[m] else 1 + room
                if m < n - 1:
                    for x in range(1, top + 1):
                        c_x = [y + x * z for y, z in zip(c, g[m])]
                        prefixes.append((a + [x], q + 2 * x * c[m], c_x))
                elif room >= 0 and not rest and top == 1 + room:
                    delta = [y + top * z for y, z in zip(c, g[m])]
                    levels.setdefault((max(delta), n), []).append(
                        (p, alike, a + [top], delta)
                    )
    return [levels[key] for key in sorted(levels)]


def _check_realization(
    target: NumClass, p: ConfigurationPresentation, a: list[int], gens: list[NumClass]
) -> None:
    """CertificateError unless sum a_i E_i rebuilds target and the Gram of
    the E_i is the pattern's."""
    rebuilt = a[0] * gens[0]
    for c, e in zip(a[1:], gens[1:]):
        rebuilt = rebuilt + c * e
    gram = tuple(tuple(e.dot(f) for f in gens) for e in gens)
    if rebuilt != target or gram != p.gram_sub:
        raise CertificateError(
            f"generators {[e.coords for e in gens]} with coefficients {a} "
            f"rebuild {rebuilt.coords} with Gram {gram}; pattern {p.label} "
            f"of {target.coords} needs {p.gram_sub}"
        )


def decompose_isotropic(L: DivisorClass) -> IsotropicDecomposition:
    """One decomposition L = a_1 E_1 + ... + a_n E_n into primitive isotropic
    effective classes whose pairwise pairings follow pattern (i), (ii) or
    (iii).

    A pattern Gram G and coefficients a fix L^2 = a^T G a and every degree
    E_j.L = (G a)_j, so the search runs over the shapes of :func:`_levels`.
    Levels (D, n), D the largest degree, are visited in increasing order;
    a level returns the realization with the least sorted list of
    (E_j.L, coordinates of E_j), and the first level with one ends the
    search.  That is the minimum of (max E.L, n, that list) over every
    decomposition, so the answer does not depend on the order of the search.
    Generators come in pattern order, alike slots (see :func:`_levels`) by
    increasing (E.L, coordinates).

    Every slot j < n is drawn from one source, the isotropic fiber
    x.L = delta_j of L (:meth:`Polarization.isotropic`), kept to the
    classes with E_i.x = G_ij for i < j that are primitive.  That fiber
    holds every isotropic x with x.L = delta_j, in lexicographic order, so
    the filter yields exactly the candidates of slot j, in that order.
    Every generator is isotropic with E_j.L = delta_j > 0 (the last one
    too, by the division below) and no isotropic class has
    0 < x.L < phi(L), so a shape with min(G a) < phi(L) is skipped.  Alike
    slots of equal coefficient take increasing coordinates, so each set is
    found once.

    The last slot needs no search.  Let R = L - sum_{i<n} a_i E_i.  For
    j < n, R.E_j = delta_j - sum_{i<n} a_i G_ij = a_n G_nj; then
    R.L = a_n delta_n and R^2 = R.L - sum_{i<n} a_i R.E_i = a_n (delta_n -
    sum_{i<n} G_ni a_i) = a_n^2 G_nn = 0.  So E_n = R / a_n has every
    pairing the pattern asks for as soon as it is integral, and it is kept
    when it is also primitive.  The rebuilt sum and the Gram of the
    realization returned are checked anyway, and a mismatch raises
    CertificateError.

    Deterministic; raises SearchExhaustedError once DECOMPOSE_MAX_NODES
    slots have been filled.
    """
    if L.square <= 0:
        if not classify_positivity(L).is_effective:  # never at L^2 < 0
            raise NotAmpleEnoughError(
                "decompose_isotropic needs an effective class of nonnegative square"
            )
        c, prim = content(L.num)
        return IsotropicDecomposition((DivisorClass(prim, 0),), (c,), CONFIG_I)

    target = L.num
    form = target.form
    pol = polarization(target)  # which checks that L is effective
    floor = pol.isotropic_floor
    budget = DECOMPOSE_MAX_NODES

    def fill(p, alike, a, delta, gens, rows):
        """Every realization of the shape (p, a) that extends gens; rows
        holds the pairing row gram @ E_i of each generator but the last."""
        nonlocal budget
        j = len(gens)
        if j < p.n - 1:
            if gens:
                rows = rows + [form.apply(gens[-1].coords)]
            pairings = [p.gram_sub[i][j] for i in range(j)]
            candidates = (
                x for x in pol.isotropic(delta[j])
                if [sum(map(mul, r, x.coords)) for r in rows] == pairings
                and is_primitive(x)
            )
        else:
            rest = target.coords
            for c, e in zip(a, gens):
                rest = [r - c * x for r, x in zip(rest, e.coords)]
            if any(r % a[j] for r in rest):
                return
            last = NumClass(tuple(r // a[j] for r in rest), form)
            candidates = [last] if is_primitive(last) else []
        for x in candidates:
            if alike[j] and a[j] == a[j - 1] and x.coords <= gens[-1].coords:
                continue
            budget -= 1
            if budget <= 0:
                raise SearchExhaustedError(
                    f"decomposition search exceeded {DECOMPOSE_MAX_NODES} nodes"
                )
            if j < p.n - 1:
                yield from fill(p, alike, a, delta, gens + [x], rows)
            else:
                yield gens + [x]

    for level in _levels(L.square):
        best = None
        for p, alike, a, delta in level:
            if min(delta) < floor:
                continue
            for gens in fill(p, alike, a, delta, [], []):
                key = sorted(zip(delta, (e.coords for e in gens)))
                if best is None or key < best[0]:
                    best = key, gens, a, p
        if best is not None:
            _, gens, a, p = best
            _check_realization(target, p, a, gens)
            return IsotropicDecomposition(
                tuple(DivisorClass(e, 0) for e in gens), tuple(a), p.label
            )
    raise SearchExhaustedError(
        f"no pattern (i)-(iii) decomposition of square {L.square} realizes L"
    )
