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

phi and mu are read off one reduction of L to the W(E10) chamber
(``lattice.chamber_reduce``).  Their witnesses come from certified
searches on the complement projection, at phi and at mu + 2 when it is
at most mu's cap (default 2 phi + 2, which decides the gonality minimum).

Each effective class L of positive square has one :class:`Polarization`,
kept by :func:`polarization`, which computes the reduction, phi, the
isotropic fibers and the gonality report of L at most once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import mul

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
    basis_vector,
    chamber_reduce,
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

#: Budget of ``decompose_isotropic``: degree probes and slots filled.
DECOMPOSE_MAX_NODES = 200_000

#: How many classes :func:`polarization` keeps.
POLARIZATION_CACHE_SIZE = 32


class PhiResult(namedtuple("PhiResult", "value witness")):
    """value: int, witness: DivisorClass."""

    __slots__ = ()


class MuResult(
    namedtuple("MuResult", "status cap value witness", defaults=(None, None))
):
    """status: str, cap: int, value: int | None = None,
    witness: DivisorClass | None = None."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.status == MU_EXACT


class GonalityReport(
    namedtuple(
        "GonalityReport",
        "k phi mu floor_term case_label genus notes",
        defaults=((),),
    )
):
    """k: int, phi: PhiResult, mu: MuResult, floor_term: int,
    case_label: str, genus: int, notes: tuple[str, ...] = ()."""

    __slots__ = ()

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


class IsotropicDecomposition(
    namedtuple("IsotropicDecomposition", "generators coefficients configuration")
):
    """generators: tuple[DivisorClass, ...], coefficients: tuple[int, ...],
    configuration: str."""

    __slots__ = ()


def phi(L: DivisorClass) -> PhiResult:
    """Exact minimum of L.E over primitive isotropic effective classes E.

    The value is x_red.f (proved at ``lattice.chamber_reduce``), and the
    witness is the lexicographically least class of the fiber at it,
    both certified when :class:`Polarization` is built.
    """
    return polarization(L.num).phi


#: B0 = 2f + 2g + v0 (v0^2 = -4), the weight of alpha_1: B0.r = 0 for the
#: other simple roots of ``lattice.CHAMBER_ROOTS``, and B0.alpha_1 = 1.
B0 = (2, 2, -4, -5, -7, -10, -8, -6, -4, -2)


def mu(L: DivisorClass, cap: int | None = None) -> MuResult:
    """Exact minimum of L.B - 2 over effective B, B^2 = 4, phi(B) = 2, B != L.

    mu(L) = x_red.B0 - 2, or 3 when x_red = B0 (x_red =
    ``lattice.chamber_reduce(L)``).  Only B with L.B <= cap count (default
    2 phi(L) + 2): above it the answer is "not found below cap", with no
    search, which certifies mu(L) > cap - 2.  Otherwise the first
    admissible class of the lift's fiber x.L = t, x^2 = 4 at t = mu + 2
    is the witness, the lexicographically least one, and the walk stops
    there; CertificateError if it finds none.

    The classes B with B^2 = 4 and phi(B) = 2 are the W-orbit of B0
    (Cossec-Dolgachev, *Enriques Surfaces I*, ch. II).  By the lemma in
    :func:`multiple_content`, B = E1 + E2 with E_i primitive isotropic and
    E1.E2 = 2.  Move E1 to f (one orbit, see ``chamber_reduce``); then
    E2 = a f + 2g + v with v in E8(-1) and v^2 = -4a.  The Eichler
    transformations that fix f lie in O^+ = W and move v by any vector of
    2E8.  v in 2E8 makes a even and E2 imprimitive, and v congruent to a
    root r gives v^2 = r^2 = 2 mod 4.  So v lies in one of the 135 classes
    of norm-4 vectors in E8/2E8, on which W(E8) (alpha_1..alpha_8, fixing
    f) is transitive (Conway-Sloane, *SPLAG*, ch. 4): B is in the orbit of
    one class, B0.  Conversely phi(B0) = B0.f = 2.

    W keeps the positive cone, so every B of the orbit is effective.  B0
    lies in the closed chamber, so with L = u(x_red) every B = w(B0) has
    L.B >= x_red.B0 (``chamber_reduce``), with equality at u(B0), which is
    not L unless x_red = B0.  Then B = L is the one class of degree 4, as
    (B.L)^2 >= B^2 L^2 = 16 (Hodge index) holds with equality only for B
    proportional to L, and u(s_1 B0) = u(B0 + alpha_1) has degree 5.

    The search tests phi(B) = 2 with no lattice machinery per candidate:
    phi(B) = 1 makes B = 2E + F with E.B = 1 and E, F effective isotropic
    (the lemma), so t >= 2 E.L + phi(L), and the stored fibers
    (:meth:`Polarization.isotropic`) of degrees phi(L) .. (t - phi(L)) / 2
    hold every such E.
    """
    pol = polarization(L.num)
    floor = pol.phi.value
    if cap is None:
        cap = 2 * floor + 2
    x_red = pol.x_red
    t = 5 if x_red.coords == B0 else x_red.dot(NumClass(B0, x_red.form))
    if t > cap:
        return MuResult(MU_NOT_FOUND, cap)
    pool = [e for s in range(floor, (t - floor) // 2 + 1) for e in pol.isotropic(s)]
    # phi(B) = 1 fails the test, and B^2 = 4 admits no larger phi than 2;
    # L itself, excluded by the definition, is never at t: L.L = 4 only on
    # B0's orbit, where t = 5
    hits = pol.lift.iter_solutions((t,), 4)
    x = next((b for b in hits if all(e.dot(b) != 1 for e in pool)), None)
    if x is None:
        raise CertificateError(
            f"no class B != L with B^2 = 4 and phi(B) = 2 has L.B = {t}, "
            f"the degree the chamber gives for L = {L.num.coords}"
        )
    return MuResult(MU_EXACT, cap, t - 2, DivisorClass(x, 0))


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
    return c if polarization(L.num).phi.value == c * phi_value else 0


class Polarization:
    """The shared computations of one class L in the positive cone of
    ``canonical_form()``: its chamber reduction x_red, its
    :class:`ComplementLift`, phi and its isotropic fibers (x.L = t,
    x^2 = 0), each fixed by L alone, and the gonality report, computed on
    first read.  phi, mu's pool and every searched generator of
    decompose_isotropic read the fibers, so no isotropic fiber of L is
    searched twice, and each caller runs its own search on the lift for
    B^2 = 4, so a reused answer keeps its certificates and threads may
    share them.  Get one from :func:`polarization`, which keeps the last
    POLARIZATION_CACHE_SIZE classes asked for by value; the form is part
    of the key, and two threads that miss at once build equal objects.

    ``chamber_reduce(L)`` is the one check of L: it raises
    FormMismatchError for another form and NotAmpleEnoughError outside
    the positive cone (L^2 > 0, L.(f + g) > 0, which is "effective with
    L^2 > 0" on an unnodal surface), before anything is built, so every
    reader may take both as given.  Then phi = x_red.f is certified on its
    fiber: its first class is the witness, every class of it must pair
    positively with the reference ample class, and an empty fiber raises
    CertificateError.  No isotropic class has 0 < x.L < phi(L), so every
    class of the fiber is primitive: x = cP with c >= 2 would put the
    isotropic P at the degree phi(L) / c < phi(L).
    """

    def __init__(self, L: NumClass):
        self.x_red = chamber_reduce(L)
        self.L = L
        self.lift = ComplementLift(L)
        self._isotropic: dict[int, tuple[NumClass, ...]] = {}
        t = self.x_red.dot(basis_vector(0, L.form))
        hits = self.isotropic(t)
        if not hits:
            raise CertificateError(
                f"no isotropic class x has x.L = {t}, the degree the chamber "
                f"gives for L = {L.coords}"
            )
        # effectivity is automatic: x.L > 0 puts x in the cone of L
        a0 = reference_ample(L.form)
        bad = next((x for x in hits if x.dot(a0.num) <= 0), None)
        if bad is not None:
            raise CertificateError(
                f"isotropic class {bad.coords} with x.L = {t} > 0 pairs "
                f"to {bad.dot(a0.num)} with the reference ample class"
            )
        self.phi = PhiResult(t, DivisorClass(hits[0], 0))

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


polarization = lru_cache(maxsize=POLARIZATION_CACHE_SIZE)(Polarization)


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


@lru_cache(maxsize=None)
def _patterns() -> list[tuple]:
    """(pattern, alike, c) for (i) n = 2..10, (ii) n = 2..10, (iii) n = 3..10.
    Slot j is ``alike`` slot j - 1 when their rows of G agree outside
    columns j - 1 and j: the blocks {1..n} of (i), {1, 2} and {3..n} of
    (ii), {2, 3} and {4..n} of (iii).  G's pairings 2 lie in its first c."""
    out = []
    for make, c in ((config_i, 0), (config_ii, 2), (config_iii, 3)):
        for n in range(max(c, 2), 11):
            p = make(n)
            g = p.gram_sub
            alike = [j > 0 and all(g[j - 1][k] == g[j][k] for k in range(n) if k not in (j - 1, j))
                     for j in range(n)]
            out.append((p, alike, c))
    return out


def _levels(pol: Polarization, l_sq: int, spend):
    """Yield the decomposition shapes of square l_sq that L = pol.L may
    realize, by level (D, n) in increasing order: the (pattern, alike, a,
    delta) of a pattern of :func:`_patterns` with Gram G, a >= 1
    non-increasing inside each alike run, a^T G a = l_sq, delta = G a,
    D = max delta, and every delta_j in P(L), the degrees t at which
    ``pol.isotropic(t)`` holds a primitive class (each generator of a
    realization is one, of degree delta_j).  D runs from phi, a ``spend``
    step per probe, to 2 l_sq / (phi + 2): the slot j of degree D has
    D <= 2 (S - a_j) and l_sq = a . delta >= D + phi (S - a_j), S = sum a.

    G has a zero diagonal and entries 1 or 2 elsewhere, so
    (G a)_j >= S - a_j >= a_k for every k != j, and l_sq = a . G a <= D S.
    Hence D (D + a_j) >= l_sq for every coefficient a_j, and summing
    a_j >= S - D over the n >= 2 slots gives S <= n D / (n - 1): S runs
    over [ceil(l_sq / D), n D / (n - 1)], empty unless D^2 >= l_sq / 2.

    With G = J - I + E, delta = S - a + E a and
    l_sq = S^2 - sum a^2 + a^T E a.  A plain slot has a_j = S - delta_j,
    delta_j in P(L) up to D; k of them, of sum r and sum of squares q,
    have a largest x >= r / k, q / r (the rest, each <= x, has squares
    <= x (r - x)) and (r - x)^2 <= (k - 1)(q - x^2) (Cauchy), which at
    k = 1 solve the last slot, x = r with x^2 = q.  The first c slots:

    - (i) has none, and a non-increasing puts D on the last slot.
    - (ii): delta_0 + delta_1 = 2 S, a_0 - a_1 = S - delta_0 >= 0, plain
      degrees are below S <= delta_1 = D, and q = S^2 - l_sq - (D - S)^2.
    - (iii): a_0 = delta_0 + delta_1 + delta_2 - 3 S and
      a_i = a_0 + S - delta_i (i = 1, 2), so q = S^2 - l_sq + a_0^2 -
      (S - delta_1)^2 - (S - delta_2)^2.  delta_2 >= S if a_0 >= a_2, and
      delta_0 > S if not, so D = max(delta_0, delta_2).  delta_0 is
      bisected out of P(L) between a_0 >= max(1, delta_2 - S + 1)
      (a_2 >= 1) and a sum <= S - m of the three a (m plain slots).
    """
    degrees: list[int] = []  # P(L) up to D, increasing

    def within(lo, hi):
        return degrees[bisect_left(degrees, lo):bisect_right(degrees, hi)]

    def plain(k, r, q, top, S):
        """The non-increasing k plain a <= top, of sum r and squares q."""
        if k == 0 or r < k or k * q < r * r:
            if k == r == q == 0:
                yield []
            return
        hi = min(top, (r + math.isqrt((k - 1) * (k * q - r * r))) // k)
        for x in [S - d for d in within(S - hi, S - max(-(-r // k), -(-q // r)))]:
            yield from ([x] + rest for rest in plain(k - 1, r - x, q - x * x, x, S))

    def shapes(c, m, S, D):
        """The a of sum S and largest degree D, c slots then m plain ones."""
        if c == 0 and S > D:
            yield from (a + [S - D] for a in plain(m - 1, D, S * S - l_sq - (S - D) ** 2, S, S))
        elif c == 2 and S <= D and within(2 * S - D, 2 * S - D):
            q = S * S - l_sq - (D - S) ** 2
            for a1 in range(1, (2 * S - D - m) // 2 + 1):
                yield from ([a1 + D - S, a1] + a for a in plain(m, 2 * S - D - 2 * a1, q, S, S))
        elif c == 3:
            for d2 in within((S + m + 4) // 2, D):
                for d1 in within(S + m + 3 - d2, d2):
                    u = 3 * S - d1 - d2  # delta_0 - a_0
                    least = max(1, d2 - S + 1, D - u if d2 < D else 1)
                    for a0 in [d - u for d in within(least + u, (2 * S - m - u) // 3 + u)]:
                        q = S * S - l_sq + a0 * a0 - (S - d1) ** 2 - (S - d2) ** 2
                        yield from ([a0, a0 + S - d1, a0 + S - d2] + a
                                    for a in plain(m, 2 * S - u - 3 * a0, q, S, S))

    floor = pol.phi.value
    for D in range(floor, 2 * l_sq // (floor + 2) + 1):
        spend()
        if not any(map(is_primitive, pol.isotropic(D))):
            continue
        degrees.append(D)
        for n in range(2, 11):
            level = [(p, alike, a, [sum(map(mul, row, a)) for row in p.gram_sub])
                     for p, alike, c in _patterns() if p.n == n
                     for S in range(-(-l_sq // D), n * D // (n - 1) + 1)
                     for a in shapes(c, n - c, S, D)]
            if level:
                yield level


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
    E_j.L = (G a)_j, and every generator is primitive isotropic of degree
    delta_j (the last one too, by the division below), so the search runs
    over the shapes of :func:`_levels`, level (D, n) by level in increasing
    order, D the largest degree.  A level returns the realization with the
    least sorted list of (E_j.L, coordinates of E_j), and the first level
    with one ends the search before the walk probes the next degree.  That
    is the minimum of (max E.L, n, that list) over every decomposition, so
    the answer does not depend on the order of the search.  Generators
    come in pattern order, alike slots (see :func:`_patterns`) by
    increasing (E.L, coords).

    Every slot j < n is drawn from one source, the isotropic fiber
    x.L = delta_j of L (:meth:`Polarization.isotropic`), in lexicographic
    order, kept to the primitive classes with E_i.x = G_ij for i < j:
    exactly the candidates of slot j.  Alike slots of equal coefficient
    take increasing coordinates, so each set is found once.

    The last slot needs no search.  Let R = L - sum_{i<n} a_i E_i.  For
    j < n, R.E_j = delta_j - sum_{i<n} a_i G_ij = a_n G_nj; then
    R.L = a_n delta_n and R^2 = R.L - sum_{i<n} a_i R.E_i = a_n (delta_n -
    sum_{i<n} G_ni a_i) = a_n^2 G_nn = 0.  So E_n = R / a_n has every
    pairing the pattern asks for as soon as it is integral, and it is kept
    when it is also primitive.  The rebuilt sum and the Gram of the
    realization returned are checked anyway, and a mismatch raises
    CertificateError.

    Deterministic; raises SearchExhaustedError once DECOMPOSE_MAX_NODES
    steps, degree probes and slots filled, have been spent.
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
    budget = DECOMPOSE_MAX_NODES

    def spend():
        nonlocal budget
        budget -= 1
        if budget <= 0:
            raise SearchExhaustedError(f"decomposition search for L = {target.coords} "
                                       f"exceeded {DECOMPOSE_MAX_NODES} nodes")

    def fill(p, alike, a, delta, gens, rows):
        """Every realization of the shape (p, a) that extends gens; rows
        holds the pairing row gram @ E_i of each generator but the last."""
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
            spend()
            if j < p.n - 1:
                yield from fill(p, alike, a, delta, gens + [x], rows)
            else:
                yield gens + [x]

    for level in _levels(pol, L.square, spend):
        best = None
        for p, alike, a, delta in level:
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
