import contextlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques_bn import invariants
from enriques_bn.brill_noether import enumerate_destab, predict_w1d
from enriques_bn.errors import (
    CertificateError,
    FormMismatchError,
    GenusTooSmallError,
    NotAmpleEnoughError,
    NotAmpleError,
    SearchExhaustedError,
)
from enriques_bn.invariants import (
    CASE_FLOOR_EXCEPTIONAL,
    CASE_FLOOR_PLAIN,
    CASE_GENERIC,
    CASE_MU_SQUARE,
    CASE_MU_SQUARE_PLUS,
    EXCEPTIONAL_SQUARE_PHI_PAIRS,
    MU_EXACT,
    MU_NOT_FOUND,
    POLARIZATION_CACHE_SIZE,
    B0,
    MuResult,
    PhiResult,
    clifford_generic,
    decompose_isotropic,
    gonality,
    mu,
    multiple_content,
    phi,
)
from enriques_bn.lattice import (
    CHAMBER_ROOTS,
    CONFIG_I,
    CONFIG_II,
    CONFIG_III,
    DivisorClass,
    IntersectionForm,
    NumClass,
    _pattern_gram,
    basis_vector,
    canonical_form,
    chamber_reduce,
    config_i,
    config_ii,
    config_iii,
    content,
    divisor_class,
    embed_configuration,
    integer_determinant,
    is_primitive,
    num_class,
    solve_integer_linear,
)
from enriques_bn.positivity import classify_positivity, cohomology, reference_ample
from enriques_bn.shortvec import ComplementLift, FiberSystem
from oracles import (
    _oracle_shapes,
    box_classes_with_square,
    box_isotropic_minimum,
    decompose_by_definition,
    degree_walks,
    mu_full_scan,
    multiple_content_of_primitive_part,
)

F = basis_vector(0)


def chamber_phi(x: NumClass) -> int:
    """phi(x) = x_red.f, read off the library's chamber reduction."""
    return chamber_reduce(x).dot(F)


def random_ample(rng, spread=3, max_square=60):
    """Draw an ample class with 2 <= L^2 <= max_square (rejection sampling)."""
    while True:
        d = divisor_class([rng.randint(-spread, spread) for _ in range(10)])
        if classify_positivity(-d).is_effective:
            d = -d
        st = classify_positivity(d)
        if st.is_ample and 2 <= d.square <= max_square:
            return d


def check_phi_witness(L, res):
    w = res.witness
    assert w.square == 0
    assert is_primitive(w.num)
    assert classify_positivity(w).is_effective
    assert L.dot(w) == res.value


class TestPhi:
    def test_pair_meeting_in_two(self, pair_two):
        e1, e2 = pair_two
        L = DivisorClass(e1 + e2, 0)
        res = phi(L)
        assert res.value == 2
        check_phi_witness(L, res)

    def test_uneven_polarization(self, pair_one):
        e1, e2 = pair_one
        L = DivisorClass(2 * e1 + 4 * e2, 0)
        res = phi(L)
        assert res.value == 2
        check_phi_witness(L, res)

    def test_triple_polarization(self, pair_two):
        e1, e2 = pair_two
        L = DivisorClass(3 * (e1 + e2), 0)
        res = phi(L)
        assert res.value == 6  # multiples of 3 only; 3 needs a class parallel to E1
        check_phi_witness(L, res)

    def test_precondition(self, pair_one):
        # -L has positive square: building its lift first would not raise
        e1, e2 = pair_one
        for bad in (DivisorClass(basis_vector(0), 0), DivisorClass(-2 * e1 - 4 * e2, 0)):
            with pytest.raises(NotAmpleEnoughError):
                phi(bad)
        assert invariants.polarization.cache_info().currsize == 0

    def test_upper_bound_and_witnesses_random(self):
        rng = random.Random(41)
        for _ in range(50):
            L = random_ample(rng)
            res = phi(L)
            assert res.value <= math.isqrt(L.square)
            check_phi_witness(L, res)

    def test_agrees_with_box_oracle_on_small_squares(self):
        rng = random.Random(42)
        checked = 0
        while checked < 12:
            L = random_ample(rng, spread=2, max_square=20)
            value = phi(L).value
            assert value == box_isotropic_minimum(L.num.coords)
            checked += 1


class TestMu:
    def test_triple_polarization_value(self, pair_two):
        e1, e2 = pair_two
        L = DivisorClass(3 * (e1 + e2), 0)
        res = mu(L)
        assert res.exact and res.value == 10  # B = E1 + E2 of degree 12
        w = res.witness
        assert w.square == 4
        assert chamber_phi(w.num) == 2
        assert w.num == e1 + e2

    def test_not_found_below_cap(self, pair_one):
        e1, e2 = pair_one
        res = mu(DivisorClass(2 * e1 + 4 * e2, 0), cap=6)
        assert not res.exact
        assert res.cap == 6

    def test_numerically_equal_class_rejected(self, pair_two):
        e1, e2 = pair_two
        L = DivisorClass(e1 + e2, 0)  # square 4, phi 2: L itself is a candidate shape
        res = mu(L)
        if res.exact:
            assert res.witness.num != L.num
            assert res.value >= 3  # degree 4 would force B numerically equal to L

    def _box_minimum(self, L, cap):
        """Smallest L.B - 2 over box-scanned B != L with B^2 = 4 and chamber
        phi(B) = 2, walking degrees upward so only the low strata are
        reduced."""
        by_degree = {}
        for coords in box_classes_with_square(L.num.coords, 4, cap):
            by_degree.setdefault(L.num.dot(num_class(coords)), []).append(coords)
        for deg in sorted(by_degree):
            if any(b != L.num.coords and chamber_phi(num_class(b)) == 2 for b in by_degree[deg]):
                return deg - 2
        return None

    def test_minimality_against_box_scan(self):
        L = divisor_class([3, 1] + [0] * 8)  # square 6
        res = mu(L, cap=12)
        assert res.exact
        assert self._box_minimum(L, 12) == res.value
        w = res.witness
        assert w.square == 4 and L.dot(w) == res.value + 2
        assert chamber_phi(w.num) == 2

    def test_not_found_matches_empty_box_scan(self):
        L = divisor_class([3, 1] + [0] * 8)
        res = mu(L)  # default cap 2 phi + 2 = 4 is below the degree floor
        assert not res.exact
        assert self._box_minimum(L, res.cap) is None


class TestMuFirstHit:
    def test_against_full_fiber_scan(self):
        """mu stops at its first admissible class; the full scan walks whole
        fibers (certified by theta counts) and tests the library's phi = 2."""
        rng = random.Random(51)
        classes = []
        while len(classes) < 6:
            L = num_class([rng.randint(-2, 2) for _ in range(10)])
            if L.coords[0] + L.coords[1] > 0 and 0 < L.square <= 10:
                classes.append((DivisorClass(L, 0), None))
        # L^2 = 2 whose whole fiber at t = 3 has phi(B) = 1
        classes.append((divisor_class((1, 2, 0, 0, 0, 1, 1, 1, 1, 1)), None))
        three_f_g = divisor_class([3, 1] + [0] * 8)
        classes += [(three_f_g, None), (three_f_g, 6)]
        first_rejected = not_found = 0
        for L, cap in classes:
            res = mu(L, cap)
            want = mu_full_scan(L, res.cap)
            if want is None:
                assert not res.exact
                not_found += 1
                continue
            assert res.exact and (res.value, res.witness.num.coords) == want
            fiber = ComplementLift(L.num).fiber(res.value + 2, 4)
            first_rejected += fiber[0].coords != want[1]
        assert first_rejected and not_found  # both paths of the search ran


class TestMuPoolGrowth:
    """mu tests phi(B) = 2 on the pool of isotropic fibers of degrees
    phi .. (t - phi) / 2."""

    def test_phi_one_candidates_start_at_three_phi(self):
        """The lemma in multiple_content: B^2 = 4 with phi(B) = 1 is 2E + F,
        E.B = 1 and E, F effective isotropic, so F.L >= phi(L), E.L <=
        (B.L - phi(L)) / 2 and B.L >= 3 phi(L), where mu's pool starts to
        fill."""
        seen = Counter()
        for _, _, L in structured_sweep(20):
            floor = phi(L).value
            lift = ComplementLift(L.num)
            for t in range(1, 2 * floor + 3):
                pool = [e for s in range(floor, (t - floor) // 2 + 1) for e in lift.fiber(s, 0)]
                for b in lift.fiber(t, 4):
                    value = chamber_phi(b)
                    seen[value] += 1
                    if value == 1:
                        assert t >= 3 * floor, (L.num.coords, b.coords)
                        assert any(e.dot(b) == 1 for e in pool), (L.num.coords, b.coords)
        assert seen == {1: 779, 2: 7131}


class TestCertificateChecks:
    def test_phi_witness_off_the_positive_cone(self, monkeypatch):
        flipped = lambda form: -reference_ample(form)
        monkeypatch.setattr(invariants, "reference_ample", flipped)
        with pytest.raises(CertificateError):
            phi(divisor_class([1, 2] + [0] * 8))

    def test_no_witness_at_the_chamber_degree(self, monkeypatch):
        # 3f + g: phi 1, mu 6; the kernel searches find nothing there.
        # phi is certified when the polarization is built, so mu's walk
        # meets the empty search on a warm class, and phi on a cold one
        L = divisor_class([3, 1] + [0] * 8)
        phi(L)
        monkeypatch.setattr(FiberSystem, "iter_solutions", lambda *a: iter(()))
        with pytest.raises(CertificateError, match=r"L.B = 8, .* \(3, 1, "):
            mu(L, 12)
        invariants.polarization.cache_clear()
        with pytest.raises(CertificateError, match=r"x.L = 1, .* \(3, 1, "):
            phi(L)

    def test_exceptional_pair_with_a_smaller_mu(self, monkeypatch, triple_one):
        # (L^2, phi) = (6, 2) is exceptional; mu = 2 would undercut the floor
        monkeypatch.setattr(
            invariants, "mu", lambda L, cap=None: MuResult(MU_EXACT, cap, 2)
        )
        e1, e2, e3 = triple_one
        with pytest.raises(CertificateError):
            gonality(DivisorClass(e1 + e2 + e3, 0))

    def test_mu_win_outside_the_classification(self, monkeypatch, pair_one):
        # (L^2, phi) = (16, 2): mu = 3 would undercut 2 phi = 4 and the
        # floor term 6 in no classified shape
        monkeypatch.setattr(
            invariants, "mu", lambda L, cap=None: MuResult(MU_EXACT, cap, 3)
        )
        e1, e2 = pair_one
        with pytest.raises(CertificateError, match="outside the known"):
            gonality(DivisorClass(2 * e1 + 4 * e2, 0))


class TestGonality:
    def test_mu_square_case(self, pair_two):
        e1, e2 = pair_two
        rep = gonality(DivisorClass(3 * (e1 + e2), 0))
        assert rep.k == 10 == rep.mu.value
        assert rep.case_label == CASE_MU_SQUARE
        assert rep.k == 2 * rep.phi.value - 2
        assert rep.genus == 19

    def test_generic_case(self, pair_one):
        e1, e2 = pair_one
        rep = gonality(DivisorClass(2 * e1 + 4 * e2, 0))
        assert rep.k == 4 == 2 * rep.phi.value
        assert rep.case_label == CASE_GENERIC
        assert rep.genus == 9
        assert rep.floor_term == 6

    def test_floor_exceptional_case(self, triple_one):
        e1, e2, e3 = triple_one
        rep = gonality(DivisorClass(e1 + e2 + e3, 0))
        assert (rep.genus - 1) * 2 == 6  # L^2 = 6
        assert rep.phi.value == 2
        assert rep.k == 3 == rep.floor_term == 2 * rep.phi.value - 1
        assert rep.case_label == CASE_FLOOR_EXCEPTIONAL

    def test_exceptional_identity_table(self):
        for sq, p in EXCEPTIONAL_SQUARE_PHI_PAIRS:
            assert sq // 4 + 2 == 2 * p - 1

    def test_square_plus_shape_small_phi(self, triple_iii):
        # (L^2, phi) = (10, 3): the Hodge bound (L.B)^2 >= 4 L^2 = 40 forces
        # L.B >= 7, so mu >= 5 while the floor term already gives k = 4
        e1, e2, e3 = triple_iii
        rep = gonality(DivisorClass(e1 + e2 + e3, 0))
        assert (rep.genus - 1) * 2 == 10
        assert rep.phi.value == 3
        assert rep.mu.exact and rep.mu.value == 5
        assert rep.k == 4 == rep.floor_term
        assert rep.case_label == CASE_FLOOR_PLAIN

    def test_square_plus_shape_phi_four(self, triple_iii):
        # (L^2, phi) = (18, 4): same Hodge phenomenon, L.B >= 9 so mu = 7
        # while the floor term gives k = 6 = 2 phi - 2
        e1, e2, e3 = triple_iii
        rep = gonality(DivisorClass(2 * e1 + e2 + e3, 0))
        assert (rep.genus - 1) * 2 == 18
        assert rep.phi.value == 4
        assert rep.mu.exact and rep.mu.value == 7
        assert rep.k == 6 == rep.floor_term == 2 * rep.phi.value - 2
        assert rep.case_label == CASE_FLOOR_PLAIN

    def test_square_plus_shape_large_phi(self, triple_iii):
        # (L^2, phi) = (28, 5): here mu = 2 phi - 1 = 9 is attainable and
        # ties the floor term, which is the classified square-plus case
        e1, e2, e3 = triple_iii
        rep = gonality(DivisorClass(2 * e1 + e2 + 2 * e3, 0))
        assert (rep.genus - 1) * 2 == 28
        assert rep.phi.value == 5
        assert rep.mu.exact and rep.mu.value == 9
        assert rep.k == 9 == 2 * rep.phi.value - 1
        assert rep.case_label == CASE_MU_SQUARE_PLUS
        assert any("2D exclusion" in note for note in rep.notes)

    def test_requires_ample(self, pair_one):
        # -L has positive square: building its lift first would not raise
        e1, e2 = pair_one
        for bad in (DivisorClass(basis_vector(0), 0), DivisorClass(-2 * e1 - 4 * e2, 0)):
            with pytest.raises(NotAmpleError):
                gonality(bad)
        assert invariants.polarization.cache_info().currsize == 0

    def test_gonality_bound_random(self):
        rng = random.Random(43)
        for _ in range(12):
            L = random_ample(rng)
            rep = gonality(L)
            assert rep.k <= (rep.genus + 3) // 2
            assert rep.k == min(
                [2 * rep.phi.value, rep.floor_term]
                + ([rep.mu.value] if rep.mu.exact else [])
            )


# Isometries of U + E8(-1) fixing f + g, as words in involutions: 0 swaps
# f and g, and k = 1..8 reflects in the simple root e = e_(k+2) of the
# E8(-1) block, x -> x + (x.e) e (e^2 = -2 and e.(f+g) = 0).  A word's
# inverse is the reversed word.
isometry_words = st.lists(st.integers(0, 8), min_size=1, max_size=8)


def apply_isometry(word, x):
    for gen in word:
        if gen == 0:
            x = NumClass((x.coords[1], x.coords[0]) + x.coords[2:], x.form)
        else:
            root = basis_vector(gen + 1, x.form)
            x = x + x.dot(root) * root
    return x


@st.composite
def small_ample(draw):
    """An ample class with L^2 <= 16: f and g coefficients in 1..4, the
    E8(-1) block in [-1, 1]."""
    coords = [draw(st.integers(1, 4)), draw(st.integers(1, 4))]
    coords += draw(st.lists(st.integers(-1, 1), min_size=8, max_size=8))
    L = num_class(coords)
    assume(0 < L.square <= 16)
    return DivisorClass(L, draw(st.integers(0, 1)))


class TestIsometryInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_ample(), isometry_words)
    def test_invariants_and_witnesses(self, L, word):
        a0 = reference_ample().num
        assert apply_isometry(word, a0) == a0
        image = DivisorClass(apply_isometry(word, L.num), L.torsion)
        rep, rep_image = gonality(L), gonality(image)
        assert rep_image.k == rep.k and rep_image.case_label == rep.case_label
        assert rep_image.phi.value == rep.phi.value
        assert (rep_image.mu.status, rep_image.mu.value, rep_image.mu.cap) == (
            rep.mu.status, rep.mu.value, rep.mu.cap
        )
        assert cohomology(image) == cohomology(L)
        # witnesses map to witnesses of the same degree, both ways
        for source, target, target_rep, w in (
            (rep, image, rep_image, word),
            (rep_image, L, rep, word[::-1]),
        ):
            e = apply_isometry(w, source.phi.witness.num)
            check_phi_witness(
                target, PhiResult(target_rep.phi.value, DivisorClass(e, 0))
            )
            if source.mu.exact:
                b = apply_isometry(w, source.mu.witness.num)
                assert b.square == 4 and b != target.num
                assert classify_positivity(DivisorClass(b, 0)).is_effective
                assert target.num.dot(b) - 2 == target_rep.mu.value
                assert chamber_phi(b) == 2
        # an isometry maps each fiber of L onto the image's fiber
        lift, lift_image = ComplementLift(L.num), ComplementLift(image.num)
        assert all(len(lift_image.fiber(t, s)) == len(lift.fiber(t, s))
                   for t in range(1, math.isqrt(L.square) + 2) for s in (0, 2, 4))


class TestClifford:
    def test_large_genus(self, pair_two):
        e1, e2 = pair_two
        assert clifford_generic(DivisorClass(3 * (e1 + e2), 0)) == 8

    def test_small_generic_case(self, pair_one):
        e1, e2 = pair_one
        assert clifford_generic(DivisorClass(2 * e1 + 4 * e2, 0)) == 2

    def test_genus_three_convention(self, pair_two):
        e1, e2 = pair_two
        with pytest.raises(GenusTooSmallError) as exc:
            clifford_generic(DivisorClass(e1 + e2, 0))
        assert exc.value.genus == 3
        assert exc.value.convention_value == exc.value.genus - 2  # = k - 2 here

    def test_genus_two_convention(self):
        a0 = reference_ample()
        with pytest.raises(GenusTooSmallError) as exc:
            clifford_generic(a0)  # square 2, genus 2, hyperelliptic
        assert exc.value.convention_value == 0


PATTERNS = {CONFIG_I: config_i, CONFIG_II: config_ii, CONFIG_III: config_iii}


def check_decomposition(L, dec):
    """dec rebuilds L from positive multiples of primitive, effective,
    isotropic generators whose Gram is the labelled pattern's."""
    total = None
    for gen, coeff in zip(dec.generators, dec.coefficients):
        assert coeff > 0
        assert gen.square == 0
        assert is_primitive(gen.num)
        assert classify_positivity(gen).is_effective
        part = coeff * gen.num
        total = part if total is None else total + part
    assert total == L.num
    gram = tuple(tuple(e.dot(f) for f in dec.generators) for e in dec.generators)
    assert gram == PATTERNS[dec.configuration](len(dec.generators)).gram_sub


class TestDecompose:
    def assert_valid(self, L, dec):
        check_decomposition(L, dec)

    def test_recovers_constructed_input(self, pair_one):
        e1, e2 = pair_one
        L = DivisorClass(2 * e1 + 4 * e2, 0)
        dec = decompose_isotropic(L)
        assert dec.configuration == "config-i"
        assert sorted(
            (g.num.coords, c) for g, c in zip(dec.generators, dec.coefficients)
        ) == sorted([(e1.coords, 2), (e2.coords, 4)])
        self.assert_valid(L, dec)

    def test_primitive_isotropic_is_its_own_decomposition(self, pair_one):
        e1, _ = pair_one
        dec = decompose_isotropic(DivisorClass(e1, 0))
        assert dec.generators == (DivisorClass(e1, 0),)
        assert dec.coefficients == (1,)
        assert dec.configuration == "config-i"

    def test_refuses_a_class_that_is_not_effective(self):
        with pytest.raises(NotAmpleEnoughError):
            decompose_isotropic(DivisorClass(-basis_vector(0), 0))

    def test_isotropic_multiple(self, pair_one):
        e1, _ = pair_one
        dec = decompose_isotropic(DivisorClass(2 * e1, 0))
        assert len(dec.generators) == 1
        assert dec.coefficients == (2,)
        assert dec.configuration == "config-i"

    def test_pair_meeting_in_two(self, pair_two):
        e1, e2 = pair_two
        L = DivisorClass(3 * (e1 + e2), 0)
        dec = decompose_isotropic(L)
        assert dec.configuration == "config-ii"
        assert dec.coefficients == (3, 3)
        self.assert_valid(L, dec)

    def test_pattern_gram_matches_label(self, triple_iii):
        e1, e2, e3 = triple_iii
        L = DivisorClass(e1 + e2 + e3, 0)
        dec = decompose_isotropic(L)
        self.assert_valid(L, dec)
        n = len(dec.generators)
        twos = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if dec.generators[i].dot(dec.generators[j]) == 2
        ]
        if dec.configuration == "config-ii":
            assert twos == [(0, 1)]
        elif dec.configuration == "config-iii":
            assert twos == [(0, 1), (0, 2)]
        else:
            assert twos == []

    def test_random_effective_classes(self):
        rng = random.Random(44)
        checked = 0
        while checked < 15:
            d = divisor_class([rng.randint(-2, 2) for _ in range(10)])
            st = classify_positivity(d)
            if not st.is_effective or d.square < 0 or d.square > 20:
                continue
            dec = decompose_isotropic(d)
            self.assert_valid(d, dec)
            assert dec == decompose_by_definition(d), d.num.coords
            checked += 1


class TestSolveCoefficients:
    @pytest.mark.parametrize(
        "edges, smallest", [((), 2), (((0, 1),), 2), (((0, 1), (0, 2)), 3)]
    )
    def test_pattern_grams_are_nonsingular(self, edges, smallest):
        # the search tries sets of 2..10 generators; patterns (i), (ii), (iii)
        for n in range(smallest, 11):
            assert integer_determinant(_pattern_gram(n, edges)) != 0

    def test_rebuilt_sum_is_checked(self, monkeypatch, triple_iii):
        # every searched slot drawn one degree up: the last slot's division
        # still rebuilds L, but the generators' pairings break, and the
        # recheck of the rebuilt sum and the pattern Gram raises on the
        # realization a level would return.  A slot at degree phi reads
        # phi's stored fiber, so phi is stored before the sabotage; on
        # E1 + E2 + E3 (phi 3) the first slot has degree 4
        real = ComplementLift.fiber

        def one_degree_up(self, t, square):
            return real(self, t + 1, square)

        e1, e2, e3 = triple_iii
        L = DivisorClass(e1 + e2 + e3, 0)
        assert phi(L).value == 3
        monkeypatch.setattr(ComplementLift, "fiber", one_degree_up)
        with pytest.raises(CertificateError, match="needs"):
            decompose_isotropic(L)


class TestDecomposeBudgets:
    def test_node_budget(self, monkeypatch, pair_two):
        # slot fills count: with free degree probes, one fill spends the budget
        e1, e2 = pair_two
        levels = invariants._levels
        monkeypatch.setattr(invariants, "_levels",
                            lambda pol, l_sq, _: levels(pol, l_sq, lambda: None))
        monkeypatch.setattr(invariants, "DECOMPOSE_MAX_NODES", 1)
        with pytest.raises(SearchExhaustedError, match="nodes"):
            decompose_isotropic(DivisorClass(3 * (e1 + e2), 0))

    def test_the_level_walk_counts_against_the_budget(self, monkeypatch):
        # f + 206g (phi 1): each degree probed is a step, so the probe of
        # degree 5 passes a budget of 5, after the lift is searched at
        # degrees 2 to 4 (phi's fiber is read when L's is built); no slot
        # is filled, as every shape has D^2 >= L^2 / 2 = 206
        L = divisor_class([1, 206] + [0] * 8)
        invariants.polarization(L.num)
        searched = []
        real = ComplementLift.fiber

        def recording(self, t, square):
            searched.append(t)
            return real(self, t, square)

        monkeypatch.setattr(ComplementLift, "fiber", recording)
        monkeypatch.setattr(invariants, "DECOMPOSE_MAX_NODES", 5)
        with pytest.raises(SearchExhaustedError,
                           match=r"L = \(1, 206, 0, 0, 0, 0, 0, 0, 0, 0\) exceeded 5 nodes"):
            decompose_isotropic(L)
        assert searched == [2, 3, 4]

    def test_no_pattern_realizes_the_class(self, monkeypatch, pair_two):
        # every polarization of U + E8(-1) has a decomposition, so here no
        # candidate counts as primitive: every level is walked, no slot is
        # filled, and the search ends with its own error
        monkeypatch.setattr(invariants, "is_primitive", lambda x: False)
        e1, e2 = pair_two
        with pytest.raises(SearchExhaustedError, match="no pattern"):
            decompose_isotropic(DivisorClass(3 * (e1 + e2), 0))


def combine(coeffs, gens):
    num = coeffs[0] * gens[0]
    for c, e in zip(coeffs[1:], gens[1:]):
        num = num + c * e
    return num


def family_members(config, max_square=40, coefficients=range(1, 4)):
    """(coefficients, L) for L = sum a_i E_i over one embedded configuration,
    every a_i in ``coefficients``, 0 < L^2 <= max_square."""
    gens = embed_configuration(config)
    for coeffs in itertools.product(coefficients, repeat=len(gens)):
        num = combine(coeffs, gens)
        if num.square <= max_square:
            yield coeffs, DivisorClass(num, 0)


#: The blocks of slots each pattern treats alike, by pattern and size.
SWEEP_BLOCKS = {
    "i": (config_i, 2, lambda n: [range(n)]),
    "ii": (config_ii, 2, lambda n: [range(2), range(2, n)]),
    "iii": (config_iii, 3, lambda n: [range(1), range(1, 3), range(3, n)]),
}


def structured_sweep(max_square):
    """(name, coefficients, L) for L = sum a_i E_i over the realization
    ``embed_configuration`` gives each pattern (i) n = 2..10, (ii) n = 2..10,
    (iii) n = 3..10, every a_i >= 1, a non-increasing inside each block of
    alike slots, L^2 <= max_square.  L^2 grows in every a_i, so a prefix
    completed by ones bounds its completions."""
    for name, (make, smallest, blocks) in SWEEP_BLOCKS.items():
        for n in range(smallest, 11):
            gens = embed_configuration(make(n))
            firsts = {b[0] for b in blocks(n) if len(b)}

            def extend(a):
                if len(a) == n:
                    yield f"{name}:{n}", tuple(a), DivisorClass(combine(a, gens), 0)
                    return
                x = 1
                while (len(a) in firsts or x <= a[-1]) and combine(
                    a + [x] + [1] * (n - len(a) - 1), gens
                ).square <= max_square:
                    yield from extend(a + [x])
                    x += 1

            yield from extend([])


#: Classes of pattern (iii) at L^2 = 56..58 on which a search over subsets
#: of the isotropic classes of degree <= L^2 exhausts a budget of 200,000
#: nodes, even with stage and residual cuts.
FORMERLY_EXHAUSTED = [
    (1, 3, 2, 2), (1, 3, 3, 1),
    (1, 2, 1, 2, 2), (1, 2, 2, 2, 1), (1, 3, 1, 2, 1), (1, 3, 2, 1, 1),
    (1, 1, 1, 2, 2, 1), (1, 2, 1, 2, 1, 1), (1, 3, 1, 1, 1, 1),
    (1, 1, 1, 2, 1, 1, 1),
]


class TestDecomposeCuts:
    """The coefficient-vector search, with its level bounds, slot identities
    and last-slot division, returns decompose's answer by its definition
    (``oracles.decompose_by_definition``): the least realization over a
    plain walk of the shapes, every slot filled by backtracking.  Every
    answer rebuilds L in its labelled pattern."""

    @staticmethod
    def check_against_the_definition(classes):
        checked = 0
        for L in classes:
            dec = decompose_isotropic(L)
            check_decomposition(L, dec)
            assert dec == decompose_by_definition(L), L.num.coords
            checked += 1
        return checked

    @pytest.mark.parametrize(
        "config, count",
        [(config_i(2), 9), (config_ii(2), 9), (config_i(3), 23), (config_ii(3), 20)],
        ids=["i:2", "ii:2", "i:3", "ii:3"],
    )
    def test_against_the_unpruned_search(self, config, count):
        members = (L for _, L in family_members(config))
        assert self.check_against_the_definition(members) == count

    def test_against_the_unpruned_search_on_iii3(self):
        members = (L for _, L in family_members(config_iii(3)))
        assert self.check_against_the_definition(members) == 17

    def test_structured_sweep_against_the_definition(self):
        classes = [L for _, _, L in structured_sweep(40)] + sweep_workload_classes()
        assert self.check_against_the_definition(classes) == 166 + 36

    @pytest.mark.slow
    def test_structured_sweep_against_the_definition_up_to_square_100(self):
        classes = (L for _, _, L in structured_sweep(100))
        assert self.check_against_the_definition(classes) == 1352

    @pytest.mark.parametrize("coeffs", FORMERLY_EXHAUSTED, ids=str)
    def test_formerly_exhausted_classes(self, coeffs):
        gens = embed_configuration(config_iii(len(coeffs)))
        L = DivisorClass(combine(coeffs, gens), 0)
        assert 56 <= L.square <= 58
        assert self.check_against_the_definition([L]) == 1

    def test_one_lift_search_per_degree(self, monkeypatch):
        # the shapes of iii:7 with all a_i = 1 share slot degrees: every
        # slot reads L's lift, searched at most once per degree in a call,
        # and no FiberSystem is built
        L = DivisorClass(combine([1] * 7, embed_configuration(config_iii(7))), 0)
        phi(L)  # the lift and phi's fiber are stored before counting
        builds, degrees = [], []
        real_set_up, real_fiber = FiberSystem._set_up, ComplementLift.fiber

        def building(self, classes):
            builds.append(len(classes))
            real_set_up(self, classes)

        def recording(self, t, square):
            degrees.append(t)
            return real_fiber(self, t, square)

        monkeypatch.setattr(FiberSystem, "_set_up", building)
        monkeypatch.setattr(ComplementLift, "fiber", recording)
        dec = decompose_isotropic(L)
        assert builds == []
        assert len(degrees) == len(set(degrees)) > 0
        check_decomposition(L, dec)
        assert dec == decompose_by_definition(L)

    @pytest.mark.parametrize("coeffs", [(3, 2, 1), (3, 1, 2)])
    def test_square_forty_members_of_iii3(self, triple_iii, coeffs):
        e1, e2, e3 = triple_iii
        L = DivisorClass(coeffs[0] * e1 + coeffs[1] * e2 + coeffs[2] * e3, 0)
        assert L.square == 40
        dec = decompose_isotropic(L)
        assert dec.configuration == "config-iii"
        assert dec.coefficients == (3, 2, 1)
        a, b, c = (g.num for g in dec.generators)
        assert 3 * a + 2 * b + c == L.num


def sweep_workload_classes():
    """The 36 classes of the benchmark's ``sweep`` workload."""
    from test_golden import GOLDEN, workloads

    classes = [item.payload for item in workloads.build_items("sweep", GOLDEN)]
    assert len(classes) == 36
    return classes


def floor_classes():
    """The 89 structured-sweep classes with L^2 <= 30 and the 36 classes of
    the benchmark's ``sweep`` workload."""
    classes = [L for _, _, L in structured_sweep(30)]
    assert len(classes) == 89
    return classes + sweep_workload_classes()


class Probed(Exception):
    """The level walk asked for a step past the degree it may probe."""


class TestLevels:
    """``invariants._levels(pol, L^2, spend)`` yields, level by level up to
    the degree of L's decomposition, the shapes of the plain walk
    ``oracles._oracle_shapes``, which has none of its bounds, whose degrees
    all lie in P(L): the degrees t at which a fresh lift of L has a
    primitive isotropic class."""

    @staticmethod
    def check(classes):
        for L in classes:
            top = max(e.dot(L) for e in decompose_isotropic(L).generators)
            lift = ComplementLift(L.num)
            degrees = {t for t in range(1, top + 1)
                       if any(is_primitive(x) for x in lift.fiber(t, 0))}
            want = [{s for s in level if set(s[2]) <= degrees}
                    for level in _oracle_shapes(L.square)]
            pol = invariants.polarization(L.num)
            probes = iter(range(top - pol.phi.value + 1))  # one per degree

            def spend():
                if next(probes, None) is None:
                    raise Probed

            got = []  # the walk stops at its degree bound or past top
            with contextlib.suppress(Probed):
                for level in invariants._levels(pol, L.square, spend):
                    got.append({(p.label, tuple(a), tuple(delta)) for p, _, a, delta in level})
            assert got == [level for level in want if level], L.num.coords

    def test_against_the_plain_walk(self):
        # at L^2 = 56, pattern (iii) has shapes whose largest degree is
        # delta_0 and shapes whose a_2 the bounds must keep >= 1
        self.check(floor_classes() + [L for _, _, L in structured_sweep(56) if L.square == 56])

    @pytest.mark.slow
    def test_against_the_plain_walk_up_to_square_100(self):
        self.check([L for _, _, L in structured_sweep(100)])


class TestIsotropicFloor:
    """phi is x_red.f, certified on its one fiber, the stored
    ``Polarization.isotropic(phi)``: mu's pool starts from it, and
    decompose skips the shapes below phi and draws every slot at degree
    phi from it."""

    def test_mu_searches_no_degree_phi_has_settled(self, monkeypatch):
        degrees = []
        real = ComplementLift.fiber

        def recording(self, t, square):
            degrees.append(t)
            return real(self, t, square)

        monkeypatch.setattr(ComplementLift, "fiber", recording)
        above = 0
        for L in floor_classes():
            value = phi(L).value
            degrees.clear()
            mu(L, 2 * value + 6)
            assert all(t > value for t in degrees), (L.num.coords, value, degrees)
            above += len(degrees)
        assert above  # the pool still searches the degrees above phi

    def test_decompose_searches_no_slot_at_degree_phi(self, monkeypatch):
        # iii:7 with all a_i = 1 (phi 6): the slots at degree phi read
        # phi's stored fiber, the shapes below phi are skipped, and the
        # slots above it read L's lift, searched at most once per degree
        L = DivisorClass(combine([1] * 7, embed_configuration(config_iii(7))), 0)
        value = phi(L).value
        assert value == 6
        searched = []
        real = ComplementLift.fiber

        def recording(self, t, square):
            searched.append(t)
            return real(self, t, square)

        monkeypatch.setattr(ComplementLift, "fiber", recording)
        dec = decompose_isotropic(L)
        check_decomposition(L, dec)
        assert searched and value not in searched
        assert len(searched) <= 2


class TestStoredIsotropicFibers:
    """Every isotropic fiber of L's lift is searched at most once per class
    and kept with its Polarization (``Polarization.isotropic``): phi's
    fiber, mu's pool and decompose's slots all read it."""

    def test_each_degree_searched_once(self, monkeypatch):
        # gonality, predict_w1d, decompose and a raised-cap mu on one class,
        # from a cold cache; mu at cap + 8 reads its pool from degrees
        # that decompose may have searched already
        searched = Counter()
        real = ComplementLift.fiber

        def counting(self, t, square):
            if square == 0:
                searched[self.L.coords, t] += 1
            return real(self, t, square)

        monkeypatch.setattr(ComplementLift, "fiber", counting)
        classes = [L for _, _, L in structured_sweep(40)]
        assert len(classes) == 166
        for L in classes + sweep_workload_classes():
            invariants.polarization.cache_clear()
            searched.clear()
            rep = gonality(L)
            predict_w1d(L)
            decompose_isotropic(L)
            mu(L, rep.mu.cap + 8)
            assert searched and max(searched.values()) == 1, (L.num.coords, searched)

    def test_stored_fibers_equal_fresh_searches(self):
        classes = floor_classes()
        held = 0
        for L in classes:
            value = phi(L).value
            decompose_isotropic(L)
            mu(L, 2 * value + 6)
            pol = invariants.polarization(L.num)
            assert not any(pol.isotropic(t) for t in range(1, value))
            assert all(is_primitive(x) for x in pol.isotropic(value))
            fresh = ComplementLift(L.num)
            for t, fiber in pol._isotropic.items():
                assert isinstance(fiber, tuple) and pol.isotropic(t) is fiber
                assert fiber == tuple(fresh.fiber(t, 0)), (L.num.coords, t)
            held += len(pol._isotropic)
        assert held > 2 * len(classes)


#: Isometries fixing f + g (see ``apply_isometry``) for the images below.
FIXED_WORDS = [(0,), (1, 3), (2, 0, 5), (8, 7, 6, 0), (4, 1, 4, 2)]


class TestMultipleContent:
    """``multiple_content`` decides the plane-cover family and the L = 2D
    exclusion by arithmetic, from L's own phi; it equals its definition,
    with phi read off the primitive part's chamber reduction
    (``oracles.multiple_content_of_primitive_part``)."""

    @staticmethod
    def check(L):
        """(plane-cover family, L = 2D with D^2 = 10 and phi(D) = 3)."""
        return multiple_content(L, 4, 2) >= 3, multiple_content(L, 10, 3) == 2

    def test_structured_sweep(self):
        classes = [L for _, _, L in structured_sweep(40)]
        assert len(classes) == 166
        found = Counter(self.check(L) for L in classes)
        # 3(E1 + E2) on ii:2, and 2(E1 + E2 + E3) on iii:3
        assert found == {(False, False): 164, (True, False): 1, (False, True): 1}

    def test_multiples_of_the_plane_cover_and_their_images(self, pair_two):
        e1, e2 = pair_two
        for n in range(1, 9):
            for word in [()] + FIXED_WORDS:
                L = DivisorClass(apply_isometry(word, n * (e1 + e2)), 0)
                assert multiple_content(L, 4, 2) == n
                assert self.check(L) == (n >= 3, False)

    def test_negative_controls(self, pair_one, pair_two):
        # B = 2E1' + E2' on i:2 has B^2 = 4 and phi(B) = 1
        f1, f2 = pair_one
        for c in range(1, 6):
            L = DivisorClass(c * (2 * f1 + f2), 0)
            assert multiple_content(L, 4, 2) == 0
            assert self.check(L) == (False, False)
        e1, e2 = pair_two
        L = DivisorClass(2 * (e1 + e2), 0)
        assert multiple_content(L, 4, 2) == 2
        assert self.check(L) == (False, False)

    def test_primitive_part_oracle_on_the_sweep_and_its_images(self):
        # each class of L^2 <= 100 and its images, at both pairs the
        # library asks for; a class of content c >= 2 also at the pair of
        # its primitive part B, where the answer is c, and at B^2 with
        # phi(B) + 1, where it is 0
        answers = Counter()
        for _, _, L0 in structured_sweep(100):
            for word in [()] + FIXED_WORDS:
                L = DivisorClass(apply_isometry(word, L0.num), 0)
                pairs = [(4, 2), (10, 3)]
                c, b = content(L.num)
                if c > 1:
                    value = chamber_phi(b)
                    pairs += [(b.square, value), (b.square, value + 1)]
                for square, value in pairs:
                    got = multiple_content(L, square, value)
                    assert got == multiple_content_of_primitive_part(L, square, value), (
                        L.num.coords, square, value)
                    answers[got] += 1
        assert answers == {0: 16632, 1: 12, 2: 342, 3: 90, 4: 36, 5: 24, 6: 6, 7: 6}

    def test_twice_a_square_ten_class(self):
        halves = {
            L.num: phi(L).value
            for _, _, L in structured_sweep(10) if L.square == 10
        }
        assert sorted(halves.values()) == [1, 2, 3]
        for D, value in halves.items():
            for word in [()] + FIXED_WORDS:
                L = DivisorClass(2 * apply_isometry(word, D), 0)
                assert multiple_content(L, 10, value) == 2
                assert self.check(L) == (False, value == 3)


#: The T_{2,3,7} edges on CHAMBER_ROOTS (alpha_{-1}, alpha_0, alpha_8, ...,
#: alpha_1): arms of six, two and one nodes joined to alpha_4 (index 6).
T237_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 9), (6, 8)}


class TestChamberOracle:
    """phi(L) = x_red.f and mu(L) = x_red.B0 - 2 (3 on B0's orbit), read
    off ``lattice.chamber_reduce``, against searches that never reduce a
    class: the least degree with an isotropic class and mu's earlier
    degree walk (``degree_walks``), one walk each per class."""

    def test_roots_and_b0(self):
        # the negated Cartan matrix of T_{2,3,7}; B0 is the weight of
        # alpha_1; the Weyl vector of chamber_reduce's termination proof
        roots = [num_class(r) for r in CHAMBER_ROOTS]
        assert [[r.dot(s) for s in roots] for r in roots] == [
            [-2 if i == j else int((i, j) in T237_EDGES or (j, i) in T237_EDGES)
             for j in range(10)] for i in range(10)
        ]
        b0 = num_class(B0)
        assert (b0.square, b0.dot(F)) == (4, 2)
        assert [b0.dot(r) for r in roots] == [0] * 9 + [1]
        assert chamber_reduce(b0) == b0
        rho, kernel = solve_integer_linear([r.form.apply(r.coords) for r in roots], [1] * 10)
        rho = num_class(rho)
        assert kernel == [] and (rho.square, rho.dot(F + basis_vector(1))) == (1240, 61)

    def test_reduced_classes_lie_in_the_chamber_and_ignore_isometries(self):
        roots = [num_class(r) for r in CHAMBER_ROOTS]
        for _, _, L in structured_sweep(100):
            x_red = chamber_reduce(L.num)
            assert all(x_red.dot(r) >= 0 for r in roots)
            for word in FIXED_WORDS:
                image = apply_isometry(word, L.num)
                assert chamber_reduce(image) == x_red, (L.num.coords, word)

    @pytest.mark.parametrize(
        "coords", [(-3, -1) + (0,) * 8, F.coords, CHAMBER_ROOTS[2], tuple(-c for c in B0)]
    )
    def test_refuses_a_class_outside_the_positive_cone(self, coords):
        # before its first reflection, so it cannot loop
        with pytest.raises(NotAmpleEnoughError, match="positive cone"):
            chamber_reduce(num_class(coords))

    def test_refuses_another_form(self, monkeypatch):
        # B0's coordinates in U(2) + E8(-1), of square 12, and f + g in
        # U(3): the reduction, and phi, mu and decompose, which read it,
        # refuse before any fiber is searched
        gram = [list(row) for row in canonical_form().gram]
        gram[0][1] = gram[1][0] = 2
        u2 = IntersectionForm(10, tuple(map(tuple, gram)))
        u3 = IntersectionForm(2, ((0, 3), (3, 0)))
        monkeypatch.setattr(ComplementLift, "fiber", lambda *a: pytest.fail("searched"))
        for x in (NumClass(B0, u2), NumClass((1, 1), u3)):
            assert x.square > 0
            for call in (chamber_reduce, phi, mu, decompose_isotropic):
                with pytest.raises(FormMismatchError, match="canonical_form"):
                    call(x if call is chamber_reduce else DivisorClass(x, 0))

    @staticmethod
    def check(L, caps):
        """phi(L), and mu(L, cap) for each cap of ``caps(phi)``, have the
        degree walks' status, value and witness; the Counter of exact
        answers."""
        (value, witness), walked = degree_walks(L, caps)
        assert phi(L) == PhiResult(value, divisor_class(witness)), L.num.coords
        found = Counter()
        for cap, want in walked:
            res = mu(L, cap)
            if want is None:
                assert res == MuResult(MU_NOT_FOUND, cap), (L.num.coords, cap)
            else:
                assert res == MuResult(MU_EXACT, cap, want[0], divisor_class(want[1])), (
                    L.num.coords, cap)
            found[want is not None] += 1
        return found

    def test_phi_and_mu_on_the_sweep(self):
        # caps 2 phi + 2, 2 phi + 10 and 3 on every class of L^2 <= 100
        found = Counter()
        for _, _, L in structured_sweep(100):
            found += self.check(L, lambda value: (2 * value + 2, 2 * value + 10, 3))
        assert found == {True: 943, False: 3113}

    def test_mu_on_the_pairs_of_the_pool_tests(self):
        # the pairs that checked mu against its earlier pool searches:
        # sampled classes at 2 phi + 2 or + 6, 3f + g (mu = 6) at caps 4, 7
        # and 8, and the floor classes (B0 among them) at 2 phi + 2 and + 6
        caps = {divisor_class([3, 1] + [0] * 8): [4, 7, 8]}
        rng = random.Random(52)
        for i in range(24):
            L = random_ample(rng, max_square=24)
            caps.setdefault(L, []).append(2 * chamber_phi(L.num) + (6 if i % 2 else 2))
        for L in floor_classes():
            cap = 2 * chamber_phi(L.num) + 2
            caps.setdefault(L, []).extend((cap, cap + 4))
        found = Counter()
        for L, wanted in caps.items():
            found += self.check(L, lambda _: wanted)
        assert found == {True: 155, False: 122}


class TestDecomposeShape:
    def test_an_orbit_invariant(self):
        # (max E.L, n, configuration, sorted coefficients) is one value on
        # each W(E10)-orbit, grouped by x_red
        shapes = {}
        classes = [L for _, _, L in structured_sweep(60)]
        for L in classes:
            dec = decompose_isotropic(L)
            shape = (max(e.dot(L) for e in dec.generators), len(dec.generators),
                     dec.configuration, sorted(dec.coefficients))
            assert shapes.setdefault(chamber_reduce(L.num), shape) == shape, L.num.coords
        assert (len(classes), len(shapes)) == (399, 242)


def cached_answers(L):
    """(name, call) for every answer a Polarization caches for L."""

    def clifford():
        try:
            return clifford_generic(L)
        except GenusTooSmallError as ex:
            return "convention", ex.convention_value

    rep = gonality(L)
    calls = [("gonality", lambda: gonality(L)), ("clifford", clifford),
             ("predict", lambda: predict_w1d(L))]
    calls += [(f"destab d={d}", lambda d=d: enumerate_destab(L, d))
              for d in range(rep.k, rep.genus - rep.k + 1)]
    return calls


class TestPolarizationCache:
    def test_equal_classes_share_one_object_and_report(self):
        L = divisor_class([2, 4] + [0] * 8)
        pol = invariants.polarization(L.num)
        assert invariants.polarization(num_class([2, 4] + [0] * 8)) is pol
        assert gonality(L) is pol.report
        assert gonality(divisor_class([2, 4] + [0] * 8)) is pol.report

    def test_plane_cover_test_builds_no_polarization_but_l(self, pair_two):
        # the plane-cover test reads phi(L) = 3 phi(E1 + E2); no
        # Polarization of E1 + E2 is built
        e1, e2 = pair_two
        pred = predict_w1d(DivisorClass(3 * (e1 + e2), 0))
        assert pred.infinite_pencil
        assert invariants.polarization.cache_info().currsize == 1

    def test_constructor_refuses_before_it_builds(self, monkeypatch):
        # -(f + g) has positive square and f has square 0; neither gets a
        # lift, and neither is kept
        built = []
        monkeypatch.setattr(invariants, "ComplementLift", lambda *a: built.append(a))
        f, g = basis_vector(0), basis_vector(1)
        for bad in (-(f + g), f):
            with pytest.raises(NotAmpleEnoughError):
                invariants.polarization(bad)
        assert built == []
        assert invariants.polarization.cache_info().currsize == 0

    def test_torsion_twist_shares_it(self):
        L = divisor_class([2, 4] + [0] * 8)
        rep = gonality(L)
        before = invariants.polarization.cache_info()
        assert gonality(DivisorClass(L.num, 1)) is rep
        after = invariants.polarization.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)

    def test_another_form_is_refused_before_it_builds(self, monkeypatch):
        # f + g's coordinates in U(2) + E8(-1), of square 4: no lift is
        # built, and nothing is kept
        built = []
        monkeypatch.setattr(invariants, "ComplementLift", lambda *a: built.append(a))
        gram = [list(row) for row in canonical_form().gram]
        gram[0][1] = gram[1][0] = 2
        other = IntersectionForm(10, tuple(map(tuple, gram)))
        L = NumClass((1, 1) + (0,) * 8, other)
        assert L.square == 4
        with pytest.raises(FormMismatchError, match="canonical_form"):
            invariants.polarization(L)
        assert built == []
        assert invariants.polarization.cache_info().currsize == 0

    def test_bound_plus_one_classes_rebuild_the_first(self):
        classes = [num_class([1, b] + [0] * 8) for b in range(1, POLARIZATION_CACHE_SIZE + 2)]
        pols = [invariants.polarization(L) for L in classes]
        assert invariants.polarization(classes[-1]) is pols[-1]
        assert invariants.polarization(classes[0]) is not pols[0]

    def test_cold_gonality_calls_mu_once(self, monkeypatch):
        calls = []

        def counting_mu(L, cap=None, real=invariants.mu):
            calls.append(cap)
            return real(L, cap)

        monkeypatch.setattr(invariants, "mu", counting_mu)
        L = divisor_class([2, 4] + [0] * 8)
        rep = gonality(L)
        assert calls == [2 * rep.phi.value + 2]
        assert gonality(L) is rep
        clifford_generic(L)
        predict_w1d(L)
        enumerate_destab(L, rep.k)
        assert len(calls) == 1

    def test_warm_answers_equal_cold_ones(self, pair_one):
        rng = random.Random(44)
        classes = [random_ample(rng, max_square=16) for _ in range(24)]
        classes += [divisor_class([a, b] + [0] * 8)
                    for a, b in ((1, 6), (1, 8), (1, 10), (2, 5), (3, 4))]
        e1, e2 = pair_one
        classes.append(DivisorClass(2 * e1 + 4 * e2, 0))
        for L in classes:
            calls = cached_answers(L)
            cold = []
            for _, call in calls:
                invariants.polarization.cache_clear()
                cold.append(call())
            misses = invariants.polarization.cache_info().misses
            warm = [call() for _, call in calls]
            assert invariants.polarization.cache_info().misses == misses
            for (name, _), c, w in zip(calls, cold, warm):
                assert w == c, f"{name} of {L.num.coords}"


class TestConcurrency:
    def test_shared_state_free_under_threads(self, pair_one, pair_two):
        # values are immutable and the one cache holds answers fixed by their
        # key, so concurrent calls over shared inputs must agree with the
        # sequential answers
        from concurrent.futures import ThreadPoolExecutor

        e1, e2 = pair_one
        f1, f2 = pair_two
        inputs = [
            DivisorClass(2 * e1 + 4 * e2, 0),
            DivisorClass(3 * (f1 + f2), 0),
            DivisorClass(e1 + e2, 0),
            DivisorClass(2 * f1 + 2 * f2, 0),
        ] * 3
        expected = [gonality(L).k for L in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda L: gonality(L).k, inputs))
        assert got == expected

    def test_lift_cache_thrashed_across_threads(self, pair_one):
        # every call on one class shares its Polarization; with the cache
        # cleared, more threads than cores race to build each object and
        # its report
        import sys
        from concurrent.futures import ThreadPoolExecutor

        e1, e2 = pair_one
        cases = [
            (DivisorClass(2 * e1 + 4 * e2, 0), 5),
            (divisor_class([1, 6] + [0] * 8), 4),
            (divisor_class([2, 5] + [0] * 8), 6),
            (divisor_class([3, 4] + [0] * 8), 7),
        ]
        calls = [(phi, L) for L, _ in cases]
        calls += [(mu, L) for L, _ in cases]
        calls += [(decompose_isotropic, L) for L, _ in cases]
        calls += [(enumerate_destab, L, d) for L, d in cases]
        calls += [(fn, L) for fn in (gonality, clifford_generic, predict_w1d) for L, _ in cases]
        calls *= 3
        expected = [fn(*args) for fn, *args in calls]
        invariants.polarization.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fn, *args) for fn, *args in calls]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
