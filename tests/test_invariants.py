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
    POLARIZATION_CACHE_SIZE,
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
    CONFIG_I,
    CONFIG_II,
    CONFIG_III,
    DivisorClass,
    IntersectionForm,
    NumClass,
    _pattern_gram,
    basis_vector,
    canonical_form,
    config_i,
    config_ii,
    config_iii,
    content,
    divisor_class,
    embed_configuration,
    integer_determinant,
    is_primitive,
    num_class,
)
from enriques_bn.positivity import classify_positivity, cohomology, reference_ample
from enriques_bn.shortvec import ComplementLift, FiberSystem
from oracles import (
    box_classes_with_square,
    box_isotropic_minimum,
    decompose_prefix_systems,
    decompose_subset_search,
    mu_full_scan,
    mu_searched_pool,
    mu_whole_pool,
    multiple_content_of_primitive_part,
    pencil_family_by_decomposition,
    twice_d10_by_parity,
)


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
        assert phi(w).value == 2
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
        """Smallest L.B - 2 over box-scanned B with B^2 = 4 and phi(B) = 2,
        walking degrees upward so only the low strata need phi checks."""
        by_degree = {}
        for coords in box_classes_with_square(L.num.coords, 4, cap):
            b = divisor_class(coords)
            by_degree.setdefault(L.dot(b), []).append(b)
        for deg in sorted(by_degree):
            for b in by_degree[deg]:
                if b.num != L.num and phi(b).value == 2:
                    return deg - 2
        return None

    def test_minimality_against_box_scan(self):
        L = divisor_class([3, 1] + [0] * 8)  # square 6
        res = mu(L, cap=12)
        assert res.exact
        assert self._box_minimum(L, 12) == res.value
        w = res.witness
        assert w.square == 4 and phi(w).value == 2 and L.dot(w) == res.value + 2

    def test_not_found_matches_empty_box_scan(self):
        L = divisor_class([3, 1] + [0] * 8)
        res = mu(L)  # default cap 2 phi + 2 = 4 is below the degree floor
        assert not res.exact
        assert self._box_minimum(L, res.cap) is None


class TestMuFirstHit:
    def test_against_full_fiber_scan(self):
        """mu stops at its first admissible class; the full scan sorts whole
        fibers and tests phi(B) = 2 directly."""
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
    """mu extends its isotropic pool with the degree it scans and skips the
    degrees below the Hodge bound; the oracles build the cap's whole pool
    first, or test phi(B) = 2 on whole fibers."""

    def test_against_whole_pool(self):
        rng = random.Random(52)
        cases = []
        for i in range(24):
            L = random_ample(rng, max_square=24)
            cases.append((L, 2 * phi(L).value + (6 if i % 2 else 2)))
        # mu(3f + g) = 6 at degree 8: not found below caps 4 and 7
        three_f_g = divisor_class([3, 1] + [0] * 8)
        cases += [(three_f_g, 4), (three_f_g, 7), (three_f_g, 8)]
        found = not_found = 0
        for L, cap in cases:
            res = mu(L, cap)
            assert res == mu_whole_pool(L, cap)
            found += res.exact
            not_found += not res.exact
        assert found and not_found

    def test_against_full_fiber_scan_at_raised_caps(self):
        rng = random.Random(53)
        for _ in range(6):
            L = random_ample(rng, max_square=12)
            res = mu(L, 2 * phi(L).value + 6)
            want = mu_full_scan(L, res.cap)
            assert res.exact == (want is not None)
            if want is not None:
                assert (res.value, res.witness.num.coords) == want

    def test_raised_caps_keep_the_value_and_witness(self):
        L = divisor_class([3, 1] + [0] * 8)
        base = mu(L, 12)
        assert base.exact and base.value == 6
        for cap in (28, 40):
            res = mu(L, cap)
            assert (res.status, res.value, res.witness) == (
                base.status, base.value, base.witness
            )

    def test_phi_one_candidates_start_at_three_phi(self):
        """The lemma in multiple_content: B^2 = 4 with phi(B) = 1 is 2E + F,
        E phi's witness and F effective isotropic, so F.L >= phi(L) and
        B.L >= 3 phi(L), where mu's pool starts to fill."""
        seen = Counter()
        for _, _, L in structured_sweep(20):
            floor = phi(L).value
            lift = ComplementLift(L.num)
            for t in range(1, 2 * floor + 3):
                for b in lift.fiber(t, 4):
                    r = phi(DivisorClass(b, 0))
                    seen[r.value] += 1
                    if r.value == 1:
                        f = b - 2 * r.witness.num
                        assert f.square == 0 and f.dot(L.num) >= floor
                        assert t >= 3 * floor, (L.num.coords, b.coords)
        assert seen == {1: 779, 2: 7131}


class TestCertificateChecks:
    def test_phi_witness_off_the_positive_cone(self, monkeypatch):
        flipped = lambda form: -reference_ample(form)
        monkeypatch.setattr(invariants, "reference_ample", flipped)
        with pytest.raises(CertificateError):
            phi(divisor_class([1, 2] + [0] * 8))

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
                assert phi(DivisorClass(b, 0)).value == 2


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
        e1, e2 = pair_two
        monkeypatch.setattr(invariants, "DECOMPOSE_MAX_NODES", 1)
        with pytest.raises(SearchExhaustedError, match="nodes"):
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


#: Classes of pattern (iii) at L^2 = 56..58 on which the subset search
#: exhausted its node budget.
FORMERLY_EXHAUSTED = [
    (1, 3, 2, 2), (1, 3, 3, 1),
    (1, 2, 1, 2, 2), (1, 2, 2, 2, 1), (1, 3, 1, 2, 1), (1, 3, 2, 1, 1),
    (1, 1, 1, 2, 2, 1), (1, 2, 1, 2, 1, 1), (1, 3, 1, 1, 1, 1),
    (1, 1, 1, 2, 1, 1, 1),
]


class TestDecomposeCuts:
    """The coefficient-vector search returns what the subset search with its
    stage and residual cuts returned (``oracles.decompose_subset_search``),
    and every answer rebuilds L in its labelled pattern."""

    @staticmethod
    def check_against_the_subset_search(classes):
        checked = 0
        for L in classes:
            dec = decompose_isotropic(L)
            check_decomposition(L, dec)
            assert dec == decompose_subset_search(L)
            checked += 1
        return checked

    @pytest.mark.parametrize(
        "config, count",
        [(config_i(2), 9), (config_ii(2), 9), (config_i(3), 23), (config_ii(3), 20)],
        ids=["i:2", "ii:2", "i:3", "ii:3"],
    )
    def test_against_the_unpruned_search(self, config, count):
        members = (L for _, L in family_members(config))
        assert self.check_against_the_subset_search(members) == count

    def test_against_the_unpruned_search_on_iii3(self):
        # (3, 2, 1) and (3, 1, 2) at L^2 = 40 take the subset search 9e4 nodes
        members = (L for _, L in family_members(config_iii(3)))
        assert self.check_against_the_subset_search(members) == 17

    def test_structured_sweep_against_the_subset_search(self):
        classes = (L for _, _, L in structured_sweep(30))
        assert self.check_against_the_subset_search(classes) == 89

    @pytest.mark.parametrize("coeffs", FORMERLY_EXHAUSTED, ids=str)
    def test_formerly_exhausted_classes(self, coeffs):
        gens = embed_configuration(config_iii(len(coeffs)))
        L = DivisorClass(combine(coeffs, gens), 0)
        assert 56 <= L.square <= 58
        dec = decompose_isotropic(L)
        check_decomposition(L, dec)

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
        assert dec == decompose_subset_search(L)

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


class TestOneSlotSource:
    """Every decompose slot reads L's lift fiber, filtered on primitivity
    and the pattern pairings; it finds what the per-prefix FiberSystems
    with phi's fiber at degree phi found (``oracles.decompose_prefix_systems``)."""

    def test_against_the_prefix_systems(self):
        classes = [L for _, _, L in structured_sweep(40)]
        assert len(classes) == 166
        for L in classes + sweep_workload_classes():
            assert decompose_isotropic(L) == decompose_prefix_systems(L), L.num.coords


class TestIsotropicFloor:
    """phi is searched once per class (``Polarization.isotropic_floor``),
    and its fiber is the stored ``Polarization.isotropic(phi)``: mu's pool
    starts from it, and decompose skips the shapes below phi and draws
    every slot at degree phi from it."""

    def test_nothing_below_phi_and_all_primitive_at_it(self):
        for L in floor_classes():
            lift = ComplementLift(L.num)
            value = phi(L).value
            assert not any(lift.fiber(t, 0) for t in range(1, value))
            at_phi = lift.fiber(value, 0)
            assert at_phi and all(is_primitive(x) for x in at_phi)
            pol = invariants.polarization(L.num)
            assert pol.isotropic_floor == value
            assert pol.isotropic(value) == tuple(at_phi)

    def test_mu_against_the_searched_pool(self):
        found = not_found = 0
        for L in floor_classes():
            cap = 2 * phi(L).value + 2
            for c in (cap, cap + 4):
                res = mu(L, c)
                assert res == mu_searched_pool(L, c), (L.num.coords, c)
                found += res.exact
                not_found += not res.exact
        assert found and not_found

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
    degree loop, mu's pool and decompose's slots all read it."""

    def test_each_degree_searched_once(self, monkeypatch):
        # gonality, predict_w1d, decompose and a raised-cap mu on one class,
        # from a cold cache; mu at cap + 8 extends its pool over degrees
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
    exclusion by arithmetic; it agrees with the tests it replaced, the
    ``decompose_isotropic`` answer and the coordinate parity
    (``oracles.pencil_family_by_decomposition``, ``twice_d10_by_parity``)."""

    @staticmethod
    def check(L):
        family = multiple_content(L, 4, 2) >= 3
        assert family == pencil_family_by_decomposition(L), L.num.coords
        twice = multiple_content(L, 10, 3) == 2
        assert twice == twice_d10_by_parity(L), L.num.coords
        return family, twice

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
                    value = phi(DivisorClass(b, 0)).value
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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(-1, 1), min_size=8, max_size=8),
    )
    def test_equal_coordinates_in_another_form_get_their_own_object(self, a, b, rest):
        canonical = canonical_form()
        gram = [list(row) for row in canonical.gram]
        gram[0][1] = gram[1][0] = 2
        other = IntersectionForm(10, tuple(map(tuple, gram)))  # U(2) + E8(-1)
        coords = (a, b, *rest)
        L = NumClass(coords, canonical)
        assume(L.square > 0)  # then the square in U(2) + E8(-1) is L^2 + 2ab
        pols = [invariants.polarization(M) for M in (L, NumClass(coords, other), L)]
        assert pols[0] is pols[2] and pols[1] is not pols[0]
        for pol in pols:
            M, lift = pol.L, pol.lift
            assert lift.L == M and lift.form == M.form
            assert lift._entries == ComplementLift(M)._entries
            t = lift.degree_step
            assert all(x.form == M.form and x.dot(M) == t for x in lift.fiber(t, 0))

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
