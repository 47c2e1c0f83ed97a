import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques_bn import invariants
from enriques_bn.brill_noether import enumerate_destab
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
    MuResult,
    PhiResult,
    _normalize_decomposition,
    _solve_coefficients,
    clifford_generic,
    decompose_isotropic,
    gonality,
    mu,
    phi,
)
from enriques_bn.lattice import (
    DivisorClass,
    NumClass,
    _pattern_gram,
    basis_vector,
    config_i,
    config_ii,
    config_iii,
    divisor_class,
    embed_configuration,
    integer_determinant,
    is_primitive,
    num_class,
)
from enriques_bn.positivity import classify_positivity, cohomology, reference_ample
from enriques_bn.shortvec import ComplementLift
from oracles import (
    box_classes_with_square,
    box_isotropic_minimum,
    decompose_unpruned,
    fraction_coefficients,
    mu_full_scan,
    mu_whole_pool,
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

    def test_precondition(self):
        with pytest.raises(NotAmpleEnoughError):
            phi(DivisorClass(basis_vector(0), 0))  # square 0

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
            fiber = ComplementLift(L.num.form, L.num).fiber(res.value + 2, 4)
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

    def test_edges_outside_every_pattern(self, triple_one):
        with pytest.raises(CertificateError):
            _normalize_decomposition(
                list(triple_one), [1, 1, 1], [(0, 1), (0, 2), (1, 2)]
            )


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

    def test_requires_ample(self):
        with pytest.raises(NotAmpleError):
            gonality(DivisorClass(basis_vector(0), 0))

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


class TestDecompose:
    def assert_valid(self, L, dec):
        total = None
        for gen, coeff in zip(dec.generators, dec.coefficients):
            assert coeff > 0
            assert gen.square == 0
            assert is_primitive(gen.num)
            assert classify_positivity(gen).is_effective
            part = coeff * gen.num
            total = part if total is None else total + part
        assert total == L.num

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
    def test_against_fraction_elimination(self):
        """Seeded generator subsets of isotropic fiber pools, against L, a
        combination of the generators (positive or not) and that combination
        moved off their span; solvable and unsolvable both occur."""
        rng = random.Random(46)
        solvable = unsolvable = 0
        for _ in range(5):
            L = random_ample(rng, max_square=16)
            lift = ComplementLift(L.num.form, L.num)
            pool = [x for t in range(1, 4) for x in lift.fiber(t, 0) if is_primitive(x)]
            if len(pool) < 2:
                continue
            for _ in range(30):
                gens = rng.sample(pool, rng.randint(2, min(6, len(pool))))
                gram = [[a.dot(b) for b in gens] for a in gens]
                if integer_determinant(gram) == 0:
                    continue  # the oracle gives up on a singular Gram
                coeffs = [rng.randint(-1, 3) for _ in gens]
                combo = coeffs[0] * gens[0]
                for c, e in zip(coeffs[1:], gens[1:]):
                    combo = combo + c * e
                moved = combo + basis_vector(rng.randrange(10))
                for target in (L.num, combo, moved):
                    got = _solve_coefficients(gens, target)
                    assert got == fraction_coefficients(gens, target)
                    solvable += got is not None
                    unsolvable += got is None
        assert solvable and unsolvable

    @pytest.mark.parametrize(
        "edges, smallest", [((), 2), (((0, 1),), 2), (((0, 1), (0, 2)), 3)]
    )
    def test_pattern_grams_are_nonsingular(self, edges, smallest):
        # the search tries sets of 2..10 generators; patterns (i), (ii), (iii)
        for n in range(smallest, 11):
            assert integer_determinant(_pattern_gram(n, edges)) != 0

    def test_rebuilt_sum_is_checked(self, monkeypatch, pair_one):
        e1, e2 = pair_one
        monkeypatch.setattr(
            invariants, "solve_integer_linear", lambda rows, rhs: ((1, 1), [])
        )
        with pytest.raises(CertificateError):
            _solve_coefficients([e1, e2], 2 * e1 + e2)


class TestDecomposeBudgets:
    def test_candidate_pool_budget(self, monkeypatch, pair_two):
        e1, e2 = pair_two
        monkeypatch.setattr(invariants, "DECOMPOSE_MAX_CANDIDATES", 1)
        with pytest.raises(SearchExhaustedError, match="candidate pool"):
            decompose_isotropic(DivisorClass(3 * (e1 + e2), 0))

    def test_node_budget(self, monkeypatch, pair_two):
        e1, e2 = pair_two
        monkeypatch.setattr(invariants, "DECOMPOSE_MAX_NODES", 1)
        with pytest.raises(SearchExhaustedError, match="nodes"):
            decompose_isotropic(DivisorClass(3 * (e1 + e2), 0))


def family_members(config, max_square=40, coefficients=range(1, 4)):
    """(coefficients, L) for L = sum a_i E_i over one embedded configuration,
    every a_i in ``coefficients``, 0 < L^2 <= max_square."""
    gens = embed_configuration(config)
    for coeffs in itertools.product(coefficients, repeat=len(gens)):
        num = coeffs[0] * gens[0]
        for c, e in zip(coeffs[1:], gens[1:]):
            num = num + c * e
        if num.square <= max_square:
            yield coeffs, DivisorClass(num, 0)


class TestDecomposeCuts:
    """The stage restriction to new classes and the residual cut leave the
    search's first hit unchanged and let it finish at L^2 = 40."""

    @pytest.mark.parametrize(
        "config", [config_i(2), config_ii(2), config_i(3), config_ii(3)],
        ids=["i:2", "ii:2", "i:3", "ii:3"],
    )
    def test_against_the_unpruned_search(self, config):
        for _, L in family_members(config):
            assert decompose_isotropic(L) == decompose_unpruned(L)

    def test_against_the_unpruned_search_on_iii3(self):
        # the unpruned search is slow on the members with a_1 = 1 other
        # than (1, 1, 1), and (3, 1, 2), (3, 2, 1) exhaust its node budget
        checked = 0
        for coeffs, L in family_members(config_iii(3)):
            if coeffs in ((3, 1, 2), (3, 2, 1)) or coeffs[0] == 1 < max(coeffs):
                continue
            assert decompose_isotropic(L) == decompose_unpruned(L)
            checked += 1
        assert checked == 8

    @pytest.mark.parametrize("coeffs", [(3, 2, 1), (3, 1, 2)])
    def test_square_forty_members_of_iii3(self, monkeypatch, triple_iii, coeffs):
        # within 93,880 search nodes; without the stage cut it takes 94,625
        monkeypatch.setattr(invariants, "DECOMPOSE_MAX_NODES", 93_880)
        e1, e2, e3 = triple_iii
        L = DivisorClass(coeffs[0] * e1 + coeffs[1] * e2 + coeffs[2] * e3, 0)
        assert L.square == 40
        dec = decompose_isotropic(L)
        assert dec.configuration == "config-iii"
        assert dec.coefficients == (3, 2, 1)
        a, b, c = (g.num for g in dec.generators)
        assert 3 * a + 2 * b + c == L.num


class TestConcurrency:
    def test_shared_state_free_under_threads(self, pair_one, pair_two):
        # everything is immutable and pure, so concurrent calls over shared
        # inputs must agree with the sequential answers
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
        # phi, mu, decompose and destab share complement_lift's one entry;
        # interleaving four classes across more threads than cores makes
        # every call race the others for it
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
        calls *= 3
        expected = [fn(*args) for fn, *args in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fn, *args) for fn, *args in calls]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
