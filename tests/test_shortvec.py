import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques_bn import shortvec
from enriques_bn.errors import (
    CertificateError,
    NotPositiveDefiniteError,
    PositiveSquareRequiredError,
)
from enriques_bn.lattice import (
    IntersectionForm,
    NumClass,
    basis_vector,
    canonical_form,
    integer_determinant,
    num_class,
)
from enriques_bn.shortvec import (
    ComplementLift,
    FiberSystem,
    PosDefForm,
    _ScaledLDL,
    complement_lift,
    enumerate_short,
)
from oracles import (
    box_classes_with_square,
    box_short_vectors,
    fraction_ellipsoid,
    fraction_inverse,
    fraction_solutions,
)


def random_posdef(rng, max_rank=4, spread=3):
    """A^T A + 2I for a random integer A: positive definite by construction."""
    n = rng.randint(1, max_rank)
    a = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    gram = tuple(
        tuple(
            sum(a[r][i] * a[r][j] for r in range(n)) + (2 if i == j else 0)
            for j in range(n)
        )
        for i in range(n)
    )
    return PosDefForm(n, gram)


class TestEnumerateShort:
    def test_square_form_bound_two(self):
        q = PosDefForm(2, ((2, 0), (0, 2)))
        res = enumerate_short(q, 2)
        assert set(res.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert set(res.vectors) == box_short_vectors(q.numer, q.denom, 2)

    def test_square_form_bound_four(self):
        q = PosDefForm(2, ((2, 0), (0, 2)))
        res = enumerate_short(q, 4)
        assert len(res.vectors) == 8
        assert set(res.vectors) == box_short_vectors(q.numer, q.denom, 4)

    def test_bound_zero_empty(self):
        q = PosDefForm(3, ((2, 1, 0), (1, 2, 0), (0, 0, 4)))
        assert enumerate_short(q, 0).vectors == ()

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            enumerate_short(PosDefForm(2, ((1, 2), (2, 1))), 3)

    def test_leading_minors_detect_the_same(self):
        good = PosDefForm(2, ((2, 1), (1, 2)))
        bad = PosDefForm(2, ((1, 2), (2, 1)))
        assert good.is_positive_definite()
        assert not bad.is_positive_definite()
        # Sylvester's criterion against determinants computed one by one
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(1, 4)
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    gram[i][j] = gram[j][i] = rng.randint(-3, 6 if i == j else 3)
            q = PosDefForm(n, tuple(map(tuple, gram)), denom=rng.randint(1, 3))
            minors = [integer_determinant([r[:k] for r in gram[:k]]) for k in range(1, n + 1)]
            assert q.is_positive_definite() == all(m > 0 for m in minors)

    def test_oracle_equivalence_random(self):
        rng = random.Random(21)
        for _ in range(30):
            q = random_posdef(rng)
            bound = rng.randint(1, 20)
            res = enumerate_short(q, bound)
            assert set(res.vectors) == box_short_vectors(q.numer, q.denom, bound)
            assert list(res.vectors) == sorted(res.vectors)

    def test_negation_symmetry(self):
        rng = random.Random(22)
        for _ in range(10):
            q = random_posdef(rng)
            vectors = set(enumerate_short(q, 12).vectors)
            assert vectors == {tuple(-c for c in v) for v in vectors}

    def test_monotonicity(self):
        rng = random.Random(23)
        for _ in range(10):
            q = random_posdef(rng)
            small = set(enumerate_short(q, 5).vectors)
            large = set(enumerate_short(q, 11).vectors)
            assert small <= large

    def test_rational_entries(self):
        q = PosDefForm(2, ((2, 1), (1, 2)), denom=2)  # halves
        res = enumerate_short(q, 1)
        assert set(res.vectors) == box_short_vectors(q.numer, q.denom, 1)
        assert all(0 < q.value(v) <= 1 for v in res.vectors)


class TestProjectComplement:
    def test_needs_positive_square(self):
        with pytest.raises(PositiveSquareRequiredError):
            ComplementLift(basis_vector(0).form, basis_vector(0))

    def test_identity_on_hyperbolic_pair(self, form):
        f, g = basis_vector(0), basis_vector(1)
        L = f + g
        lift = ComplementLift(form, L)
        # -(f_perp)^2 = (f.L)^2 / L^2 - f^2
        assert Fraction(f.dot(L) ** 2, L.square) - f.square == Fraction(1, 2)

    def test_isotropic_norm_is_t_squared_over_l_squared(self, form):
        rng = random.Random(24)
        L = num_class([2, 4] + [0] * 8)
        lift = ComplementLift(form, L)
        for t in (2, 4, 6):
            for x in lift.fiber(t, 0):
                assert Fraction(x.dot(L) ** 2, L.square) - x.square == Fraction(t * t, L.square)

    def test_qperp_positive_definite_for_random_positive_classes(self, form):
        rng = random.Random(25)
        found = 0
        while found < 20:
            coords = [rng.randint(-4, 4) for _ in range(10)]
            L = num_class(coords)
            if L.square <= 0:
                continue
            # building the lift raises NotPositiveDefiniteError otherwise
            assert len(ComplementLift(form, L)._kernel) == 9
            found += 1

    def test_fiber_lift_consistency(self, form):
        L = num_class([2, 4] + [0] * 8)
        lift = ComplementLift(form, L)
        for t in (2, 4, 6, 8):
            for sq in (0, 2, 4):
                for x in lift.fiber(t, sq):
                    assert x.dot(L) == t and x.square == sq
                    assert Fraction(x.dot(L) ** 2, L.square) - x.square == Fraction(t * t, 16) - sq

    def test_fiber_against_box_oracle(self, form):
        # L = 4f + 2g: every isotropic class of degree <= 8 has a small
        # E8 block, so the box scan sees the full fibers
        L = num_class([4, 2] + [0] * 8)
        lift = ComplementLift(form, L)
        box = box_classes_with_square(L.coords, 0, 8)
        for t in (1, 2, 3, 4):
            got = {x.coords for x in lift.fiber(t, 0)}
            want = {c for c in box if sum(
                ci * wi for ci, wi in zip(c, form.apply(L.coords))) == t}
            assert got == want, f"fiber mismatch at degree {t}"

    def test_degree_step_matches_content(self, form):
        L = num_class([3, 6] + [0] * 8)  # content 3
        lift = ComplementLift(form, L)
        assert lift.degree_step == 3
        assert lift.fiber(2, 0) == []


class TestLiftCache:
    def test_consecutive_calls_share_one_lift(self):
        L = num_class([2, 4] + [0] * 8)
        lift = complement_lift(L)
        assert complement_lift(num_class([2, 4] + [0] * 8)) is lift
        complement_lift(num_class([4, 2] + [0] * 8))
        assert complement_lift(L) is not lift  # the one entry moved on

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(-1, 1), min_size=8, max_size=8),
    )
    def test_equal_coordinates_in_another_form_get_their_own_lift(self, a, b, rest):
        canonical = canonical_form()
        gram = [list(row) for row in canonical.gram]
        gram[0][1] = gram[1][0] = 2
        other = IntersectionForm(10, tuple(map(tuple, gram)))  # U(2) + E8(-1)
        coords = (a, b, *rest)
        L = NumClass(coords, canonical)
        assume(L.square > 0)  # then the square in U(2) + E8(-1) is L^2 + 2ab
        for M in (L, NumClass(coords, other), L):
            lift = complement_lift(M)
            assert lift.L == M and lift.form == M.form
            assert isinstance(lift, FiberSystem)
            fresh = ComplementLift(M.form, M)
            assert lift.form == fresh.form and lift._kernel == fresh._kernel
            t = lift.degree_step
            assert all(x.form == M.form and x.dot(M) == t for x in lift.fiber(t, 0))

    def test_scaled_pairings_match_a_fresh_solve(self, form):
        # the lift scales b and x0^2 from the unit solution; FiberSystem
        # solves and pairs anew for every value
        for coords in ([2, 4] + [0] * 8, [3, 3, 1, 0, 1, 0, 0, 0, 0, 0], [3, 6] + [0] * 8):
            L = num_class(coords)
            lift = complement_lift(L)
            fib = FiberSystem(form, [L])
            for t in range(-2 * lift.degree_step, 4 * lift.degree_step + 1):
                for sq in (0, 2, 4):
                    assert lift.fiber(t, sq) == fib.solutions([t], sq)
                assert lift.fiber_min_square(t, 0) == fib.solutions_min_square([t], 0)


class TestFiberSystem:
    def test_multi_constraint_solutions(self, form, pair_two):
        e1, e2 = pair_two
        a0 = basis_vector(0) + basis_vector(1)
        fib = FiberSystem(form, [a0, e1])
        sols = fib.solutions([3, 2], 0)
        for x in sols:
            assert x.dot(a0) == 3 and x.dot(e1) == 2 and x.square == 0
        assert e2 in sols

    def test_inconsistent_values_empty(self, form, pair_one):
        e1, e2 = pair_one
        a0 = basis_vector(0) + basis_vector(1)
        # x.(f+g) is determined by x.f and x.g; ask for a contradiction
        fib = FiberSystem(form, [a0, e1, e2])
        assert fib.solutions([5, 1, 1], 0) == []

    def test_full_rank_point_fiber(self, form):
        # ten independent constraints pin the class completely
        classes = [basis_vector(i) for i in range(10)]
        target = num_class([1, 2, 0, 0, 1, 0, 0, 0, 0, 0])
        values = [target.dot(c) for c in classes]
        fib = FiberSystem(form, classes)
        assert fib.solutions(values, target.square) == [target]


def sample_ample(rng, count, max_square=16):
    """Distinct ample classes with coordinates in [-3, 3] and L^2 <= max_square."""
    got = []
    while len(got) < count:
        L = num_class([rng.randint(-3, 3) for _ in range(10)])
        if L.coords[0] + L.coords[1] > 0 and 0 < L.square <= max_square and L not in got:
            got.append(L)
    return got


class TestScaledKernelAgainstFractionOracle:
    """The integer-scaled kernel returns exactly the Fraction kernel's points."""

    def test_fibers_of_sampled_ample_classes(self, form):
        for L in sample_ample(random.Random(31), 30):
            lift = ComplementLift(form, L)
            for t in range(1, math.isqrt(L.square) + 2):  # past phi(L) <= sqrt(L^2)
                for sq in (0, 2, 4):
                    got = [x.coords for x in lift.fiber(t, sq)]
                    assert got == sorted(fraction_solutions(form, [L], [t], sq, True))
                got = [x.coords for x in lift.fiber_min_square(t, 0)]
                assert got == sorted(fraction_solutions(form, [L], [t], 0, False))

    def test_fiber_system_solutions(self, form, pair_two, triple_iii):
        a0 = basis_vector(0) + basis_vector(1)
        for classes in ([a0], [a0, pair_two[0]], [a0] + list(triple_iii[:2])):
            fib = FiberSystem(form, classes)
            rests = [r for r in ([], [1], [2], [1, 2], [2, 1]) if len(r) == len(classes) - 1]
            for height in range(1, 4):
                for rest in rests:
                    values = [height] + rest
                    for sq in (0, 2):
                        got = [x.coords for x in fib.solutions(values, sq)]
                        want = fraction_solutions(form, classes, values, sq, True)
                        assert got == sorted(want)

    def test_values_off_the_reachable_sublattice(self, form):
        # x -> (x.a0, x.v, x.w) maps onto Z^3, so the value vectors of
        # (a0, a0 + 2v, a0 + 3w) are the (a, b, c) with b = a mod 2 and
        # c = a mod 3, a proper sublattice of Z^3
        a0 = basis_vector(0) + basis_vector(1)
        v, w = basis_vector(2), basis_vector(3)
        for classes in ([a0, a0 + 2 * v], [a0, a0 + 2 * v, a0 + 3 * w]):
            fib = FiberSystem(form, classes)
            found = 0
            for a, b, *c in product(range(1, 4), *[range(-2, 4)] * (len(classes) - 1)):
                values = [a, b, *c]
                reachable = (b - a) % 2 == 0 and all((ci - a) % 3 == 0 for ci in c)
                for sq in (0, -2):
                    exact = [x.coords for x in fib.solutions(values, sq)]
                    assert exact == sorted(fraction_solutions(form, classes, values, sq, True))
                    ball = [x.coords for x in fib.solutions_min_square(values, sq)]
                    assert ball == sorted(fraction_solutions(form, classes, values, sq, False))
                    if not reachable:
                        assert exact == ball == []
                    found += len(ball)
            assert found > 0

    def test_enumerate_short(self):
        rng = random.Random(32)
        for _ in range(30):
            q = random_posdef(rng)
            bound = Fraction(rng.randint(1, 40), rng.randint(1, 3))
            want = fraction_ellipsoid(q.numer, [0] * q.rank, bound, False)
            want.discard((0,) * q.rank)
            assert list(enumerate_short(q, bound).vectors) == sorted(want)

    def test_random_centres_and_targets(self):
        rng = random.Random(33)
        for _ in range(40):
            q = random_posdef(rng)
            q = PosDefForm(q.rank, q.numer, denom=rng.randint(1, 3))
            gram = [[Fraction(x, q.denom) for x in row] for row in q.numer]
            b = [rng.randint(-9, 9) for _ in range(q.rank)]
            excess = Fraction(rng.randint(-5, 30), rng.randint(1, 4))
            ell = _ScaledLDL(q.numer, q.denom)
            for exact in (False, True):
                want = fraction_ellipsoid(gram, b, excess, exact)
                assert set(ell.search(b, excess, exact)) == want

    def test_rank_zero(self):
        ell = _ScaledLDL([])
        assert list(ell.search([], 0, True)) == [()] and fraction_ellipsoid([], [], 0, True) == {()}
        assert list(ell.search([], 3, False)) == [()]
        assert list(ell.search([], 3, True)) == [] and fraction_ellipsoid([], [], 3, True) == set()
        assert list(ell.search([], -1, False)) == [] and fraction_ellipsoid([], [], -1, False) == set()

    def test_negative_bound(self):
        q = PosDefForm(3, ((2, 1, 0), (1, 2, 0), (0, 0, 4)))
        ell = _ScaledLDL(q.numer, q.denom)
        b = [1, -2, 3]
        # q(y - c) >= 0 > -1, whatever the centre
        for exact in (False, True):
            assert list(ell.search(b, -1 - Fraction(13, 2), exact)) == []
            assert fraction_ellipsoid(q.numer, b, -1 - Fraction(13, 2), exact) == set()

    def test_shell_target_not_integer_after_scaling(self):
        q = PosDefForm(2, ((2, 0), (0, 2)))
        ell = _ScaledLDL(q.numer, q.denom)
        # q(y) = 2 y.y takes only even values, and 1/3 scales to 8/3
        assert list(ell.search([0, 0], Fraction(1, 3), True)) == []
        assert fraction_ellipsoid(q.numer, [0, 0], Fraction(1, 3), True) == set()
        assert list(ell.search([0, 0], Fraction(1, 3), False)) == [(0, 0)]

    def test_centre_with_large_denominator(self):
        gram = ((1009, 3, -7), (3, 997, 11), (-7, 11, 1013))
        q = PosDefForm(3, gram)
        assert integer_determinant(q.numer) > 10**9
        ell = _ScaledLDL(q.numer, q.denom)
        rng = random.Random(34)
        inverse = fraction_inverse(gram)
        for _ in range(20):
            b = [rng.randint(-10**6, 10**6) for _ in range(3)]
            centre = [sum(m * bj for m, bj in zip(row, b)) for row in inverse]
            assert max(c.denominator for c in centre) > 10**6
            # q(y - c) <= radius with the centre's own norm b.c cancelled
            b_dot_c = sum(bj * cj for bj, cj in zip(b, centre))
            for radius in (0, 2000, Fraction(4001, 2), 5000):
                for exact in (False, True):
                    want = fraction_ellipsoid(gram, b, radius - b_dot_c, exact)
                    assert set(ell.search(b, radius - b_dot_c, exact)) == want


def strictly_increasing(xs):
    return all(a < b for a, b in zip(xs, xs[1:]))


class TestLexicographicOrder:
    """Fibers leave the search in strictly increasing lexicographic order,
    with no sort anywhere, and hold the Fraction kernel's points."""

    def test_fibers_of_sampled_ample_classes(self, form):
        rng = random.Random(61)
        classes = sample_ample(rng, 10, max_square=24) + [num_class([2, 4] + [0] * 8)]
        for L in classes:
            lift = ComplementLift(form, L)
            for t in range(1, math.isqrt(L.square) + 2):
                for sq, exact in ((0, True), (4, True), (2, False)):
                    if exact:
                        got = [x.coords for x in lift.fiber(t, sq)]
                    else:
                        got = [x.coords for x in lift.fiber_min_square(t, sq)]
                    assert strictly_increasing(got)
                    assert set(got) == fraction_solutions(form, [L], [t], sq, exact)
                fib = lift.fiber(t, 4)
                for accept in (lambda x: x.coords[2] > 0, lambda x: False):
                    want = next((x for x in fib if accept(x)), None)
                    assert lift.first(t, 4, accept) == want

    def test_fiber_system_solutions(self, form):
        rng = random.Random(62)
        a0 = basis_vector(0) + basis_vector(1)
        for _ in range(12):
            u = num_class([rng.randint(-2, 2) for _ in range(10)])
            if u.is_zero():
                continue
            fib = FiberSystem(form, [a0, u])
            for height in range(1, 4):
                values = [height, rng.randint(-2, 2)]
                for sq in (0, 2):
                    got = [x.coords for x in fib.solutions(values, sq)]
                    assert strictly_increasing(got)
                    assert set(got) == fraction_solutions(form, [a0, u], values, sq, True)


class TestEchelonBasis:
    def test_first_pivot_is_the_outermost_level(self, form):
        lift = ComplementLift(form, num_class([3, 3, 1, 0, 3, 1, 2, 2, 1, 2]))
        pivots = [next(j for j, a in enumerate(v.coords) if a) for v in lift._kernel]
        assert strictly_increasing(pivots[::-1])


class TestCertificateErrors:
    """The post-checks raise even when the kernel is wrong."""

    @staticmethod
    def _one_bad_point(form, x0, kernel, pts):
        return [NumClass((1, 1) + (0,) * 8, form)]  # square 2, asked for 0

    def test_fiber_post_check(self, form, monkeypatch):
        lift = ComplementLift(form, num_class([2, 4] + [0] * 8))
        monkeypatch.setattr(shortvec, "_lift_points", self._one_bad_point)
        with pytest.raises(CertificateError):
            lift.fiber(2, 0)

    def test_solutions_post_check(self, form, monkeypatch):
        fib = FiberSystem(form, [basis_vector(0) + basis_vector(1)])
        monkeypatch.setattr(shortvec, "_lift_points", self._one_bad_point)
        with pytest.raises(CertificateError):
            fib.solutions([2], 0)
