import fractions
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from enriques_bn import invariants, shortvec
from enriques_bn.brill_noether import enumerate_destab, predict_w1d
from enriques_bn.errors import (
    CertificateError,
    FormMismatchError,
    NotPositiveDefiniteError,
    PositiveSquareRequiredError,
)
from enriques_bn.lattice import (
    DivisorClass,
    IntersectionForm,
    NumClass,
    _reduce,
    basis_vector,
    canonical_form,
    config_i,
    content,
    embed_configuration,
    integer_determinant,
    num_class,
)
from enriques_bn.shortvec import (
    ComplementLift,
    FiberSystem,
    PosDefForm,
    _ScaledLDL,
    enumerate_short,
)
from oracles import (
    A0, a0_system_solutions, box_classes_with_square, box_short_vectors, chamber_word_image,
    counted_fiber, fraction_det, fraction_ellipsoid, fraction_inverse, fraction_ldl,
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
    return PosDefForm(gram)


class TestEnumerateShort:
    def test_square_form_bound_two(self):
        q = PosDefForm(((2, 0), (0, 2)))
        res = enumerate_short(q, 2)
        assert set(res.vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert set(res.vectors) == box_short_vectors(q.numer, q.denom, 2)

    def test_square_form_bound_four(self):
        q = PosDefForm(((2, 0), (0, 2)))
        res = enumerate_short(q, 4)
        assert len(res.vectors) == 8
        assert set(res.vectors) == box_short_vectors(q.numer, q.denom, 4)

    def test_bound_zero_empty(self):
        q = PosDefForm(((2, 1, 0), (1, 2, 0), (0, 0, 4)))
        assert enumerate_short(q, 0).vectors == ()
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_short(q, -1)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            enumerate_short(PosDefForm(((1, 2), (2, 1))), 3)

    def test_leading_minors_detect_the_same(self):
        good = PosDefForm(((2, 1), (1, 2)))
        bad = PosDefForm(((1, 2), (2, 1)))
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
            q = PosDefForm(tuple(map(tuple, gram)), denom=rng.randint(1, 3))
            minors = [fraction_det([r[:k] for r in gram[:k]]) for k in range(1, n + 1)]
            assert q.is_positive_definite() == all(m > 0 for m in minors)

    @pytest.mark.parametrize("numer, definite", [
        (((1, 0, 1), (0, 1, 1), (1, 1, 2)), False),  # minors 1, 1, 0: semidefinite
        (((0, 0, 0), (0, 1, 0), (0, 0, 1)), False),  # minors 0, 0, 0: semidefinite
        (((1, 0, 2), (0, 1, 0), (2, 0, 1)), False),  # minors 1, 1, -3: indefinite
        (((2, 1, 0), (1, 2, 1), (0, 1, 2)), True),  # minors 2, 3, 4
    ])
    def test_semidefinite_and_indefinite_forms(self, numer, definite):
        q = PosDefForm(numer, denom=2)
        minors = [fraction_det([r[:k] for r in numer[:k]]) for k in (1, 2, 3)]
        assert q.is_positive_definite() == definite == all(m > 0 for m in minors)

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
        q = PosDefForm(((2, 1), (1, 2)), denom=2)  # halves
        res = enumerate_short(q, 1)
        assert set(res.vectors) == box_short_vectors(q.numer, q.denom, 1)
        assert all(0 < q.value(v) <= 1 for v in res.vectors)


class TestProjectComplement:
    def test_needs_positive_square(self):
        with pytest.raises(PositiveSquareRequiredError):
            ComplementLift(basis_vector(0))

    def test_identity_on_hyperbolic_pair(self):
        f, g = basis_vector(0), basis_vector(1)
        L = f + g
        lift = ComplementLift(L)
        # -(f_perp)^2 = (f.L)^2 / L^2 - f^2
        assert Fraction(f.dot(L) ** 2, L.square) - f.square == Fraction(1, 2)

    def test_isotropic_norm_is_t_squared_over_l_squared(self):
        rng = random.Random(24)
        L = num_class([2, 4] + [0] * 8)
        lift = ComplementLift(L)
        for t in (2, 4, 6):
            for x in lift.fiber(t, 0):
                assert Fraction(x.dot(L) ** 2, L.square) - x.square == Fraction(t * t, L.square)

    def test_qperp_positive_definite_for_random_positive_classes(self):
        rng = random.Random(25)
        found = 0
        while found < 20:
            coords = [rng.randint(-4, 4) for _ in range(10)]
            L = num_class(coords)
            if L.square <= 0:
                continue
            # building the lift raises NotPositiveDefiniteError otherwise
            assert len(ComplementLift(L)._entries) == 9
            found += 1

    def test_fiber_lift_consistency(self):
        L = num_class([2, 4] + [0] * 8)
        lift = ComplementLift(L)
        for t in (2, 4, 6, 8):
            for sq in (0, 2, 4):
                for x in lift.fiber(t, sq):
                    assert x.dot(L) == t and x.square == sq
                    assert Fraction(x.dot(L) ** 2, L.square) - x.square == Fraction(t * t, 16) - sq

    def test_fiber_against_box_oracle(self, form):
        # L = 4f + 2g: every isotropic class of degree <= 8 has a small
        # E8 block, so the box scan sees the full fibers
        L = num_class([4, 2] + [0] * 8)
        lift = ComplementLift(L)
        box = box_classes_with_square(L.coords, 0, 8)
        for t in (1, 2, 3, 4):
            got = {x.coords for x in lift.fiber(t, 0)}
            want = {c for c in box if sum(
                ci * wi for ci, wi in zip(c, form.apply(L.coords))) == t}
            assert got == want, f"fiber mismatch at degree {t}"

    def test_degree_step_matches_content(self):
        # x.L lies in the multiples of L's content
        L = num_class([3, 6] + [0] * 8)
        assert content(L)[0] == 3
        lift = ComplementLift(L)
        assert lift.fiber(3, 0)
        assert not any(lift.fiber(t, 0) for t in (1, 2, 4, 5))

    def test_scaled_pairings_match_a_fresh_solve(self):
        # the lift's methods against the general FiberSystem on the same
        # one constraint, off the multiples of L's content too
        for coords in ([2, 4] + [0] * 8, [3, 3, 1, 0, 1, 0, 0, 0, 0, 0], [3, 6] + [0] * 8):
            L = num_class(coords)
            lift = ComplementLift(L)
            fib = FiberSystem([L])
            step = content(L)[0]
            for t in range(-2 * step, 4 * step + 1):
                for sq in (0, 2, 4):
                    assert lift.fiber(t, sq) == fib.solutions([t], sq)
                assert lift.fiber_min_square(t, 0) == fib.solutions_min_square([t], 0)


class TestFiberSystem:
    def test_multi_constraint_solutions(self, pair_two):
        e1, e2 = pair_two
        a0 = basis_vector(0) + basis_vector(1)
        fib = FiberSystem([a0, e1])
        sols = fib.solutions([3, 2], 0)
        for x in sols:
            assert x.dot(a0) == 3 and x.dot(e1) == 2 and x.square == 0
        assert e2 in sols

    def test_inconsistent_values_empty(self, pair_one):
        e1, e2 = pair_one
        a0 = basis_vector(0) + basis_vector(1)
        # x.(f+g) is determined by x.f and x.g; ask for a contradiction
        fib = FiberSystem([a0, e1, e2])
        assert fib.solutions([5, 1, 1], 0) == []

    def test_full_rank_point_fiber(self):
        # ten independent constraints pin the class completely
        classes = [basis_vector(i) for i in range(10)]
        target = num_class([1, 2, 0, 0, 1, 0, 0, 0, 0, 0])
        values = [target.dot(c) for c in classes]
        fib = FiberSystem(classes)
        assert fib.solutions(values, target.square) == [target]

    def test_classes_in_two_forms_are_refused(self, form):
        L = num_class([2, 4] + [0] * 8)
        twin = IntersectionForm(form.rank, form.gram)  # equal, not the same
        assert FiberSystem([L, NumClass(L.coords, twin)]).form is form
        with pytest.raises(FormMismatchError):
            FiberSystem([L, NumClass(L.coords, u2_e8_form())])


def sample_ample(rng, count, max_square=16):
    """Distinct ample classes with coordinates in [-3, 3] and L^2 <= max_square."""
    got = []
    while len(got) < count:
        L = num_class([rng.randint(-3, 3) for _ in range(10)])
        if L.coords[0] + L.coords[1] > 0 and 0 < L.square <= max_square and L not in got:
            got.append(L)
    return got


def hyperbolic_image(rng, p, q):
    """w(p f + q g) with a nonzero E8 block, w a random chamber-root word."""
    while True:
        word = [rng.randrange(10) for _ in range(rng.randint(1, 12))]
        L = chamber_word_image(word, num_class([p, q] + [0] * 8))
        if any(L.coords[2:]):
            return L


class TestFibersAgainstThetaCounts:
    """Kernel fibers certified by ``counted_fiber``: classes of the fiber,
    in strictly increasing order, as many as the theta series of E8 counts
    for p f + q g, which holds for every isometric image of it."""

    def test_weyl_images_of_hyperbolic_classes(self):
        rng = random.Random(31)
        pairs = [(p, q) for p in range(1, 9) for q in range(1, 8 // p + 1)]  # L^2 <= 16
        points = 0
        for p, q in (rng.choice(pairs) for _ in range(60)):
            lift = ComplementLift(L := hyperbolic_image(rng, p, q))
            for t in range(1, math.isqrt(L.square) + 2):  # past phi(L) <= sqrt(L^2)
                for sq, exact in ((0, True), (2, True), (4, True), (0, False), (2, False)):
                    points += len(counted_fiber(lift, p, q, t, sq, exact))
        assert points > 5_000

    @pytest.mark.slow
    def test_theta_ladder(self):
        # every a f + b g of L^2 <= 200 and two images of each
        rng = random.Random(71)
        for p, q in ((p, q) for p in range(1, 101) for q in range(1, 100 // p + 1)):
            images = [hyperbolic_image(rng, p, q) for _ in range(2)]
            for L in [num_class([p, q] + [0] * 8)] + images:
                lift = ComplementLift(L)
                for t in range(1, math.isqrt(L.square) + 4):
                    for sq, exact in ((0, True), (2, True), (4, True), (0, False)):
                        counted_fiber(lift, p, q, t, sq, exact)

    def test_fiber_system_solutions(self, pair_two, triple_iii):
        for classes in ([A0], [A0, pair_two[0]], [A0] + list(triple_iii[:2])):
            fib = FiberSystem(classes)
            rests = [r for r in ([], [1], [2], [1, 2], [2, 1]) if len(r) == len(classes) - 1]
            for height in range(1, 4):
                for rest in rests:
                    values = [height] + rest
                    for sq in (0, 2):
                        got = [x.coords for x in fib.solutions(values, sq)]
                        assert got == a0_system_solutions(classes, values, sq, True)

    def test_values_off_the_reachable_sublattice(self):
        # x -> (x.a0, x.v, x.w) maps onto Z^3, so the value vectors of
        # (a0, a0 + 2v, a0 + 3w) are the (a, b, c) with b = a mod 2 and
        # c = a mod 3, a proper sublattice of Z^3
        v, w = basis_vector(2), basis_vector(3)
        for classes in ([A0, A0 + 2 * v], [A0, A0 + 2 * v, A0 + 3 * w]):
            fib = FiberSystem(classes)
            found = 0
            for a, b, *c in product(range(1, 4), *[range(-2, 4)] * (len(classes) - 1)):
                values = [a, b, *c]
                reachable = (b - a) % 2 == 0 and all((ci - a) % 3 == 0 for ci in c)
                for sq in (0, -2):
                    exact = [x.coords for x in fib.solutions(values, sq)]
                    assert exact == a0_system_solutions(classes, values, sq, True)
                    ball = [x.coords for x in fib.solutions_min_square(values, sq)]
                    assert ball == a0_system_solutions(classes, values, sq, False)
                    if not reachable:
                        assert exact == ball == []
                    found += len(ball)
            assert found > 0


class TestScaledKernelAgainstFractionOracle:
    """``_ScaledLDL.search`` on random positive-definite forms, and on the
    kernel Grams of sampled lifts, returns exactly the points of the
    Fraction Fincke-Pohst ellipsoid."""

    def test_fibers_of_sampled_ample_classes(self):
        # for x0 with x0.L = t and kernel basis k_i, the fiber (t, sq) is
        # x0 + sum y_i k_i over the y with q(y) - 2 b.y <= x0^2 - sq (== if
        # exact), b_i = x0.k_i and q the negated kernel Gram; the scaled and
        # the Fraction search must agree on it and count the fiber
        rng, found = random.Random(35), 0
        for L in sample_ample(random.Random(31), 30):
            lift = ComplementLift(L)
            kernel = [num_class([dict(v).get(j, 0) for j in range(10)]) for v in lift._entries]
            gram = [[-u.dot(v) for v in kernel] for u in kernel]
            cap = math.isqrt(L.square) + 1  # past phi(L) <= sqrt(L^2)
            starts = []
            while len(starts) < 3:
                x0 = num_class([rng.randint(-2, 2) for _ in range(10)])
                if 1 <= x0.dot(L) <= cap:
                    starts.append(x0)
            for x0 in starts:
                t, b = x0.dot(L), [x0.dot(v) for v in kernel]
                # one Fraction search, the ball x^2 >= 0, holds every shell
                ball = {}
                for y in fraction_ellipsoid(gram, b, x0.square, False):
                    x = sum((yi * v for yi, v in zip(y, kernel)), x0)
                    ball[y] = x.square
                found += len(ball)
                for sq, exact in ((0, True), (2, True), (4, True), (0, False), (2, False)):
                    got = list(lift._ldl.search(b, x0.square - sq, exact))
                    want = {y for y, s in ball.items() if (s == sq if exact else s >= sq)}
                    assert set(got) == want
                    fiber = lift.fiber(t, sq) if exact else lift.fiber_min_square(t, sq)
                    assert len(got) == len(fiber)
        assert found > 4_000

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
        on_shell = 0
        for _ in range(40):
            q = random_posdef(rng)
            b = [rng.randint(-9, 9) for _ in range(q.rank)]
            ell = _ScaledLDL(q.numer)
            for excess in range(-5, 31, 5):
                for exact in (False, True):
                    got = list(ell.search(b, excess, exact))
                    assert set(got) == fraction_ellipsoid(q.numer, b, excess, exact)
                    on_shell += exact and len(got)
        assert on_shell > 0

    def test_rank_zero(self):
        ell = _ScaledLDL([])
        assert list(ell.search([], 0, True)) == [()] and fraction_ellipsoid([], [], 0, True) == {()}
        assert list(ell.search([], 3, False)) == [()]
        assert list(ell.search([], 3, True)) == [] and fraction_ellipsoid([], [], 3, True) == set()
        assert list(ell.search([], -1, False)) == [] and fraction_ellipsoid([], [], -1, False) == set()

    def test_negative_bound(self):
        gram = ((2, 1, 0), (1, 2, 0), (0, 0, 4))
        ell = _ScaledLDL(gram)
        b = [1, -2, 3]
        # b.c = 83/12, so q(y - c) >= 0 > -7 + 83/12, whatever the centre
        for exact in (False, True):
            assert list(ell.search(b, -7, exact)) == []
            assert fraction_ellipsoid(gram, b, -7, exact) == set()

    def test_centre_with_large_denominator(self):
        gram = ((1009, 3, -7), (3, 997, 11), (-7, 11, 1013))
        q = PosDefForm(gram)
        assert integer_determinant(q.numer) > 10**9
        ell = _ScaledLDL(q.numer)
        rng = random.Random(34)
        inverse = fraction_inverse(gram)
        for _ in range(20):
            b = [rng.randint(-10**6, 10**6) for _ in range(3)]
            centre = [sum(m * bj for m, bj in zip(row, b)) for row in inverse]
            assert max(c.denominator for c in centre) > 10**6
            # q(y - c) <= excess + b.c, within 1 above radius
            b_dot_c = sum(bj * cj for bj, cj in zip(b, centre))
            for radius in (0, 2000, Fraction(4001, 2), 5000):
                excess = math.ceil(radius - b_dot_c)
                for exact in (False, True):
                    want = fraction_ellipsoid(gram, b, excess, exact)
                    assert set(ell.search(b, excess, exact)) == want


def strictly_increasing(xs):
    return all(a < b for a, b in zip(xs, xs[1:]))


class TestLexicographicOrder:
    """Fibers leave the search in strictly increasing lexicographic order,
    with no sort anywhere, and hold classes of the fiber (all of it: see
    ``TestFibersAgainstThetaCounts``)."""

    def test_fibers_of_sampled_ample_classes(self):
        classes = sample_ample(random.Random(31), 30) + sample_ample(
            random.Random(61), 10, max_square=24) + [num_class([2, 4] + [0] * 8)]
        for L in classes:
            lift = ComplementLift(L)
            for t in range(1, math.isqrt(L.square) + 2):  # past phi(L) <= sqrt(L^2)
                for sq, exact in ((0, True), (2, True), (4, True), (0, False), (2, False)):
                    got = lift.fiber(t, sq) if exact else lift.fiber_min_square(t, sq)
                    assert strictly_increasing([x.coords for x in got])
                    assert all(x.dot(L) == t and (x.square == sq if exact else x.square >= sq)
                               for x in got)
                # a caller that stops at its first accepted class, as mu
                # does, gets the listed fiber's first one
                fib = lift.fiber(t, 4)
                for accept in (lambda x: x.coords[2] > 0, lambda x: False):
                    want = next((x for x in fib if accept(x)), None)
                    assert next(filter(accept, lift.iter_solutions((t,), 4)), None) == want

    def test_fiber_system_solutions(self):
        rng = random.Random(62)
        for _ in range(12):
            u = num_class([rng.randint(-2, 2) for _ in range(10)])
            if u.is_zero():
                continue
            fib = FiberSystem([A0, u])
            for height in range(1, 4):
                values = [height, rng.randint(-2, 2)]
                for sq in (0, 2):
                    got = [x.coords for x in fib.solutions(values, sq)]
                    assert got == a0_system_solutions([A0, u], values, sq, True)


class TestEchelonBasis:
    def test_first_pivot_is_the_outermost_level(self):
        lift = ComplementLift(num_class([3, 3, 1, 0, 3, 1, 2, 2, 1, 2]))
        pivots = [entries[0][0] for entries in lift._entries]
        assert strictly_increasing(pivots[::-1])


class TestCertificateErrors:
    """The post-checks raise even when the kernel is wrong."""

    @staticmethod
    def _off_shell_points(ldl, b, excess, exact):
        # x = x0 + y k_0: x^2 is quadratic in y with leading term k_0^2 < 0,
        # so at most two of these three points lie on any shell
        zeros = (0,) * (len(ldl.dn) - 1)
        return iter([(y,) + zeros for y in range(3)])

    def test_fiber_post_check(self, monkeypatch):
        lift = ComplementLift(num_class([2, 4] + [0] * 8))
        monkeypatch.setattr(_ScaledLDL, "search", self._off_shell_points)
        with pytest.raises(CertificateError):
            lift.fiber(2, 0)

    def test_solutions_post_check(self, monkeypatch):
        fib = FiberSystem([basis_vector(0) + basis_vector(1)])
        monkeypatch.setattr(_ScaledLDL, "search", self._off_shell_points)
        with pytest.raises(CertificateError):
            fib.solutions([2], 0)


def u2_e8_form():
    """U(2) + E8(-1): the canonical Gram with the hyperbolic pairing doubled."""
    gram = [list(row) for row in canonical_form().gram]
    gram[0][1] = gram[1][0] = 2
    return IntersectionForm(10, tuple(map(tuple, gram)))


def random_constraints(rng, form, count):
    """A class of positive square, so the complement is negative definite,
    then count - 1 nonzero classes with coordinates in [-2, 2]."""
    while True:
        L = NumClass(tuple(rng.randint(-3, 3) for _ in range(10)), form)
        if L.square > 0:
            break
    rest = []
    while len(rest) < count - 1:
        u = NumClass(tuple(rng.randint(-2, 2) for _ in range(10)), form)
        if not u.is_zero():
            rest.append(u)
    return [L] + rest


def check_factors(ldl, numer):
    """dn/dd and rows/s are the Fraction LDL factors of numer, and
    centre_map/s is the lower-triangular part of D^-1 R^-T = R G^-1, whose
    entries above the diagonal are zero."""
    gram = [[Fraction(x) for x in row] for row in numer]
    d, r = fraction_ldl(gram)
    n = len(gram)
    assert [Fraction(x, ldl.dd) for x in ldl.dn] == d
    assert [[Fraction(x, ldl.s) for x in row] for row in ldl.rows] == [
        r[i][i + 1:] for i in range(n)
    ]
    inverse = fraction_inverse(gram)
    centre = [
        [sum(r[k][j] * inverse[j][m] for j in range(n)) for m in range(n)]
        for k in range(n)
    ]
    assert [[Fraction(x, ldl.s) for x in row] for row in ldl.centre_map] == [
        row[:k + 1] for k, row in enumerate(centre)
    ]
    assert all(x == 0 for k, row in enumerate(centre) for x in row[k + 1:])


class TestSparseBuild:
    """What a FiberSystem stores at build, from the sparse kernel entries,
    against dense recomputations and the Fraction oracles."""

    @staticmethod
    def check(form, classes, monkeypatch):
        grams = []

        class Recording(_ScaledLDL):
            def __init__(self, numer):
                grams.append(numer)
                super().__init__(numer)

        with monkeypatch.context() as m:
            m.setattr(shortvec, "_ScaledLDL", Recording)
            fib = FiberSystem(classes)
        (gram,) = grams
        kernel = [  # the sparse (column, value) lists as classes
            NumClass(tuple(dict(entries).get(j, 0) for j in range(form.rank)), form)
            for entries in fib._entries
        ]
        assert gram == [[-v.dot(w) for w in kernel] for v in kernel]
        units = _reduce([form.apply(u.coords) for u in classes])[2]
        ws = [NumClass(u, form) for u in units]
        assert fib._pivot_rows == [
            list(w.coords) + [w.dot(v) for v in kernel] + [w.dot(z) for z in ws]
            for w in ws
        ]
        check_factors(fib._ldl, gram)
        return fib

    @pytest.mark.parametrize("make_form", [canonical_form, u2_e8_form], ids=["U", "U(2)"])
    def test_random_constraint_lists(self, make_form, monkeypatch):
        form = make_form()
        rng = random.Random(36)
        for _ in range(20):
            classes = random_constraints(rng, form, rng.randint(1, 3))
            self.check(form, classes, monkeypatch)

    def test_decompose_constraint_lists(self, form, triple_iii, monkeypatch):
        # [L, E_1, ..., E_{j-1}], a class and its first isotropic
        # generators, from the realization of a pattern and from
        # decompositions of sampled classes, whose kernel vectors reach
        # four nonzero entries
        lists = []
        for gens in (triple_iii, embed_configuration(config_i(3))):
            for a in ((1, 1, 1), (3, 2, 1)):
                L = sum((ai * e for ai, e in zip(a[1:], gens[1:])), a[0] * gens[0])
                lists += [[L, *gens[:j]] for j in range(3)]
        for L in sample_ample(random.Random(41), 8, max_square=40):
            gens = [e.num for e in invariants.decompose_isotropic(DivisorClass(L)).generators]
            lists += [[L, *gens[:j]] for j in range(min(3, len(gens)))]
        widest = 0
        for classes in lists:
            fib = self.check(form, classes, monkeypatch)
            widest = max(widest, *map(len, fib._entries))
        assert widest >= 4


class FractionBuilt(Exception):
    pass


def refuse_fractions(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise FractionBuilt(args)

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)


class TestNoFractionOnTheIntegerPath:
    """Fiber searches run on ints: with fractions.Fraction unable to build
    an instance, every invariant still comes out."""

    @staticmethod
    def run_all(L):
        rep = invariants.gonality(L)
        predict_w1d(L)
        invariants.decompose_isotropic(L)
        for d in range(rep.k, rep.genus - rep.k + 1):
            enumerate_destab(L, d)

    def test_destab_classes(self, form, pair_one, monkeypatch):
        e1, e2 = pair_one
        classes = [num_class([a, b] + [0] * 8) for a, b in ((1, 6), (1, 8), (1, 10), (2, 5), (3, 4))]
        classes.append(2 * e1 + 4 * e2)
        refuse_fractions(monkeypatch)
        for L in classes:
            self.run_all(DivisorClass(L))

    def test_seeded_sweep_classes(self, monkeypatch):
        classes = sample_ample(random.Random(40), 12, max_square=40)
        refuse_fractions(monkeypatch)
        for L in classes:
            self.run_all(DivisorClass(L))

    def test_the_guard_fires(self, monkeypatch):
        refuse_fractions(monkeypatch)
        with pytest.raises(FractionBuilt):
            Fraction(1, 3)
        with pytest.raises(FractionBuilt):
            enumerate_short(PosDefForm(((2,),)), 4)
        monkeypatch.undo()
        assert Fraction(2, 4) == Fraction(1, 2)
