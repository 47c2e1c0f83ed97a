import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques_bn import lattice
from enriques_bn.errors import (
    FormMismatchError,
    NotRealizableError,
    SearchExhaustedError,
    ZeroClassError,
)
from enriques_bn.lattice import (
    DivisorClass,
    IntersectionForm,
    NumClass,
    basis_vector,
    canonical_torsion_class,
    config_i,
    config_ii,
    config_iii,
    content,
    custom_configuration,
    divisor_class,
    embed_configuration,
    inertia,
    integer_determinant,
    is_primitive,
    _echelon_basis,
    num_class,
    solve_integer_linear,
)
from oracles import (
    charpoly_inertia, fraction_det, heger_solvable, integer_solve_faults, matrix_rank, minors_gcd,
)


def random_class(rng, form, spread=5):
    return NumClass(tuple(rng.randint(-spread, spread) for _ in range(form.rank)), form)


class TestCanonicalForm:
    def test_hyperbolic_block(self, form):
        f, g = basis_vector(0), basis_vector(1)
        assert f.dot(g) == 1
        assert f.dot(f) == 0
        assert g.dot(g) == 0

    def test_unimodular(self, form):
        assert form.determinant() == -1
        # cross-check with an unrelated elimination
        assert fraction_det(form.gram) == -1

    def test_even(self, form):
        assert form.is_even()
        for i in range(form.rank):
            assert basis_vector(i).square % 2 == 0

    def test_signature(self, form):
        assert form.inertia() == (1, 9, 0)
        u = IntersectionForm(2, ((0, 1), (1, 0)))
        assert (u.inertia(), u.determinant()) == ((1, 1, 0), -1)
        # Num with a null coordinate put first: signature (1, 9), nullity 1
        gram = [(0,) * 11] + [(0,) + row for row in form.gram]
        degenerate = IntersectionForm(11, tuple(gram))
        assert (degenerate.inertia(), degenerate.determinant()) == ((1, 9, 1), 0)
        # classes of Num pull its form back, so their Gram has at most one
        # positive eigenvalue: eigenvalues 9, 5, -7, -7 are refused unsearched
        cfg = custom_configuration([[0, 7, 1, 1], [7, 0, 1, 1], [1, 1, 0, 7], [1, 1, 7, 0]])
        assert inertia(cfg.gram_sub) == (2, 2, 0)
        with pytest.raises(NotRealizableError):
            embed_configuration(cfg)

    def test_gram_is_symmetric_with_documented_blocks(self, form):
        g = form.gram
        assert g[0][:2] == (0, 1) and g[1][:2] == (1, 0)
        assert all(g[0][j] == 0 for j in range(2, 10))
        # the E8 block carries -2 on the diagonal
        assert all(g[i][i] == -2 for i in range(2, 10))


def random_symmetric(rng, n):
    """A symmetric integer matrix of size n; about half of them are X D X^T
    with X of n x m, m < n, so singular."""
    if n and rng.random() < 0.5:
        m = rng.randrange(n)
        x = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        d = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1):
                d[i][j] = d[j][i] = rng.randint(-3, 3)
        return [
            [sum(x[i][k] * d[k][l] * x[j][l] for k in range(m) for l in range(m))
             for j in range(n)]
            for i in range(n)
        ]
    spread = rng.choice((1, 2, 9))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rng.randint(-spread, spread)
    return a


class TestInertia:
    """``inertia`` and ``integer_determinant`` against the characteristic
    polynomial and fraction elimination, which share no step with them."""

    def test_against_the_oracles(self):
        rng = random.Random(25)
        singular = 0
        for _ in range(2000):
            a = random_symmetric(rng, rng.randint(0, 8))
            want = charpoly_inertia(a)
            assert inertia(a) == want
            assert integer_determinant(a) == fraction_det(a)
            singular += want[2] > 0
        assert singular >= 600

    @pytest.mark.parametrize("gram, want", [
        ([[-1, -1, -1], [-1, 0, 0], [-1, 0, 1]], (2, 1, 0)),
        ([[0, -2, 0], [-2, 0, -1], [0, -1, 0]], (1, 1, 1)),
        ([[-1, -1, -1, -1], [-1, -1, -1, -1], [-1, -1, -1, -1], [-1, -1, -1, 0]],
         (1, 1, 2)),
    ])
    def test_inputs_the_fraction_reduction_miscounted(self, gram, want):
        assert inertia(gram) == want == charpoly_inertia(gram)
        assert integer_determinant(gram) == fraction_det(gram)

    def test_empty_matrix(self):
        assert integer_determinant([]) == 1
        assert inertia([]) == (0, 0, 0)

    @pytest.mark.parametrize("gram", [[[1, 2]], [[1], [2]], [[1, 2], [3, 4]], [[0, 1], [1]]])
    def test_not_square_or_not_symmetric_rejected(self, gram):
        with pytest.raises(ValueError):
            inertia(gram)
        with pytest.raises(ValueError):
            integer_determinant(gram)


class TestPairing:
    def test_embedded_class_square(self, pair_two):
        e1, e2 = pair_two
        big = 3 * e1 + 3 * e2
        assert big.square == 36  # 9 * 2 * (E1.E2) with E1.E2 = 2

    def test_even_squares_random(self, form):
        rng = random.Random(11)
        for _ in range(100):
            x = random_class(rng, form)
            assert x.square % 2 == 0

    def test_bilinear_symmetric(self, form):
        rng = random.Random(12)
        for _ in range(50):
            x, y, z = (random_class(rng, form) for _ in range(3))
            assert (x + y).dot(z) == x.dot(z) + y.dot(z)
            assert x.dot(y) == y.dot(x)

    def test_mixed_forms_rejected(self, form):
        other = IntersectionForm(2, ((0, 1), (1, 0)))
        x = basis_vector(0)
        y = NumClass((1, 0), other)
        with pytest.raises(FormMismatchError):
            x.dot(y)


@st.composite
def form_and_classes(draw):
    """A random symmetric integer form of rank 1..10 (odd, zero and nonzero
    diagonal entries all occur), two classes in it and a scalar."""
    n = draw(st.integers(1, 10))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    form = IntersectionForm(n, tuple(tuple(row) for row in gram))
    coords = st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple)
    return NumClass(draw(coords), form), NumClass(draw(coords), form), draw(
        st.integers(-4, 4)
    )


def dense_dot(x, y):
    g = x.form.gram
    n = x.form.rank
    return sum(g[i][j] * x.coords[i] * y.coords[j] for i in range(n) for j in range(n))


class TestPairingDifferential:
    """The stored sparse terms against dense sums over the whole Gram."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(form_and_classes())
    def test_dot_square_apply_match_dense_sums(self, drawn):
        x, y, _ = drawn
        g, n = x.form.gram, x.form.rank
        assert x.dot(y) == dense_dot(x, y) == y.dot(x)
        assert x.square == dense_dot(x, x)
        assert x.form.apply(y.coords) == tuple(
            sum(g[i][j] * y.coords[j] for j in range(n)) for i in range(n)
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(form_and_classes())
    def test_square_after_arithmetic(self, drawn):
        x, y, k = drawn
        assert x.square == dense_dot(x, x)  # fill the cached square first
        for z in (x + y, x - y, -x, k * x, x * k):
            assert z.square == dense_dot(z, z)
        assert (k * x).square == k * k * x.square


class TestNumClassOperands:
    def test_foreign_operands_are_refused(self):
        x = num_class([1, 2] + [0] * 8)
        assert x.__eq__(x.coords) is NotImplemented and x != x.coords
        assert x.__rmul__(1.5) is NotImplemented
        for product in (lambda: 1.5 * x, lambda: x * 1.5):
            with pytest.raises(TypeError):
                product()


class TestContent:
    def test_gcd_example(self):
        c, prim = content(num_class([2, 4] + [0] * 8))
        assert c == 2
        assert prim.coords == (1, 2) + (0,) * 8

    def test_primitive_class(self):
        f = basis_vector(0)
        assert content(f) == (1, f)
        assert is_primitive(f)

    def test_embedded_multiple(self, pair_two):
        e1, e2 = pair_two
        b = e1 + e2
        assert content(b)[0] == 1
        triple = 3 * b
        c, prim = content(triple)
        assert c == 3 and prim == b
        assert all(x % 3 == 0 for x in triple.coords)

    def test_scaling_property(self, form):
        rng = random.Random(13)
        for _ in range(25):
            x = random_class(rng, form, spread=4)
            if x.is_zero():
                continue
            for k in (1, 2, 3, 5):
                assert content(k * x)[0] == k * content(x)[0]

    def test_zero_rejected(self, form):
        with pytest.raises(ZeroClassError):
            content(num_class([0] * 10))


class TestDivisorClass:
    def test_torsion_involution(self):
        ks = canonical_torsion_class()
        d = divisor_class([1, 2, 0, 0, 0, 1, 0, 0, 0, 0], 0)
        assert (d + ks) + ks == d
        assert (d + ks).torsion == 1

    def test_negation_keeps_torsion(self):
        ks = canonical_torsion_class()
        assert -ks == ks  # 2K_S ~ 0
        d = divisor_class([1, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1)
        assert (-d).torsion == 1

    def test_pairing_ignores_torsion(self, pair_one):
        e1, e2 = pair_one
        a = DivisorClass(e1, 0)
        b = DivisorClass(e2, 1)
        assert a.dot(b) == e1.dot(e2)

    def test_integer_multiples(self):
        d = divisor_class([1, 2, 0, 0, 0, 1, 0, 0, 0, 0], 1)
        assert (3 * d).torsion == 1 and (2 * d).torsion == 0  # 2K_S ~ 0
        assert d * 3 == 3 * d and (3 * d).num == 3 * d.num
        with pytest.raises(TypeError):
            d * 1.5

    def test_bool_torsion_rejected(self, pair_one):
        # True == 1, but a bool bit would print as the non-JSON `True`
        for bit in (True, False):
            with pytest.raises(ValueError):
                DivisorClass(pair_one[0], bit)


class TestSolveIntegerLinear:
    def test_single_equation(self):
        x0, kernel = solve_integer_linear([[2, 3]], [1])
        assert x0 is not None and 2 * x0[0] + 3 * x0[1] == 1
        assert len(kernel) == 1
        kv = kernel[0]
        assert 2 * kv[0] + 3 * kv[1] == 0 and kv != (0, 0)

    def test_unsolvable_parity(self):
        x0, kernel = solve_integer_linear([[2, 4]], [1])
        assert x0 is None
        assert len(kernel) == 1

    def test_inconsistent_system(self):
        x0, _ = solve_integer_linear([[1, 0], [1, 0]], [0, 1])
        assert x0 is None

    def test_random_systems(self):
        rng = random.Random(14)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(3)]
            secret = [rng.randint(-3, 3) for _ in range(6)]
            rhs = [sum(r * s for r, s in zip(row, secret)) for row in rows]
            x0, kernel = solve_integer_linear(rows, rhs)
            assert x0 is not None
            assert [sum(r * x for r, x in zip(row, x0)) for row in rows] == rhs
            for kv in kernel:
                assert all(sum(r * x for r, x in zip(row, kv)) == 0 for row in rows)


def pivots_of(vectors):
    return [next(j for j, a in enumerate(v) if a) for v in vectors]


def spans_each_other(a, b):
    """Each basis is an integer combination of the other: a unimodular
    change of basis."""
    return all(heger_solvable(list(zip(*x)), w) for x, y in ((a, b), (b, a)) for w in y)


def unimodular_mix(rng, vectors):
    """Another basis of the lattice spanned by vectors: random sign flips
    and row additions, then a shuffle."""
    rows = [list(v) for v in vectors]
    for _ in range(12):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        q = rng.choice((-2, -1, 1, 2)) if i != j else -2  # i == j: a sign flip
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


class TestEchelonBasis:
    def test_positive_increasing_pivots_on_the_same_lattice(self):
        # saturated lattices of rank k = 1..9 in Z^10; for k < 3 the first vector is doubled
        rng = random.Random(63)
        for _ in range(40):
            k = rng.randint(1, 9)
            while True:
                base = [[rng.randint(-3, 3) for _ in range(10)] for _ in range(k)]
                if matrix_rank(base) == k and minors_gcd(base, k) == 1:
                    break
            if k < 3:
                base[0] = [2 * a for a in base[0]]
            basis = unimodular_mix(rng, base)
            pivots, ech = _echelon_basis(basis)
            assert len(ech) == k
            assert pivots == pivots_of(ech)
            assert all(v[p] > 0 for v, p in zip(ech, pivots))
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            assert spans_each_other(basis, ech)


def random_system(rng, r, n):
    """An r x n integer system of random rank: r combinations of rank rows."""
    rank = rng.randint(1, min(r, n))
    base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    rows = []
    for _ in range(r):
        mix = [rng.randint(-2, 2) for _ in range(rank)]
        rows.append([sum(m * b[j] for m, b in zip(mix, base)) for j in range(n)])
    return rows


class TestSolveAgainstItsDefinition:
    """The row reduction against the definition of its answer
    (``integer_solve_faults``), on the fiber shapes (1-3 x 10) and the
    coefficient-solve shapes (10 x n)."""

    def systems(self):
        rng = random.Random(15)
        shapes = [(r, 10) for r in (1, 2, 3)] + [(10, n) for n in range(2, 7)]
        for r, n in shapes:
            for _ in range(25):
                rows = random_system(rng, r, n)
                secret = [rng.randint(-3, 3) for _ in range(n)]
                yield rows, [sum(a * x for a, x in zip(row, secret)) for row in rows]
                yield rows, [rng.randint(-5, 5) for _ in range(r)]
                # parity: twice a row cannot reach an odd value
                doubled = [[2 * a for a in rows[0]]] + rows[1:]
                yield doubled, [1] + [0] * (r - 1)
                # inconsistent: one row asked for two values
                yield rows + [rows[0]], [0] * r + [1]

    def test_same_solvability_and_kernel_lattice(self):
        outcomes = set()
        for rows, rhs in self.systems():
            x0, kernel = solve_integer_linear(rows, rhs)
            assert integer_solve_faults(rows, rhs, x0, kernel) == []
            pivots = pivots_of(kernel)
            assert all(v[p] > 0 for v, p in zip(kernel, pivots))
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            outcomes.add((x0 is None, len(kernel) > 0))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


class TestEmbedConfiguration:
    def check_gram(self, classes, wanted):
        n = len(classes)
        got = [[classes[i].dot(classes[j]) for j in range(n)] for i in range(n)]
        assert tuple(tuple(r) for r in got) == wanted

    def test_pattern_one_pair_is_hyperbolic_basis(self, pair_one):
        f, g = basis_vector(0), basis_vector(1)
        assert set(pair_one) == {f, g}
        assert pair_one[0].dot(pair_one[1]) == 1

    def test_pattern_two_pair(self, pair_two):
        e1, e2 = pair_two
        assert e1.square == 0 and e2.square == 0
        assert e1.dot(e2) == 2
        assert is_primitive(e1) and is_primitive(e2)

    def test_all_named_patterns_match_their_gram(
        self, pair_one, pair_two, triple_one, triple_iii
    ):
        self.check_gram(pair_one, config_i(2).gram_sub)
        self.check_gram(pair_two, config_ii(2).gram_sub)
        self.check_gram(triple_one, config_i(3).gram_sub)
        self.check_gram(triple_iii, config_iii(3).gram_sub)

    def test_positive_cone(self, triple_iii):
        a0 = basis_vector(0) + basis_vector(1)
        for e in triple_iii:
            assert e.dot(a0) > 0

    def test_deterministic(self, pair_two):
        again = embed_configuration(config_ii(2))
        assert again == list(pair_two)

    def test_named_patterns_need_enough_classes(self):
        with pytest.raises(NotRealizableError, match="n >= 2"):
            config_ii(1)
        with pytest.raises(NotRealizableError, match="n >= 3"):
            config_iii(2)

    @pytest.mark.parametrize("make", [config_i, config_ii, config_iii])
    @pytest.mark.parametrize("n", [11, 30_000, 100_000])
    def test_size_is_checked_before_the_gram_is_built(self, monkeypatch, make, n):
        # an n x n Gram of a large n would not fit in memory
        def gram(size, two_pairs):
            raise AssertionError(f"built a {size} x {size} Gram")

        monkeypatch.setattr(lattice, "_pattern_gram", gram)
        with pytest.raises(NotRealizableError, match=f"need 1 <= n <= 10, got {n}"):
            make(n)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NotRealizableError):
            custom_configuration([[0, 1], [1, 1]])

    def test_odd_diagonal_rejected(self):
        with pytest.raises(NotRealizableError):
            custom_configuration([[3, 1], [1, 0]])

    def test_zero_pairing_rejected(self):
        # distinct effective primitive isotropic classes always meet
        with pytest.raises(NotRealizableError):
            custom_configuration([[0, 0], [0, 0]])

    def test_search_exhaustion_reported(self, monkeypatch):
        # two:7 needs degree 3 = ceil(sqrt(7)); a run-out search names its bound
        monkeypatch.setattr(lattice, "EMBED_MAX_HEIGHT", 1)
        cfg = custom_configuration([[0, 7], [7, 0]])
        with pytest.raises(SearchExhaustedError, match="EMBED_MAX_HEIGHT = 1"):
            embed_configuration(cfg)

    @pytest.mark.parametrize("max_height", [1, 2, 6])
    def test_realizations_within_the_height(self, max_height, monkeypatch):
        # every pattern (i) 2..10, (ii) 2..10, (iii) 3..10: a realization has
        # the pattern's Gram and primitive classes of (f+g)-degree 1..height
        monkeypatch.setattr(lattice, "EMBED_MAX_HEIGHT", max_height)
        ample = basis_vector(0) + basis_vector(1)
        got = {}
        for make, smallest in ((config_i, 2), (config_ii, 2), (config_iii, 3)):
            for n in range(smallest, 11):
                cfg = make(n)
                try:
                    gens = embed_configuration(cfg)
                except SearchExhaustedError:
                    got[make.__name__, n] = "exhausted"
                    continue
                got[make.__name__, n] = "embedded"
                assert tuple(tuple(e.dot(f) for f in gens) for e in gens) == cfg.gram_sub
                assert all(is_primitive(e) for e in gens)
                assert all(1 <= e.dot(ample) <= max_height for e in gens)
        assert len(got) == 26
        if max_height == 1:
            assert got["config_ii", 2] == "exhausted"
        else:
            assert "exhausted" not in got.values()

    def test_custom_realizable(self):
        cfg = custom_configuration([[0, 3], [3, 0]])
        e1, e2 = embed_configuration(cfg)
        assert e1.dot(e2) == 3
        assert e1.square == e2.square == 0
