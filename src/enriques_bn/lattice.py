"""Exact arithmetic in the rank-10 even unimodular lattice U + E8(-1).

The numerical lattice of an Enriques surface is U + E8(-1), signature (1,9).
Coordinates 1-2 span the hyperbolic plane U with Gram [[0,1],[1,0]];
coordinates 3-10 carry the E8 root lattice with its form negated, basis in
Bourbaki node order.  Everything below is exact integer arithmetic; floats
never appear.

Each :class:`IntersectionForm` computes the nonzero terms of its Gram
matrix once and keeps them on the instance: the diagonal entries plus each
off-diagonal pair i < j once (16 terms for U + E8(-1) instead of 24), and
the nonzero entries of every row.  ``NumClass.dot``, ``NumClass.square``,
``IntersectionForm.apply`` and the build of ``shortvec.FiberSystem`` loop
over these terms only, and a class computes its square once.  The terms
are derived from ``gram`` and take no part in equality or hashing; a form
hashes once, a class hashes its coordinates only.  The value types are
slotted ``frozen.Frozen`` classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    FormMismatchError,
    NotAmpleEnoughError,
    NotRealizableError,
    SearchExhaustedError,
    ZeroClassError,
)
from .frozen import Frozen, set_field

RANK = 10

# Bourbaki E8 diagram: chain 1-3-4-5-6-7-8 with node 2 attached to node 4.
_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _e8_cartan() -> list[list[int]]:
    c = [[0] * 8 for _ in range(8)]
    for i in range(8):
        c[i][i] = 2
    for a, b in _E8_EDGES:
        c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    return c


class IntersectionForm(Frozen):
    """A symmetric integer bilinear form on Z^rank."""

    # _diagonal, _off_diagonal, _rows: the nonzero terms of gram, (i, g_ii)
    # on the diagonal, (i, j, g_ij) for i < j, and (j, g_ij) for every row i
    __slots__ = ("rank", "gram", "_diagonal", "_off_diagonal", "_rows", "_hash")
    _fields = ("rank", "gram")

    def __init__(self, rank: int, gram: tuple[tuple[int, ...], ...]):
        if len(gram) != rank or any(len(r) != rank for r in gram):
            raise ValueError("gram matrix size does not match rank")
        for i in range(rank):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        g, n = gram, rank
        set_field(self, "rank", rank)
        set_field(self, "gram", gram)
        set_field(self, "_diagonal", tuple((i, g[i][i]) for i in range(n) if g[i][i]))
        set_field(self, "_off_diagonal", tuple(
            (i, j, g[i][j]) for i in range(n) for j in range(i + 1, n) if g[i][j]
        ))
        set_field(self, "_rows", tuple(
            tuple((j, v) for j, v in enumerate(row) if v) for row in g
        ))
        set_field(self, "_hash", hash((rank, gram)))

    def __hash__(self):
        return self._hash

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        return integer_determinant(self.gram)

    def inertia(self) -> tuple[int, int, int]:
        """(positive, negative, zero) eigenvalue counts of gram, on ints."""
        return inertia(self.gram)

    def apply(self, coords: Sequence[int]) -> tuple[int, ...]:
        """gram @ coords, the linear functional <., coords>."""
        return tuple(sum(v * coords[j] for j, v in row) for row in self._rows)


class NumClass(Frozen):
    """An element of the numerical lattice, as coordinates in a fixed form.
    Equal classes have equal coordinates, so the hash reads those alone."""

    __slots__ = ("coords", "form", "_square")
    _fields = ("coords", "form")

    def __init__(self, coords: tuple[int, ...], form: IntersectionForm):
        if len(coords) != form.rank:
            raise ValueError(f"expected {form.rank} coordinates, got {len(coords)}")
        _set_coords(self, coords)
        _set_form(self, form)
        _set_square(self, None)  # set on first use of square

    def __eq__(self, other):
        if other.__class__ is not NumClass:
            return NotImplemented
        return self.coords == other.coords and (
            self.form is other.form or self.form == other.form
        )

    def __hash__(self):
        return hash(self.coords)

    def _check(self, other: "NumClass") -> None:
        if self.form is not other.form and self.form != other.form:
            raise FormMismatchError("classes live in different intersection forms")

    def dot(self, other: "NumClass") -> int:
        self._check(other)
        a, b = self.coords, other.coords
        acc = 0
        for i, v in self.form._diagonal:
            acc += v * a[i] * b[i]
        for i, j, v in self.form._off_diagonal:
            acc += v * (a[i] * b[j] + a[j] * b[i])
        return acc

    @property
    def square(self) -> int:
        square = self._square
        if square is not None:
            return square
        a = self.coords
        diagonal = off = 0
        for i, v in self.form._diagonal:
            diagonal += v * a[i] * a[i]
        for i, j, v in self.form._off_diagonal:
            off += v * a[i] * a[j]
        square = diagonal + 2 * off
        _set_square(self, square)
        return square

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "NumClass") -> "NumClass":
        self._check(other)
        return NumClass(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.form
        )

    def __sub__(self, other: "NumClass") -> "NumClass":
        self._check(other)
        return NumClass(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.form
        )

    def __neg__(self) -> "NumClass":
        return NumClass(tuple(-a for a in self.coords), self.form)

    def __rmul__(self, k: int) -> "NumClass":
        if not isinstance(k, int):
            return NotImplemented
        return NumClass(tuple(k * a for a in self.coords), self.form)

    def __mul__(self, k: int) -> "NumClass":
        return self.__rmul__(k)


# NumClass is built once per lattice point searched: its slots are set
# through their own descriptors, which skips set_field's attribute lookup
_set_coords, _set_form, _set_square = (
    NumClass.__dict__[name].__set__ for name in NumClass.__slots__
)


def content(x: NumClass) -> tuple[int, NumClass]:
    """gcd of coordinates and the primitive part: x = c * primitive.

    In a unimodular lattice the content-1 classes are exactly the
    primitive ones.
    """
    if x.is_zero():
        raise ZeroClassError("the zero class has no content decomposition")
    c = 0
    for a in x.coords:
        c = math.gcd(c, a)
    return c, NumClass(tuple(a // c for a in x.coords), x.form)


def is_primitive(x: NumClass) -> bool:
    return math.gcd(*x.coords) == 1  # the gcd of the zero class is 0


class DivisorClass(Frozen):
    """Numerical class plus a torsion bit (0: the class, 1: class + K_S).

    The Picard group of an Enriques surface is Num + Z/2.K_S; intersection
    numbers never see the bit, cohomology sometimes does.
    """

    __slots__ = _fields = ("num", "torsion")

    def __init__(self, num: NumClass, torsion: int = 0):
        if isinstance(torsion, bool) or torsion not in (0, 1):
            raise ValueError("torsion bit must be the int 0 or 1")
        set_field(self, "num", num)
        set_field(self, "torsion", torsion)

    def dot(self, other: "DivisorClass | NumClass") -> int:
        o = other.num if isinstance(other, DivisorClass) else other
        return self.num.dot(o)

    @property
    def square(self) -> int:
        return self.num.square

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.num + other.num, self.torsion ^ other.torsion)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.num - other.num, self.torsion ^ other.torsion)

    def __neg__(self) -> "DivisorClass":
        # 2K_S ~ 0, so -(D + K_S) = -D + K_S: the bit survives negation.
        return DivisorClass(-self.num, self.torsion)

    def __rmul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int):
            return NotImplemented
        return DivisorClass(k * self.num, (k * self.torsion) % 2)

    def __mul__(self, k: int) -> "DivisorClass":
        return self.__rmul__(k)


@lru_cache(maxsize=1)
def canonical_form() -> IntersectionForm:
    """The fixed rank-10 form U + E8(-1) in the documented basis order."""
    g = [[0] * RANK for _ in range(RANK)]
    g[0][1] = g[1][0] = 1
    cartan = _e8_cartan()
    for i in range(8):
        for j in range(8):
            g[2 + i][2 + j] = -cartan[i][j]
    return IntersectionForm(RANK, tuple(tuple(row) for row in g))


def basis_vector(i: int, form: IntersectionForm | None = None) -> NumClass:
    form = form or canonical_form()
    coords = [0] * form.rank
    coords[i] = 1
    return NumClass(tuple(coords), form)


def num_class(coords: Iterable[int], form: IntersectionForm | None = None) -> NumClass:
    return NumClass(tuple(int(c) for c in coords), form or canonical_form())


def divisor_class(
    coords: Iterable[int], torsion: int = 0, form: IntersectionForm | None = None
) -> DivisorClass:
    return DivisorClass(num_class(coords, form), torsion)


def canonical_torsion_class(form: IntersectionForm | None = None) -> DivisorClass:
    """K_S: numerically trivial, 2K_S ~ 0, K_S itself nontrivial."""
    form = form or canonical_form()
    return DivisorClass(NumClass((0,) * form.rank, form), 1)


#: The simple roots of W(E10): alpha_{-1} = g - f, alpha_0 = f - theta
#: (theta the highest root of the E8(-1) block), then alpha_8 down to
#: alpha_1, the basis vectors of coordinates 10 down to 3.  Each has square
#: -2 and pairs to 1 with its neighbours in the T_{2,3,7} diagram (_T237),
#: to 0 with the rest.
CHAMBER_ROOTS = ((-1, 1) + (0,) * 8, (1, 0, -2, -3, -4, -6, -5, -4, -3, -2)) + tuple(
    tuple(int(i == k) for i in range(RANK)) for k in range(RANK - 1, 1, -1)
)
_T237 = ((1,), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7, 8), (6, 9), (6,), (7,))


@lru_cache(maxsize=1)
def _chamber_roots() -> tuple:
    """Each simple root r as its nonzero (i, r_i) and the nonzero
    (i, (G r)_i), G the Gram matrix."""
    gram = canonical_form().gram
    return tuple(
        (tuple((i, v) for i, v in enumerate(r) if v),
         tuple((i, v) for i, row in enumerate(gram) if (v := sum(map(mul, row, r)))))
        for r in CHAMBER_ROOTS
    )


def chamber_reduce(x: NumClass) -> NumClass:
    """x_red, the one class of the W(E10) orbit of x in the closed chamber
    {y : y.r >= 0 for every r in CHAMBER_ROOTS}.  x must lie in the
    positive cone (x^2 > 0, x.(f + g) > 0) of ``canonical_form()``: another
    form raises FormMismatchError, a class outside the cone
    NotAmpleEnoughError, before the first reflection.

    The numbers game: y_r = x.r is kept for the ten simple roots, and
    while some y_r < 0 one such r reflects x <- x + y_r r.  That sets y_r
    to -y_r and adds y_r to y_s for each neighbour s of r; no other y_s
    moves, so only a neighbour joins the roots left to try.  x_red is x
    plus the sum of every step's y_r r.

    It ends: the Weyl vector rho (rho.r = 1 for every simple r,
    rho^2 = 1240, rho.(f + g) = 61) lies in the positive cone, so x.rho is
    a positive integer, and each step lowers it by -y_r >= 1.

    W(E10) = O^+(E10), with this chamber as a fundamental domain (Vinberg,
    Math. USSR Sb. 16, 1972), so x_red depends on the orbit of x alone.
    For x, y in the closed chamber and w in W, x.w(y) >= x.y: w(y) - y is
    a nonnegative combination of simple roots, by induction on the length
    of w = w's_r, l(w) = l(w') + 1, as w(y) = w'(y) + (y.r) w'(r) with
    y.r >= 0 and w'(r) a positive root (Humphreys, *Reflection Groups and
    Coxeter Groups*, 5.4-5.7), and x.r >= 0 for every simple r.

    So phi(x) = x_red.f.  The primitive isotropic classes in the closure
    of the cone are one O^+-orbit, that of f (Cossec-Dolgachev, *Enriques
    Surfaces I*, ch. II), and f, the weight of alpha_{-1}, lies in the
    closed chamber.  With x = u(x_red), an E = w(f) has
    x.E = x_red.(u^-1 w)(f) >= x_red.f, with equality at E = u(f).
    """
    form = canonical_form()
    if x.form is not form and x.form != form:
        raise FormMismatchError("the W(E10) chamber is given in canonical_form() only")
    if x.square <= 0 or x.coords[0] + x.coords[1] <= 0:  # x.(f + g) = x_1 + x_2
        raise NotAmpleEnoughError(f"{x.coords} is not in the positive cone")
    roots = _chamber_roots()
    coords = list(x.coords)
    y = [sum(coords[i] * v for i, v in column) for _, column in roots]
    steps = [0] * RANK
    todo = [k for k in range(RANK - 1, -1, -1) if y[k] < 0]
    while todo:
        k = todo.pop()
        p = y[k]
        if p < 0:
            y[k] = -p
            steps[k] += p
            for j in _T237[k]:
                y[j] += p
                if y[j] < 0:
                    todo.append(j)
    for c, (entries, _) in zip(steps, roots):
        for i, v in entries:
            coords[i] += c * v
    return NumClass(tuple(coords), form)


# ---------------------------------------------------------------------------
# Exact linear algebra helpers (integers only).
# ---------------------------------------------------------------------------


def _congruence_pivots(gram: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The leading minors 1 = p_0, ..., p_r (all nonzero) of M = T^T G T, T an
    integer matrix with det T = +-1, and the nullity n - r of G, by Bareiss
    elimination by congruence (Bareiss, Math. Comp. 22, 1968).

    After k steps, with P the pivot indices, the block ``a`` holds the minors
    of M on rows P + {i} and columns P + {j}: integers, with a_00 = p_{k+1}.
    By Sylvester's identity (a_00 a_ij - a_i0 a_0j) / p_k is the minor on
    P + {0, i}, P + {0, j}, so each step divides exactly.  A zero pivot is
    mended by a congruence of M that acts alike on the block: swap in a later
    a_jj != 0; else add row and column c with a_0c != 0 (a minor bordering
    P x P is bilinear in its last row and column), so the pivot is 2 a_0c;
    else the row is zero: M x = 0 for a rational x on P and this index, which
    no later step touches, so the index is dropped, null, and rank G = r.
    """
    a = [[int(x) for x in row] for row in gram]
    if a != [list(column) for column in zip(*a)]:  # ragged rows fail too
        raise ValueError("gram matrix must be square and symmetric")
    pivots, nullity = [1], 0
    while a:
        if a[0][0] == 0:
            j = next((j for j, row in enumerate(a) if row[j]), None)
            if j is not None:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
            else:
                c = next((c for c, x in enumerate(a[0]) if x), None)
                if c is None:
                    nullity += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(a[0], a[c])]
                for row in a:
                    row[0] += row[c]
        pk, prev, top = a[0][0], pivots[-1], a[0][1:]
        a = [[(pk * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
             for row in a[1:]]
        pivots.append(pk)
    return pivots, nullity


def integer_determinant(gram: Sequence[Sequence[int]]) -> int:
    """det G = det M of :func:`_congruence_pivots`, for a symmetric G."""
    pivots, nullity = _congruence_pivots(gram)
    return 0 if nullity else pivots[-1]


def inertia(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric G: M's, by
    Sylvester's law, with p_k / p_(k-1) < 0 at each sign change (Jacobi)."""
    pivots, nullity = _congruence_pivots(gram)
    neg = sum((p < 0) != (q < 0) for p, q in zip(pivots, pivots[1:]))
    return len(pivots) - 1 - neg, neg, nullity


def _echelon_basis(
    vectors: Sequence[Sequence[int]],
) -> tuple[list[int], list[tuple[int, ...]]]:
    """A row-echelon basis of the lattice spanned by independent rows, and
    its pivot columns.

    Row r has its first nonzero entry, which is positive, in column p_r,
    with p_0 < p_1 < ...  Only unimodular row operations are used (Euclid
    on each column), so the rows span the same lattice (the Hermite form of
    Cohen, GTM 138, 2.4, without the reduction above the pivots: adding
    later rows to earlier ones changes no search node count).
    """
    rows = [list(v) for v in vectors]
    pivots: list[int] = []
    out: list[tuple[int, ...]] = []
    for col in range(len(rows[0]) if rows else 0):
        if not rows:
            break
        live = [r for r in rows if r[col]]
        if not live:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[:] = [a - q * b for a, b in zip(r, piv)]
            live = [r for r in live if r[col]]
        piv = live[0]
        rows = [r for r in rows if r is not piv]
        pivots.append(col)
        out.append(tuple(piv) if piv[col] > 0 else tuple([-a for a in piv]))
    return pivots, out


def _reduce(rows: Sequence[Sequence[int]]) -> tuple[
    list[int], list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[int, ...]]
]:
    """:func:`_echelon_basis` of [rows^T | I], split as ``(pivots, heads,
    units, kernel)``.

    Each reduced row is a pair (h, u) with h = rows @ u, and the u form a
    basis of Z^n.  The rows with h != 0 come first: their h are ``heads``,
    their u are ``units``, and ``pivots`` holds the column of the first
    nonzero entry of each h, strictly increasing.  The u of the other rows
    are ``kernel``: a basis of the integer kernel of rows, in echelon form
    with positive, strictly increasing pivots.
    """
    r = len(rows)
    n = len(rows[0]) if r else 0
    augmented = []
    for a, column in enumerate(zip(*rows)):
        v = list(column) + [0] * n
        v[r + a] = 1
        augmented.append(v)
    pivots, reduced = _echelon_basis(augmented)
    m = bisect_left(pivots, r)
    heads = [v[:r] for v in reduced[:m]]
    units = [v[r:] for v in reduced[:m]]
    return pivots[:m], heads, units, [v[r:] for v in reduced[m:]]


def _substitute(
    pivots: Sequence[int], heads: Sequence[Sequence[int]], rhs: Sequence[int]
) -> list[int] | None:
    """The integers c with sum_i c_i heads[i] = rhs, by forward substitution
    on the echelon rows ``heads`` (pivot columns ``pivots``), or None when
    there are none.

    A remainder of the division at pivot p stays in the residual at p,
    where no later row has an entry, so the final check also rejects it.
    """
    res = list(rhs)
    c = []
    for p, h in zip(pivots, heads):
        ci = res[p] // h[p]
        c.append(ci)
        if ci:
            res = [a - ci * b for a, b in zip(res, h)]
    return None if any(res) else c


def solve_integer_linear(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...] | None, list[tuple[int, ...]]]:
    """Solve rows @ x = rhs over the integers.

    Returns ``(x0, kernel)``: one particular integer solution (or None if the
    system has no integer solution) and a basis of the integer kernel of the
    homogeneous system.  Both come from one unimodular row reduction
    (:func:`_reduce`): x0 = sum c_i u_i over its ``units``, c found by
    forward substitution.  The kernel basis is a genuine lattice
    basis in row-echelon form: the first nonzero entry of each vector is
    positive, and those entries sit in strictly increasing columns.  The
    ordering certificate of :meth:`FiberSystem._set_up` rests on this.
    """
    pivots, heads, units, kernel = _reduce(rows)
    c = _substitute(pivots, heads, rhs)
    if c is None:
        return None, kernel
    x0 = [0] * (len(rows[0]) if rows else 0)
    for ci, u in zip(c, units):
        x0 = [a + ci * b for a, b in zip(x0, u)]
    return tuple(x0), kernel


# ---------------------------------------------------------------------------
# Isotropic configurations.
# ---------------------------------------------------------------------------

CONFIG_I = "config-i"
CONFIG_II = "config-ii"
CONFIG_III = "config-iii"
CONFIG_CUSTOM = "custom"


class ConfigurationPresentation(Frozen):
    """Requested pairwise intersections of n primitive isotropic classes.

    The three named patterns are the ones every effective class of
    nonnegative square decomposes into: (i) all pairings 1; (ii) the first
    pair meets in 2, the rest in 1; (iii) the first class meets the second
    and third in 2, all remaining pairs meet in 1.
    """

    __slots__ = ("n", "gram_sub", "label")
    _fields = ("gram_sub", "label")  # n, a slot, is read from gram_sub

    def __init__(self, gram_sub: tuple, label: str):
        g, n = gram_sub, len(gram_sub)
        _check_size(n)
        if any(len(row) != n for row in g):
            raise NotRealizableError(f"sub-Gram size: every row needs n = {n} entries")
        for i in range(n):
            if g[i][i] != 0:
                raise NotRealizableError(
                    "isotropic classes need a zero diagonal; "
                    f"entry ({i + 1},{i + 1}) is {g[i][i]}"
                )
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise NotRealizableError("sub-Gram must be symmetric")
                if g[i][j] < 1:
                    raise NotRealizableError(
                        "distinct effective isotropic classes pair positively; "
                        f"entry ({j + 1},{i + 1}) is {g[i][j]}"
                    )
        set_field(self, "n", n)
        set_field(self, "gram_sub", gram_sub)
        set_field(self, "label", label)


def _check_size(n: int) -> None:
    if not 1 <= n <= 10:
        raise NotRealizableError(f"need 1 <= n <= 10, got {n}")


def _pattern(
    n: int, two_pairs: Sequence[tuple[int, int]], label: str
) -> ConfigurationPresentation:
    _check_size(n)  # before the n x n Gram, which a large n cannot fit in memory
    return ConfigurationPresentation(_pattern_gram(n, two_pairs), label)


def _pattern_gram(n: int, two_pairs: Sequence[tuple[int, int]]) -> tuple:
    g = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    for a, b in two_pairs:
        g[a][b] = g[b][a] = 2
    return tuple(tuple(row) for row in g)


def config_i(n: int) -> ConfigurationPresentation:
    return _pattern(n, (), CONFIG_I)


def config_ii(n: int) -> ConfigurationPresentation:
    if n < 2:
        raise NotRealizableError("pattern (ii) needs n >= 2")
    return _pattern(n, ((0, 1),), CONFIG_II)


def config_iii(n: int) -> ConfigurationPresentation:
    if n < 3:
        raise NotRealizableError("pattern (iii) needs n >= 3")
    return _pattern(n, ((0, 1), (0, 2)), CONFIG_III)


def custom_configuration(gram_sub: Sequence[Sequence[int]]) -> ConfigurationPresentation:
    g = tuple(tuple(int(x) for x in row) for row in gram_sub)
    return ConfigurationPresentation(g, CONFIG_CUSTOM)


#: The largest (f+g)-degree embed_configuration tries.  Each named pattern
#: (i) 2..10, (ii) 2..10, (iii) 3..10 has a realization of degrees <= 2 (the
#: search, least degree first, returns degrees <= 3); a custom pair two:k
#: needs ceil(sqrt(k)) for k = 1..15, so 6 leaves room for custom sub-Grams.
EMBED_MAX_HEIGHT = 6


def embed_configuration(p: ConfigurationPresentation) -> list[NumClass]:
    """Find primitive isotropic classes E_1..E_n realizing the sub-Gram.

    Every returned class pairs positively with the reference class f+g, so
    they all sit in the positive cone.  The search fills one slot at a time,
    trying candidates in order of increasing (f+g)-degree and then
    lexicographic coordinates, and backtracks; the result is therefore
    deterministic.  Candidates are generated lazily, class by class, so a
    fiber is searched only up to the first class the backtracking keeps,
    and the (large) high-degree fibers only when a pattern is hard to
    realize.  Raises SearchExhaustedError if no solution shows up with
    every degree <= EMBED_MAX_HEIGHT, and NotRealizableError, with no
    search, if the sub-Gram, pulled back from Num of signature (1, 9), has
    more than one positive eigenvalue.
    """
    from .shortvec import FiberSystem  # deferred: shortvec imports this module

    if inertia(p.gram_sub)[0] > 1:
        raise NotRealizableError("the sub-Gram has >1 positive eigenvalue; Num has 1")
    ample = basis_vector(0) + basis_vector(1)

    def candidates(chosen: list[NumClass], idx: int):
        fiber = FiberSystem([ample] + chosen)
        wanted = [p.gram_sub[k][idx] for k in range(len(chosen))]
        for height in range(1, EMBED_MAX_HEIGHT + 1):
            # lazily, in lexicographic order: the fiber is searched only as
            # far as the backtracking asks
            yield from (
                x for x in fiber.iter_solutions([height] + wanted, 0)
                if is_primitive(x)
            )

    chosen: list[NumClass] = []

    def search(idx: int) -> bool:
        if idx == p.n:
            return True
        for cand in candidates(chosen, idx):
            chosen.append(cand)
            if search(idx + 1):
                return True
            chosen.pop()
        return False

    if not search(0):
        raise SearchExhaustedError(
            "no embedding of the requested configuration with all degrees "
            f"<= EMBED_MAX_HEIGHT = {EMBED_MAX_HEIGHT}"
        )
    return chosen
