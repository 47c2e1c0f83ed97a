"""Certified short-vector enumeration for positive-definite integral forms.

This is the search kernel behind every minimization in the package.  The
indefinite rank-10 problems ("all isotropic x with x.L = t") reduce to
positive-definite ones through the orthogonal projection along L: writing
x = ((x.L)/L^2) L + x_perp, the identity

    -(x_perp)^2 = (x.L)^2 / L^2 - x^2

turns a constraint on x.L and x^2 into an exact bound on the complement
norm, which is a positive-definite quantity because the form has signature
(1, 9).

Enumeration is Fincke-Pohst recursive coordinate bounding (Fincke-Pohst,
Math. Comp. 44, 1985) on the LDL^T decomposition of the complement form.
The factors are computed once per form by fraction-free elimination and
scaled to integers: the pivots to one common denominator, the off-diagonal
factors and the centre map to another.  The bound is multiplied by both, so
each search runs on Python ints with exact integer square roots.  No float
decides anything and no bound is rounded: every point inside (or on) the
ellipsoid is returned, and no point outside it, which is the completeness
certificate.

The complement basis is in row-echelon form with positive pivots, the first
pivot at the outermost search level, and every level is scanned in
ascending order.  So the search itself emits the lattice points x in
strictly increasing lexicographic order of their coordinates (the ordering
certificate, argued at :meth:`FiberSystem._set_up`): no caller sorts a
fiber, and a caller of ``FiberSystem.iter_solutions`` (``invariants.mu``,
which keeps its first admissible class, and ``lattice.embed_configuration``,
which keeps its primitive classes) stops the search at the first class it
keeps.  Every class of an exact search is still square-checked before a
caller sees it.

One fiber class, :class:`FiberSystem`, runs every search on the kernel of
its constraint classes, in their form.  One unimodular row reduction, run
once at build, gives that kernel in echelon form and the pivot classes whose
integer combinations are the particular solutions; the pivot classes'
pairings with the kernel and with each other are stored too, so a value
vector costs a forward substitution and no solve.  Each search is two
routines: :meth:`FiberSystem._enumerate` lifts and square-checks the points
that the Fincke-Pohst loop :meth:`_ScaledLDL.search` yields.  A
:class:`ComplementLift` is the one-constraint case, with values (t,).  A
lift is immutable data fixed by L alone and each call runs its own search on
it, so callers may share one and keep every certificate;
``invariants.polarization`` keeps one per class, and phi, mu and
``decompose_isotropic`` search only its fibers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import (
    CertificateError,
    FormMismatchError,
    NotPositiveDefiniteError,
    PositiveSquareRequiredError,
)
from .frozen import Frozen, set_field
from .lattice import NumClass, _reduce, _substitute, inertia

if TYPE_CHECKING:  # fractions is imported only where a rational is built
    from fractions import Fraction


class PosDefForm(Frozen):
    """A positive-definite rational quadratic form, stored as numer/denom."""

    __slots__ = ("rank", "numer", "denom")
    _fields = ("numer", "denom")  # rank, a slot, is read from numer

    def __init__(self, numer: tuple[tuple[int, ...], ...], denom: int = 1):
        if denom <= 0:
            raise ValueError("denominator must be positive")
        rank = len(numer)
        if any(len(r) != rank for r in numer):
            raise ValueError(f"matrix size: every row needs {rank} entries")
        for i in range(rank):
            for j in range(i):
                if numer[i][j] != numer[j][i]:
                    raise ValueError("matrix must be symmetric")
        set_field(self, "rank", rank)
        set_field(self, "numer", numer)
        set_field(self, "denom", denom)

    def is_positive_definite(self) -> bool:
        """Every eigenvalue of numer is positive (denom > 0 flips no sign)."""
        return inertia(self.numer)[0] == self.rank

    def value(self, v: Sequence[int]) -> Fraction:
        from fractions import Fraction

        acc = 0
        for i in range(self.rank):
            if v[i]:
                acc += v[i] * sum(
                    self.numer[i][j] * v[j] for j in range(self.rank) if v[j]
                )
        return Fraction(acc, self.denom)


class ShortVectorResult(namedtuple("ShortVectorResult", "bound vectors")):
    """All nonzero vectors v with 0 < q(v) <= bound, lexicographically sorted.

    bound: Fraction, vectors: tuple[tuple[int, ...], ...]."""

    __slots__ = ()


class _ScaledLDL:
    """The LDL^T factors of a positive-definite integer Gram matrix G, scaled
    to integers, and the Fincke-Pohst search on them (:meth:`search`), on ints.

    With d_i = dn_i / dd and r_ij = rows[i][j-i-1] / s (j > i),

        q(y) * dd * s^2 = sum_i dn_i (s*y_i + sum_{j>i} s*r_ij y_j)^2.

    For pairings b = G y_c, the centre y_c enters through the level
    constants e = R y_c = D^-1 R^-T b, and s * e = centre_map @ b is an
    integer vector: s is a common denominator of the r_ij and of the
    entries of D^-1 R^-T.  R is unit upper triangular, so D^-1 R^-T is
    lower triangular: row k of ``centre_map`` holds its k + 1 entries up to
    the diagonal, and the product reads b_0..b_k alone.

    The factors come from fraction-free (Bareiss) elimination on [G | I].
    With p_0 = 1 and p_{k+1} the pivot of step k, the leading minor of size
    k + 1, step k replaces each later row a_i by (p_{k+1} a_i - a_ik a_k) / p_k.
    Before step k, each row i >= k is zero in the identity columns n + m,
    k <= m < n, except for p_k at n + i: so at k = 0, and step k keeps it,
    as a_k is zero in those columns but n + k.  So the identity half starts
    at zero, and step k sets a_k's entry at n + k to p_k and computes
    columns k+1..n+k alone.  The pivot row a_k is then final: p_{k+1} r_kj
    and, by Cramer's rule on the leading block, p_{k+1} (D^-1 R^-T)_km,
    zero right of column n + k.  This loop is not ``lattice.inertia``'s: it
    emits the factors and centre map, never pivots, and runs on every build.
    """

    def __init__(self, numer: Sequence[Sequence[int]]):
        n = len(numer)
        a = [list(row) + [0] * n for row in numer]
        p = [1]
        for k in range(n):
            row_k, pk, prev = a[k], a[k][k], p[-1]
            if pk <= 0:
                from fractions import Fraction

                raise NotPositiveDefiniteError(
                    f"pivot {k + 1} of the LDL decomposition is "
                    f"{Fraction(pk, prev)}"
                )
            row_k[n + k] = prev
            for row in a[k + 1:]:
                f = row[k]
                for j in range(k + 1, n + k + 1):
                    row[j] = (pk * row[j] - f * row_k[j]) // prev
            p.append(pk)
        # d_k = p_k / p_{k-1}
        self.dd = math.lcm(*(p[k] // math.gcd(p[k + 1], p[k]) for k in range(n)))
        self.dn = [p[k + 1] * self.dd // p[k] for k in range(n)]
        self.s = s = math.lcm(*(
            p[k + 1] // math.gcd(p[k + 1], *a[k][k + 1:]) for k in range(n)
        ))
        self.rows = [[x * s // p[k + 1] for x in a[k][k + 1:n]] for k in range(n)]
        self.centre_map = [
            [x * s // p[k + 1] for x in a[k][n:n + k + 1]] for k in range(n)
        ]

    def search(
        self, b: Sequence[int], excess: int, exact: bool
    ) -> Iterator[tuple[int, ...]]:
        """All integer y with q(y - c) <= excess + b.c (== if exact), c = G^-1 b,
        lazily.  Scaled by dd * s^2 with e = centre_map @ b, that is
        sum_i dn_i (s*y_i - c_i)^2 <= rem = excess * dd * s^2 + sum_i dn_i e_i^2,
        where c_i = e_i - sum_{j>i} rows[i][j-i-1] * y_j.

        Fincke-Pohst on ints: at level i the admissible s*y_i lie within
        isqrt(rem // dn_i) of c_i, and every y_i in that range fits, so nothing
        is rechecked.  The shell solves the last coordinate from a perfect-square
        test and a divisibility test by s instead of scanning it.

        Depth first from level n - 1 down to level 0, each level in ascending
        order (the shell's (c - h)/s before (c + h)/s), on an explicit stack.
        """
        dn, s, rows = self.dn, self.s, self.rows
        centre = [sum(map(mul, row, b)) for row in self.centre_map]
        rem = excess * self.dd * s * s + sum(di * ci * ci for di, ci in zip(dn, centre))
        if rem < 0:
            return
        n = len(dn)
        if n == 0:
            if rem == 0 or not exact:
                yield ()
            return
        y = [0] * n
        c = [0] * n  # the centre of each open level
        hi = [0] * n  # the last y_i of each open level
        rems = [0] * n + [rem]  # rems[i + 1]: the bound left for level i
        i = n - 1
        descend = True
        while True:
            if descend:
                ci = centre[i] - sum(map(mul, rows[i], y[i + 1:]))
                r, di = rems[i + 1], dn[i]
                if i == 0:
                    tail = tuple(y[1:])
                    if exact:
                        q, odd = divmod(r, di)
                        h = math.isqrt(q)
                        if not odd and h * h == q:
                            for z in (ci - h, ci + h) if h else (ci,):
                                if z % s == 0:
                                    yield (z // s,) + tail
                    else:
                        h = math.isqrt(r // di)
                        for y0 in range(-((h - ci) // s), (ci + h) // s + 1):
                            yield (y0,) + tail
                    if n == 1:
                        return
                    i = 1
                else:
                    h = math.isqrt(r // di)
                    c[i] = ci
                    y[i] = -((h - ci) // s) - 1
                    hi[i] = (ci + h) // s
            yi = y[i] + 1
            if yi > hi[i]:
                i += 1
                if i == n:
                    return
                descend = False
                continue
            y[i] = yi
            z = s * yi - c[i]
            rems[i] = rems[i + 1] - dn[i] * z * z
            i -= 1
            descend = True


def enumerate_short(q: PosDefForm, bound: int | Fraction) -> ShortVectorResult:
    """Exactly the nonzero v with q(v) <= bound, complete and duplicate-free:
    numer(v) is an integer, so numer(v) <= floor(bound * denom) exactly."""
    from fractions import Fraction

    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    zero = (0,) * q.rank
    pts = _ScaledLDL(q.numer).search(zero, math.floor(bound * q.denom), exact=False)
    vectors = tuple(sorted(p for p in pts if p != zero))
    return ShortVectorResult(bound=bound, vectors=vectors)


class FiberSystem:
    """Integer classes with prescribed pairings against fixed classes.

    Given constraint classes u_1..u_r whose span contains a class of
    positive square, their joint orthogonal complement is negative definite,
    so for any prescribed pairing values x.u_j = c_j and any target x^2 the
    solution set is a finite affine ellipsoid problem.  One unimodular
    reduction, computed once, gives the kernel with its scaled LDL factors
    and the pivot classes; each value vector then costs a forward
    substitution and linear combinations of pairings stored at build.
    """

    def __init__(self, classes: Sequence[NumClass]):
        self._set_up(classes)

    def _set_up(self, classes: Sequence[NumClass]) -> None:
        """Reduce the pairing rows of ``classes`` once (:func:`lattice._reduce`)
        and keep what every search needs.  The classes must share one form.

        The pivot classes w_i (the ``units`` of the reduction) carry their
        pairings with the constraint classes, with the kernel and with each
        other.  The kernel keeps the nonzero (column, value) pairs of each
        vector (two or three in most complements in U + E8(-1)) and the
        scaled factors of its negated Gram form.  Every pairing is sparse:
        gram @ v sums the form's Gram rows over v's entries, v_i.v_j reads
        gram @ v_i at v_j's entries, and each w_i costs one ``form.apply``.
        The kernel basis is the echelon kernel reversed, so the row with the
        first pivot is the outermost search level.  For x = x0 + sum y_r B_r,
        two points whose y first differ at row r agree on every coordinate
        before its pivot p_r and differ by (y_r - y'_r) B_r[p_r] there, with
        B_r[p_r] > 0.  The search scans every level in ascending order, so it
        emits the classes x in strictly increasing lexicographic order.
        """
        self.form = form = classes[0].form
        if any(u.form is not form and u.form != form for u in classes):
            raise FormMismatchError("constraint classes live in different forms")
        rows = [form.apply(u.coords) for u in classes]
        pivots, heads, units, kernel = _reduce(rows)
        vectors = kernel[::-1]
        k = len(vectors)
        entries = [[(j, a) for j, a in enumerate(v) if a] for v in vectors]
        gram = [[0] * k for _ in range(k)]
        for i, vector in enumerate(entries):
            pairing = [0] * form.rank  # gram @ v_i
            for j, a in vector:
                for m, g in form._rows[j]:
                    pairing[m] += a * g
            for j in range(i + 1):
                acc = 0
                for m, a in entries[j]:
                    acc -= a * pairing[m]
                gram[i][j] = gram[j][i] = acc
        self._entries = entries
        self._ldl = _ScaledLDL(gram)
        # pivot class w_i -> (its coordinates, w_i.kernel, w_i.w_j for all j)
        self._pivots, self._heads = pivots, heads
        self._pivot_rows = [
            list(w) + [sum(a * g[m] for m, a in v) for v in entries]
            + [sum(map(mul, g, z)) for z in units]
            for w, g in zip(units, map(form.apply, units))
        ]
        self._split = (form.rank, form.rank + k)

    def _enumerate(
        self, values: Sequence[int], square: int, exact: bool
    ) -> Iterator[NumClass]:
        """All x with x.u_j = values[j] and x^2 == square (>= square unless
        exact), lazily, in lexicographic order (see :meth:`_set_up`).

        A forward substitution gives x0 = sum c_i w_i with x0.u_j = values[j]
        (none: no integer class has these pairings).  One linear combination
        of the pivot rows gives x0, its pairings b with the kernel and every
        x0.w_j, and x0^2 = sum_j c_j (x0.w_j); the span of the constraint
        classes holds a class of positive square, so there is a w_i.  With
        x = x0 + sum y_i k_i, x^2 = x0^2 + b.c - q(y - c) for c = G^-1 b, an
        ellipsoid bound on y.  Each y is lifted through the kernel's nonzero
        entries, and an exact search rechecks the square of every class it
        yields, raising CertificateError on a mismatch.
        """
        c = _substitute(self._pivots, self._heads, values)
        if c is None:
            return
        rows = self._pivot_rows
        acc = [c[0] * a for a in rows[0]]
        for ci, row in zip(c[1:], rows[1:]):
            acc = [a + ci * e for a, e in zip(acc, row)]
        rank, end = self._split
        excess = sum(map(mul, c, acc[end:])) - square
        form, entries = self.form, self._entries
        for y in self._ldl.search(acc[rank:end], excess, exact):
            coords = acc[:rank]
            for yi, vector in zip(y, entries):
                if yi:
                    for j, a in vector:
                        coords[j] += yi * a
            x = NumClass(tuple(coords), form)
            if exact and x.square != square:
                raise CertificateError(
                    f"enumerated class {x.coords} has square {x.square}, not {square}"
                )
            yield x

    def iter_solutions(
        self, values: Sequence[int], square: int
    ) -> Iterator[NumClass]:
        """All x with x.u_j = values[j] and x^2 == square, lazily, in
        lexicographic order, each square-checked before it is yielded.  A
        caller that stops early leaves the rest of the search unrun."""
        return self._enumerate(values, square, exact=True)

    def solutions(self, values: Sequence[int], square: int) -> list[NumClass]:
        """All x with x.u_j = values[j] and x^2 == square, in lexicographic order."""
        return list(self.iter_solutions(values, square))

    def solutions_min_square(
        self, values: Sequence[int], min_square: int
    ) -> list[NumClass]:
        """All x with x.u_j = values[j] and x^2 >= min_square, in lexicographic order."""
        return list(self._enumerate(values, min_square, exact=False))


class ComplementLift(FiberSystem):
    """Fibers x.L = t of a fixed class L of positive square: the
    :class:`FiberSystem` of the one constraint class L, with values (t,)."""

    def __init__(self, L: NumClass):
        # not FiberSystem.__init__: perfbench/tracer.py counts each
        # __init__ as one build
        if L.square <= 0:
            raise PositiveSquareRequiredError(
                f"projection needs L^2 > 0, got {L.square}"
            )
        self.L = L
        self._set_up([L])

    def fiber(self, t: int, square: int) -> list[NumClass]:
        """All x with x.L = t and x^2 = square, in lexicographic order."""
        return list(self.iter_solutions((t,), square))

    def fiber_min_square(self, t: int, min_square: int) -> list[NumClass]:
        """All x with x.L = t and x^2 >= min_square, in lexicographic order."""
        return list(self._enumerate((t,), min_square, exact=False))
