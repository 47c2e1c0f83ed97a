"""Independent brute-force oracles used to cross-check the search kernel.

The box oracles go through none of the projection/LDL machinery under
test: short vectors are found by scanning a coordinate box sized from the
inverse Gram matrix, and isotropic classes are generated by scanning the E8
block of the lattice over a coordinate box and completing the two
hyperbolic coordinates by integer factorization.

The fiber oracles count where the kernel searches: for L = p f + q g,
#{x : x.L = t, x^2 = s} is a sum of theta-series coefficients of E8
(``theta_fiber_count``), and it holds for every isometric image of L
(``chamber_word_image``).  ``counted_fiber`` certifies a kernel fiber by
it, and ``a0_system_solutions`` answers a system led by a0 = f + g from
certified fibers of a0.  ``fraction_ellipsoid``, Fincke-Pohst on Fraction
LDL factors, stays the oracle of ``_ScaledLDL.search`` on random
positive-definite forms, centres and bounds, which no lattice count
reaches (``TestScaledKernelAgainstFractionOracle``).

``charpoly_inertia`` counts the signs of a symmetric matrix's eigenvalues
from its characteristic polynomial (Faddeev-LeVerrier and Descartes' rule
of signs), so it shares no elimination with ``lattice.inertia``.
``integer_solve_faults`` checks the integer solver against its definition
(Heger's criterion, kernel rank and saturation) with minors from
``fraction_det`` and ranks from ``charpoly_inertia``, so it shares no
reduction with the library.

``_oracle_shapes`` lists every decomposition shape of a square at once, by
a plain walk over the coefficient vectors with none of the bounds or slot
identities of ``invariants._levels``.  Kept to the shapes whose degrees
all lie in P(L), the degrees at which a fresh lift of L has a primitive
isotropic class, it is that walk's reference, level by level up to the
degree of L's decomposition.

``decompose_by_definition`` is ``decompose_isotropic``'s answer by its
definition: the least realization, level by level of ``_oracle_shapes``,
found by filling every slot by plain backtracking over a fresh lift's
primitive isotropic fibers and checking the sum at the leaf.  It has none
of the library's level bounds, slot identities or last-slot division.

``degree_walks`` is ``phi`` and ``mu`` as they ran before both read the
W(E10) chamber reduction: phi is the least degree t with an isotropic
class x.L = t, and mu walks the degrees from the Hodge bound
(B.L)^2 >= 4 L^2 up to the largest cap asked for, testing phi(B) = 2 on
the isotropic fibers of degrees phi .. (t - phi) / 2, and answers every
smaller cap from that one walk.  It searches fibers of its own lift, with
``FiberSystem.iter_solutions`` where mu stops at a first hit, and never
reduces a class.

``mu_full_scan`` and ``destab_unpruned`` are the whole-fiber forms of
``mu`` and ``enumerate_destab``: they build every fiber in full and filter
afterwards, where the library stops at the first hit or prunes the search.
``mu_full_scan`` tests phi(B) = 2 with the library's ``phi`` of B, where
the library reads an isotropic pool.  ``destab_unpruned`` also decides the
splitting conditions from the cohomology of M and N, where the library
decides them by arithmetic.

``multiple_content_of_primitive_part`` is ``multiple_content`` by its
definition: phi is the library's ``phi`` of the primitive part B = L/c,
where the library reads phi(L) = c phi(B).

No oracle uses a ``_``-prefixed name of ``enriques_bn``
(``tests/test_tooling.py`` checks it): an oracle that calls the code under
test cannot catch its bugs.  Every public function here is read by a test
module, or by an oracle that one reads (checked there too), so a retired
oracle leaves with its tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

import numpy as np

from enriques_bn.lattice import CHAMBER_ROOTS, NumClass, canonical_form, num_class
from enriques_bn.errors import NotPositiveDefiniteError

E8_BOX_RADIUS = 2


def fraction_det(m) -> Fraction:
    """Determinant by plain fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i] != 0), None)
        if p is None:
            return Fraction(0)
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return det


def charpoly_inertia(m) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, read off its characteristic polynomial with no elimination.

    Faddeev-LeVerrier on ints gives the coefficients of det(x I - m):
    c_n = 1, M_k = m M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(m M_k) / k, where
    every division is exact.  The zero roots are the low coefficients that
    vanish.  A symmetric matrix has only real eigenvalues, so Descartes'
    rule of signs counts the positive roots exactly (the sign changes of
    the coefficients) and the negative ones (those of p(-x)).
    """
    n = len(m)
    coeffs = [1]  # c_n, c_(n-1), ..., c_0
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [
            [sum(m[i][l] * mk[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum(m[i][l] * mk[l][i] for i in range(n) for l in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs.append(-trace // k)
    zero = 0
    while coeffs[-1] == 0 and len(coeffs) > 1:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    degree = len(coeffs) - 1  # coeffs[i] multiplies x^(degree - i)
    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** (degree - i) for i, c in enumerate(coeffs)])
    if pos + neg != degree:
        raise ArithmeticError("the characteristic polynomial has a non-real root")
    return pos, neg, zero


def fraction_inverse(m) -> list[list[Fraction]]:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    for i in range(n):
        p = next(r for r in range(i, n) if a[r][i] != 0)
        a[i], a[p] = a[p], a[i]
        pv = a[i][i]
        a[i] = [x / pv for x in a[i]]
        for r in range(n):
            if r != i and a[r][i] != 0:
                f = a[r][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return [row[n:] for row in a]


def box_short_vectors(numer, denom, bound) -> set[tuple[int, ...]]:
    """All v with 0 < v^T (numer/denom) v <= bound, by exhaustive box scan.

    The box radius in coordinate i is sqrt(bound * (Q^-1)_ii), padded by one
    unit; the exact inequality filters afterwards.
    """
    n = len(numer)
    q_inv = fraction_inverse([[Fraction(x, denom) for x in row] for row in numer])
    radii = []
    for i in range(n):
        r2 = Fraction(bound) * q_inv[i][i]
        radii.append(math.isqrt(math.ceil(r2)) + 1)

    def value(v):
        return Fraction(
            sum(v[i] * numer[i][j] * v[j] for i in range(n) for j in range(n)),
            denom,
        )

    out = set()
    for v in product(*(range(-r, r + 1) for r in radii)):
        q = value(v)
        if 0 < q <= bound:
            out.add(v)
    return out


@lru_cache(maxsize=1)
def _e8_box():
    """All E8-block coordinate vectors with entries in the box, with their
    norms p = -(v^2)/2 (a nonnegative integer) precomputed."""
    gram = canonical_form().gram
    c8 = -np.array([row[2:] for row in gram[2:]], dtype=np.int64)
    rng = range(-E8_BOX_RADIUS, E8_BOX_RADIUS + 1)
    vs = np.array(list(product(rng, repeat=8)), dtype=np.int64)
    p = ((vs @ c8) * vs).sum(axis=1) // 2
    return vs, p


def _divisor_pairs(m: int):
    """Ordered pairs (a, b) of positive integers with a*b = m (m > 0)."""
    for a in range(1, m + 1):
        if m % a == 0:
            yield a, m // a


def box_isotropic_minimum(l_coords) -> int:
    """min L.E over nonzero isotropic classes E with positive degree against
    f+g, restricted to E8-block coordinates in the scan box.

    Subset scan, so the result is always >= the true minimum.
    """
    form = canonical_form()
    w = np.array(form.apply(tuple(l_coords)), dtype=np.int64)
    vs, p = _e8_box()
    vw = vs @ w[2:]
    w0, w1 = int(w[0]), int(w[1])
    best_uv = {}
    for m in sorted(set(int(x) for x in p)):
        if m == 0:
            best_uv[0] = min(w0, w1)  # (1, 0, 0) or (0, 1, 0); higher multiples larger
        else:
            best_uv[m] = min(a * w0 + b * w1 for a, b in _divisor_pairs(m))
    lookup = np.array([best_uv[int(x)] for x in p], dtype=np.int64)
    return int((lookup + vw).min())


def box_classes_with_square(l_coords, square: int, degree_cap: int) -> set:
    """All classes x (as coordinate tuples) with x^2 = square, positive
    degree against f+g, and 0 < x.L <= degree_cap, restricted to the E8
    scan box.  Needs L with L.f > 0 and L.g > 0 (any ample L qualifies).
    """
    form = canonical_form()
    w = form.apply(tuple(l_coords))
    w0, w1 = w[0], w[1]
    assert w0 > 0 and w1 > 0, "the scan needs positive degrees on f and g"
    vs, p = _e8_box()
    vw = vs @ np.array(w[2:], dtype=np.int64)
    out = set()
    for v, pv, vw_v in zip(vs, p, vw):
        m = square // 2 + int(pv)  # x1*x2 for x = (x1, x2, v)
        pairs = []
        if m > 0:
            pairs.extend(_divisor_pairs(m))  # positive f+g degree needs both > 0
        elif m == 0:
            # one hyperbolic coordinate vanishes; the other is bounded by
            # the degree cap since w0, w1 >= 1
            limit = degree_cap + abs(int(vw_v)) + 1
            pairs.extend((a, 0) for a in range(1, limit + 1))
            pairs.extend((0, b) for b in range(1, limit + 1))
        else:
            for a, b in _divisor_pairs(-m):
                pairs.append((a, -b))
                pairs.append((-a, b))
        for x1, x2 in pairs:
            if x1 + x2 <= 0:
                continue
            deg = x1 * w0 + x2 * w1 + int(vw_v)
            if 0 < deg <= degree_cap:
                out.add((x1, x2) + tuple(int(c) for c in v))
    return out


def fraction_ldl(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """q(y) = sum_i d_i (y_i + sum_{j>i} r_ij y_j)^2; fails unless q > 0."""
    n = len(gram)
    d: list[Fraction] = []
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = gram[i][i] - sum(d[m] * r[m][i] * r[m][i] for m in range(i))
        if di <= 0:
            raise NotPositiveDefiniteError(
                f"pivot {i + 1} of the LDL decomposition is {di}"
            )
        d.append(di)
        r[i][i] = Fraction(1)
        for j in range(i + 1, n):
            v = gram[i][j] - sum(d[m] * r[m][i] * r[m][j] for m in range(i))
            r[i][j] = v / di
    return d, r


def fraction_ellipsoid(gram, b, excess, exact: bool) -> set[tuple[int, ...]]:
    """Integer y with q(y - c) <= excess + b.c (== if exact), c = G^-1 b,
    for the positive-definite integer Gram matrix G of q: Fincke-Pohst on
    the Fraction LDL factors, each level scanning the integers within
    isqrt(rem / d_i) + 1 of its centre and keeping those that fit."""
    d, r = fraction_ldl([[Fraction(x) for x in row] for row in gram])
    c = [sum(m * bj for m, bj in zip(row, b)) for row in fraction_inverse(gram)]
    n, y, out = len(d), [0] * len(d), set()

    def rec(i: int, rem: Fraction) -> None:
        if i < 0:
            if rem == 0 or not exact:
                out.add(tuple(y))
            return
        ci = c[i] - sum((r[i][j] * (y[j] - c[j]) for j in range(i + 1, n)), start=Fraction(0))
        h = math.isqrt(math.floor(rem / d[i])) + 1
        for yi in range(math.floor(ci) - h, math.ceil(ci) + h + 1):
            if (t := d[i] * (yi - ci) ** 2) <= rem:
                y[i] = yi
                rec(i - 1, rem - t)

    bound = excess + sum(bj * cj for bj, cj in zip(b, c))
    if bound >= 0:
        rec(n - 1, Fraction(bound))
    return out


def theta_fiber_count(p: int, q: int, t: int, square: int, exact: bool) -> int:
    """#{x : x.L = t, x^2 = square} for L = p f + q g, p, q > 0 (x^2 >=
    square unless exact, up to the Hodge bound t^2 / L^2).

    x = x1 f + x2 g + v, v in the E8(-1) block, has x.L = q x1 + p x2 and
    x^2 = 2 x1 x2 - |v|^2: the count sums r_E8(2 x1 x2 - square) over
    q x1 + p x2 = t, x1 between the roots of 2 q x1^2 - 2 t x1 + p square.
    r_E8(0) = 1 and r_E8(2m) = 240 sigma_3(m), as the theta series of E8 is
    the weight-4 Eisenstein series (Serre, *A Course in Arithmetic*, VII.6;
    Conway-Sloane, *SPLAG*, ch. 4).  Fiber sizes are isometry invariants.
    """
    l_sq, total = 2 * p * q, 0
    for s in [square] if exact else range(square, t * t // l_sq + 1):
        root = math.isqrt(max(t * t - l_sq * s, 0))
        for x1 in range((t - root) // (2 * q) - 1, (t + root) // (2 * q) + 2):
            x2, rest = divmod(t - q * x1, p)
            m, odd = divmod(2 * x1 * x2 - s, 2)
            if not rest and not odd and m >= 0:
                total += 240 * sum(e**3 for e in range(1, m + 1) if m % e == 0) if m else 1
    return total


def chamber_word_image(word, x):
    """x under the reflections x -> x + (x.r) r (r^2 = -2) in
    ``lattice.CHAMBER_ROOTS[k]`` for k in ``word``, first to last."""
    for k in word:
        r = NumClass(CHAMBER_ROOTS[k], x.form)
        x = x + x.dot(r) * r
    return x


def counted_fiber(lift, p: int, q: int, t: int, square: int, exact: bool) -> list:
    """The fiber of ``lift`` at (t, square) (x^2 >= square unless exact),
    for ``lift.L`` an isometric image of p f + q g, certified: classes of
    the fiber, strictly increasing, so distinct, and ``theta_fiber_count``
    many, so all of it.  Raises AssertionError otherwise."""
    fiber = lift.fiber(t, square) if exact else lift.fiber_min_square(t, square)
    coords = [x.coords for x in fiber]
    off = [x for x in fiber if x.dot(lift.L) != t
           or (x.square != square if exact else x.square < square)]
    if off or lift.L.square != 2 * p * q or any(a >= b for a, b in zip(coords, coords[1:])):
        raise AssertionError(f"the fiber ({t}, {square}) of {lift.L.coords} is unsorted or wrong")
    if len(fiber) != (want := theta_fiber_count(p, q, t, square, exact)):
        raise AssertionError(f"the fiber ({t}, {square}, exact={exact}) of {lift.L.coords} "
                             f"has {len(fiber)} classes, the theta series {want}")
    return fiber


A0 = num_class((1, 1) + (0,) * 8)


@lru_cache(maxsize=16)
def _a0_fibers(t: int, square: int, exact: bool, others: tuple) -> dict:
    from enriques_bn.shortvec import ComplementLift

    by = {}
    for x in counted_fiber(ComplementLift(A0), 1, 1, t, square, exact):
        by.setdefault(tuple(x.dot(u) for u in others), []).append(x.coords)
    return by


def a0_system_solutions(classes, values, square: int, exact: bool) -> list:
    """Coordinates of all x with x.u_j = values[j] and x^2 == square (>=
    unless exact) for u_0 = a0 = f + g, in increasing order: a lift of a0's
    ``counted_fiber`` at (values[0], square), kept where the rest hold."""
    if classes[0] != A0:
        raise ValueError("the system must be led by f + g")
    return list(_a0_fibers(values[0], square, exact, tuple(classes[1:])).get(tuple(values[1:]), []))


def minors(m, k: int, column_sets=None):
    """The k x k minors of m by ``fraction_det``, on the column sets given or all."""
    column_sets = column_sets or list(combinations(range(len(m[0])), k))
    for rs in combinations(range(len(m)), k):
        for cs in column_sets:
            yield int(fraction_det([[m[i][j] for j in cs] for i in rs]))


def minors_gcd(m, k: int) -> int:
    """The gcd of the k x k minors of m (0 if all vanish), up to a 1."""
    d = 0
    for x in minors(m, k):
        if (d := math.gcd(d, x)) == 1:
            break
    return d


def matrix_rank(m) -> int:
    """rank m = rank m m^T (m^T m if m is tall), counted by ``charpoly_inertia``."""
    m = list(zip(*m)) if len(m) > len(m[0]) else m
    return len(m) - charpoly_inertia([[sum(map(mul, u, v)) for v in m] for u in m])[2]


def heger_solvable(rows, rhs) -> bool:
    """Whether rows @ x = rhs has an integer solution, by Heger's criterion:
    A = rows and [A | rhs] have one rank r and one gcd of r x r minors (the
    same test as comparing Smith forms; Cohen, GTM 138, 2.4).  A's minors
    are among [A | rhs]'s, so the gcds agree when A's divides every minor
    through the rhs column."""
    n, r = len(rows[0]), matrix_rank(rows)
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    if matrix_rank(augmented) != r:
        return False
    d = minors_gcd(rows, r) if r else 1
    return d == 1 or all(x % d == 0 for x in minors(
        augmented, r, [cs + (n,) for cs in combinations(range(n), r - 1)]))


def integer_solve_faults(rows, rhs, x0, kernel) -> list[str]:
    """How (x0, kernel) fails to answer rows @ x = rhs over the integers by
    definition, [] if it does not.  An x0 must solve the system, which
    proves it solvable, and None needs ``heger_solvable`` to say no.  The
    kernel is orthogonal to the rows, has n - rank independent vectors and
    is saturated (maximal minors of gcd 1), so it spans the integer kernel."""
    def image(v):
        return [sum(map(mul, row, v)) for row in rows]

    k = len(rows[0]) - matrix_rank(rows)
    return [fault for fault, failed in (
        ("x0 does not solve the system", x0 is not None and image(x0) != list(rhs)),
        ("no x0 for a solvable system", x0 is None and heger_solvable(rows, rhs)),
        ("a kernel vector is not orthogonal to the rows", any(any(image(v)) for v in kernel)),
        ("the kernel is no basis of rank n - rank", len(kernel) != k or (
            k > 0 and matrix_rank(kernel) != k)),
        ("the kernel is not saturated", k > 0 and len(kernel) == k and minors_gcd(kernel, k) != 1),
    ) if failed]


def degree_walks(L, caps):
    """phi(L) and mu(L) at every cap of ``caps(phi)`` by the degree walks,
    on one lift of L: ((phi, witness coordinates), [(cap, (mu, witness
    coordinates) or None) for each cap]).

    phi is the least t with a nonempty isotropic fiber x.L = t, and its
    witness that fiber's first class.  mu's walk runs once, up to the
    largest cap: from the first t with t^2 >= 4 L^2, the first class at t
    that is not numerically L and pairs to 1 with no isotropic class of
    degree phi .. (t - phi) / 2.  A first hit at t <= cap answers cap, and
    no hit up to cap is "not found".
    """
    from enriques_bn.shortvec import ComplementLift

    lift = ComplementLift(L.num)
    floor = 1
    while not (fiber := lift.fiber(floor, 0)):
        floor += 1
    wanted = caps(floor)
    hit, pool, s = None, list(fiber), floor + 1
    for t in range(math.isqrt(4 * L.square - 1) + 1, max(wanted) + 1):
        while s <= (t - floor) // 2:
            pool += lift.fiber(s, 0)
            s += 1
        hit = next((
            (t - 2, b.coords) for b in lift.iter_solutions((t,), 4)
            if b != L.num and all(e.dot(b) != 1 for e in pool)
        ), None)
        if hit is not None:
            break
    mus = [(cap, hit if hit and hit[0] + 2 <= cap else None) for cap in wanted]
    return (floor, fiber[0].coords), mus


def mu_full_scan(L, cap: int):
    """(mu(L), witness coordinates) below cap, or None, from whole fibers.

    Every fiber x.L = t, x^2 = 4 for t <= cap is listed in full by a fresh
    lift, where mu stops at its first admissible class; the first class
    that is not numerically L and has phi 2 (the library's ``phi`` of it,
    not the isotropic pool of ``mu``) is the witness at the smallest such
    t.  The theta-series counts of ``counted_fiber`` certify the lift's
    whole fibers (``tests/test_shortvec.py``).
    """
    from enriques_bn.invariants import phi
    from enriques_bn.lattice import DivisorClass
    from enriques_bn.shortvec import ComplementLift

    lift = ComplementLift(L.num)
    for t in range(1, cap + 1):
        for b in lift.fiber(t, 4):
            if b != L.num and phi(DivisorClass(b, 0)).value == 2:
                return t - 2, b.coords
    return None


def destab_unpruned(L, d: int) -> list:
    """``enumerate_destab(L, d)`` as it ran before its sweep was pruned: every
    N with N.L = t <= L^2/2 and N^2 >= 0, the ell = d - M.N >= 0 filter
    applied afterwards, and the two torsion twists told apart by the
    cohomology of M, N, M - N and N - M.  Range checks are left to the
    pruned version."""
    from enriques_bn.brill_noether import DestabCandidate
    from enriques_bn.lattice import DivisorClass
    from enriques_bn.positivity import cohomology
    from enriques_bn.shortvec import ComplementLift

    lift = ComplementLift(L.num)
    out = []
    for t in range(1, L.square // 2 + 1):
        for n_num in lift.fiber_min_square(t, 0):
            m_num = L.num - n_num
            mn = m_num.dot(n_num)
            ell = d - mn
            if ell < 0:
                continue
            if 2 * t == L.square and m_num.coords < n_num.coords:
                continue
            seen_profiles = []
            for torsion_m in (0, 1):
                M = DivisorClass(m_num, torsion_m)
                N = DivisorClass(n_num, L.torsion ^ torsion_m)
                ch_n, ch_m = cohomology(N), cohomology(M)
                a = ch_n.h0 >= 2
                b = m_num.square > 0 and ch_m.h0 >= 2 and ch_m.h2 == 0
                c = ch_m.h1 == 0
                # (d) constrains the pencil, not (M, N): it rejects nothing
                e = ell == 0 or (ch_n.h1 == 0 and n_num.square > 0)
                if not (a and b and c and e):
                    continue
                # the full cohomology profile of the splitting, twists of
                # M - N and N - M included
                profile = (ch_m, ch_n, cohomology(M - N), cohomology(N - M).h0)
                if profile in seen_profiles:
                    continue
                seen_profiles.append(profile)
                out.append(DestabCandidate(M, N, d, mn))
    out.sort(key=lambda c: (c.N.dot(L), c.N.num.coords, c.M.torsion))
    return out


def _oracle_shapes(l_sq: int) -> list[set[tuple]]:
    """(label, a, delta) for every shape of square l_sq, by level
    (max delta, n) in increasing order: a plain walk over the coefficient
    vectors, a prefix completed by ones bounding its completions, alike
    slots (Gram rows equal outside their two columns) non-increasing."""
    from enriques_bn.lattice import config_i, config_ii, config_iii

    levels: dict[tuple[int, int], set[tuple]] = {}
    for make, smallest in ((config_i, 2), (config_ii, 2), (config_iii, 3)):
        for n in range(smallest, 11):
            p = make(n)
            g = p.gram_sub
            alike = [False] + [
                all(g[j - 1][k] == g[j][k] for k in range(n) if k not in (j - 1, j))
                for j in range(1, n)
            ]

            def square(a):
                return sum(x * g[i][j] * y for i, x in enumerate(a) for j, y in enumerate(a))

            def extend(a):
                if len(a) == n:
                    if square(a) == l_sq:
                        delta = tuple(sum(g[i][j] * a[j] for j in range(n)) for i in range(n))
                        levels.setdefault((max(delta), n), set()).add((p.label, tuple(a), delta))
                    return
                x = 1
                while (not alike[len(a)] or x <= a[-1]) and square(
                    a + [x] + [1] * (n - len(a) - 1)
                ) <= l_sq:
                    extend(a + [x])
                    x += 1

            extend([])
    return [levels[key] for key in sorted(levels)]


def decompose_by_definition(L):
    """``decompose_isotropic(L)`` by its definition: over the realizations
    L = sum a_i E_i of the shapes (label, a, delta) of ``_oracle_shapes``,
    each E_i primitive isotropic with E_i.L = delta_i and E_i.E_j the
    pattern's pairing, the least (max E.L, n, sorted list of (E.L,
    coordinates)), generators in pattern order.  L^2 = 0 gives the content
    times the primitive part.  None if no shape is realized.

    Each slot, the last one included, is filled by plain backtracking over
    the primitive classes of a fresh lift's isotropic fiber at its degree,
    alike slots of equal coefficient in increasing coordinates, and the
    sum is checked at the leaf.  A shape with a degree whose fiber holds no
    primitive class is skipped, as it has no realization.
    """
    from enriques_bn.invariants import IsotropicDecomposition
    from enriques_bn.lattice import (
        CONFIG_I, CONFIG_II, CONFIG_III, DivisorClass, config_i, config_ii,
        config_iii, content, is_primitive,
    )
    from enriques_bn.shortvec import ComplementLift

    if L.square == 0:
        c, prim = content(L.num)
        return IsotropicDecomposition((DivisorClass(prim, 0),), (c,), CONFIG_I)
    lift = ComplementLift(L.num)
    fibers = {}

    def fiber(t):
        if t not in fibers:
            fibers[t] = [x for x in lift.fiber(t, 0) if is_primitive(x)]
        return fibers[t]

    def fill(g, a, delta, gens):
        j = len(gens)
        if j == len(a):
            total = a[0] * gens[0]
            for c, e in zip(a[1:], gens[1:]):
                total = total + c * e
            if total == L.num:
                yield gens
            return
        alike = j > 0 and a[j] == a[j - 1] and all(
            g[j - 1][k] == g[j][k] for k in range(len(a)) if k not in (j - 1, j))
        for x in fiber(delta[j]):
            if all(e.dot(x) == g[i][j] for i, e in enumerate(gens)) and not (
                    alike and x.coords <= gens[-1].coords):
                yield from fill(g, a, delta, gens + [x])

    make = {CONFIG_I: config_i, CONFIG_II: config_ii, CONFIG_III: config_iii}
    for level in _oracle_shapes(L.square):
        found = [
            (sorted(zip(delta, (e.coords for e in gens))), gens, a, label)
            for label, a, delta in level if all(map(fiber, delta))
            for gens in fill(make[label](len(a)).gram_sub, a, delta, [])
        ]
        if found:
            _, gens, a, label = min(found, key=lambda r: r[0])
            return IsotropicDecomposition(tuple(DivisorClass(e, 0) for e in gens), a, label)
    return None


def multiple_content_of_primitive_part(L, square: int, phi_value: int) -> int:
    """The content c of L when the primitive part B = L/c has
    B^2 = square and phi(B) = phi_value, else 0; phi(B) is the library's
    ``phi`` of B itself."""
    from enriques_bn.invariants import phi
    from enriques_bn.lattice import DivisorClass, content

    c, b = content(L.num)
    if b.square != square or phi(DivisorClass(b, 0)).value != phi_value:
        return 0
    return c
