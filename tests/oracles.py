"""Independent brute-force oracles used to cross-check the search kernel.

The box oracles go through none of the projection/LDL machinery under
test: short vectors are found by scanning a coordinate box sized from the
inverse Gram matrix, and isotropic classes are generated by scanning the E8
block of the lattice over a coordinate box and completing the two
hyperbolic coordinates by integer factorization.

The Fraction oracles are the search kernel's earlier form: Fincke-Pohst on
the same LDL factors, but with the centre solved and every level bound
computed in ``fractions.Fraction``.  They check the integer-scaled kernel
point for point.

``column_reduction_solve`` is the integer solver's earlier form: it
reduces columns where the library reduces the rows of [rows^T | I], and
its kernel basis is not in echelon form.  ``fraction_solutions`` solves
with it, so the fiber oracle shares no reduction with the library.

``fraction_coefficients`` is the decomposition solver's earlier form: it
solves the Gram system of the generators in ``Fraction`` where the library
solves their coordinate equations over the integers.

``embed_eager`` is ``embed_configuration`` as it ran before its candidates
came lazily: each height's whole fiber is listed before the first class is
tried.

``mu_full_scan`` and ``destab_unpruned`` are the whole-fiber forms of
``mu`` and ``enumerate_destab``: they build every fiber in full and filter
afterwards, where the library stops at the first hit or prunes the search.
``destab_unpruned`` also decides the splitting checklist from the
cohomology of M and N, where the library decides it by arithmetic.
``mu_whole_pool`` builds mu's isotropic pool for the cap before the scan,
where the library grows it with the degree.  ``decompose_unpruned`` is the
decomposition search before its stages were restricted to new classes and
its partial subsets pruned by their residual.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from enriques_bn.lattice import NumClass, canonical_form
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


def _ldl(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
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


def _solve_spd(
    d: list[Fraction], r: list[list[Fraction]], b
) -> list[Fraction]:
    """Solve (R^T D R) y = b using the cached LDL factors."""
    n = len(d)
    z = [Fraction(0)] * n
    for i in range(n):
        z[i] = Fraction(b[i]) - sum(r[j][i] * z[j] for j in range(i))
    for i in range(n):
        z[i] /= d[i]
    y = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        y[i] = z[i] - sum(r[i][j] * y[j] for j in range(i + 1, n))
    return y


def _ellipsoid_points(
    d: list[Fraction],
    r: list[list[Fraction]],
    center,
    bound: Fraction,
) -> list[tuple[int, ...]]:
    """All integer y with q(y - center) <= bound, q given by its LDL factors.

    Integer loop bounds come from integer square roots with one unit of
    slack; the exact inequality is rechecked before descending, so the
    output is complete and contains no spurious points.
    """
    if bound < 0:
        return []
    n = len(d)
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    y = [0] * n

    def rec(i: int, rem: Fraction) -> None:
        u = sum(
            (r[i][j] * (y[j] - center[j]) for j in range(i + 1, n)),
            start=Fraction(0),
        )
        ci = center[i] - u
        tau = rem / d[i]
        root_hi = Fraction(math.isqrt(tau.numerator * tau.denominator) + 1, tau.denominator)
        lo = math.ceil(ci - root_hi)
        hi = math.floor(ci + root_hi)
        for yi in range(lo, hi + 1):
            t = d[i] * (yi - ci) ** 2
            if t <= rem:
                y[i] = yi
                if i == 0:
                    out.append(tuple(y))
                else:
                    rec(i - 1, rem - t)
        y[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def _ellipsoid_shell(
    d: list[Fraction],
    r: list[list[Fraction]],
    center,
    target: Fraction,
) -> list[tuple[int, ...]]:
    """All integer y with q(y - center) == target exactly.

    Same recursion as the interior enumeration, but the innermost
    coordinate is solved from the equality (a perfect-square test) instead
    of scanned, which avoids walking the interior of large ellipsoids.
    """
    if target < 0:
        return []
    n = len(d)
    if n == 0:
        return [()] if target == 0 else []
    out: list[tuple[int, ...]] = []
    y = [0] * n

    def solve_last(rem: Fraction) -> list[int]:
        u = sum(
            (r[0][j] * (y[j] - center[j]) for j in range(1, n)),
            start=Fraction(0),
        )
        c0 = center[0] - u
        tau = rem / d[0]
        num_root = math.isqrt(tau.numerator)
        den_root = math.isqrt(tau.denominator)
        if num_root * num_root != tau.numerator or den_root * den_root != tau.denominator:
            return []
        root = Fraction(num_root, den_root)
        vals = []
        for cand in {c0 + root, c0 - root}:
            if cand.denominator == 1:
                vals.append(int(cand))
        return vals

    def rec(i: int, rem: Fraction) -> None:
        if i == 0:
            for y0 in solve_last(rem):
                y[0] = y0
                out.append(tuple(y))
            y[0] = 0
            return
        u = sum(
            (r[i][j] * (y[j] - center[j]) for j in range(i + 1, n)),
            start=Fraction(0),
        )
        ci = center[i] - u
        tau = rem / d[i]
        root_hi = Fraction(math.isqrt(tau.numerator * tau.denominator) + 1, tau.denominator)
        lo = math.ceil(ci - root_hi)
        hi = math.floor(ci + root_hi)
        for yi in range(lo, hi + 1):
            t = d[i] * (yi - ci) ** 2
            if t <= rem:
                y[i] = yi
                rec(i - 1, rem - t)
        y[i] = 0

    rec(n - 1, target)
    return out


def fraction_ellipsoid(gram, b, excess, exact: bool) -> set[tuple[int, ...]]:
    """Integer y with q(y - c) <= excess + b.c (== if exact), c = G^-1 b,
    for the positive-definite integer Gram matrix G of q."""
    d, r = _ldl([[Fraction(x) for x in row] for row in gram])
    center = _solve_spd(d, r, b)
    bound = Fraction(excess) + sum(Fraction(bi) * ci for bi, ci in zip(b, center))
    enum = _ellipsoid_shell if exact else _ellipsoid_points
    return set(enum(d, r, center, bound))


def column_reduction_solve(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...] | None, list[tuple[int, ...]]]:
    """Solve rows @ x = rhs over the integers.

    Returns ``(x0, kernel)``: one particular integer solution (or None if the
    system has no integer solution) and a basis of the integer kernel of the
    homogeneous system.  Works by unimodular column reduction, so the kernel
    basis is a genuine lattice basis, not just a rational one, but not in
    echelon form.
    """
    r = len(rows)
    n = len(rows[0]) if r else 0
    h = [list(row) for row in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(a: int, b: int) -> None:
        for row in h:
            row[a], row[b] = row[b], row[a]
        for row in u:
            row[a], row[b] = row[b], row[a]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for row in h:
            row[dst] += q * row[src]
        for row in u:
            row[dst] += q * row[src]

    def col_neg(a: int) -> None:
        for row in h:
            row[a] = -row[a]
        for row in u:
            row[a] = -row[a]

    pivots: list[tuple[int, int]] = []
    p = 0
    for i in range(r):
        if p >= n:
            break
        while True:
            if h[i][p] < 0:
                col_neg(p)
            rest = [j for j in range(p + 1, n) if h[i][j] != 0]
            if h[i][p] == 0:
                if not rest:
                    break
                col_swap(rest[0], p)
                continue
            if not rest:
                break
            for j in rest:
                col_addmul(j, p, -(h[i][j] // h[i][p]))
            rest = [j for j in range(p + 1, n) if h[i][j] != 0]
            if not rest:
                break
            # remainders are in [0, pivot); swapping in the smallest shrinks
            # the pivot, so this loop terminates like the Euclid algorithm
            col_swap(min(rest, key=lambda j: h[i][j]), p)
        if h[i][p] != 0:
            pivots.append((i, p))
            p += 1

    piv_by_row = dict(pivots)
    y = [0] * n
    solvable = True
    for i in range(r):
        res = rhs[i] - sum(h[i][j] * y[j] for j in range(n) if h[i][j])
        pc = piv_by_row.get(i)
        if pc is None:
            if res != 0:
                solvable = False
                break
        else:
            if res % h[i][pc] != 0:
                solvable = False
                break
            y[pc] = res // h[i][pc]

    x0 = None
    if solvable:
        x0 = tuple(sum(u[a][j] * y[j] for j in range(n)) for a in range(n))
    pivot_cols = {pc for _, pc in pivots}
    kernel = [
        tuple(u[a][j] for a in range(n)) for j in range(n) if j not in pivot_cols
    ]
    return x0, kernel


def fraction_solutions(form, classes, values, square: int, exact: bool) -> set:
    """Coordinates of all x with x.u_j = values[j] and x^2 == square
    (>= square unless exact), through the Fraction kernel."""
    rows = [form.apply(u.coords) for u in classes]
    x0_coords, kernel = column_reduction_solve(rows, list(values))
    if x0_coords is None:
        return set()
    x0 = NumClass(x0_coords, form)
    kernel = [NumClass(v, form) for v in kernel]
    gram = [[-u.dot(v) for v in kernel] for u in kernel]
    b = [x0.dot(v) for v in kernel]
    out = set()
    for y in fraction_ellipsoid(gram, b, x0.square - square, exact):
        x = list(x0_coords)
        for yi, v in zip(y, kernel):
            x = [a + yi * c for a, c in zip(x, v.coords)]
        out.add(tuple(x))
    return out


def fraction_coefficients(gens: list, target) -> list[int] | None:
    """Positive integer a_i with sum a_i E_i = target, or None, from the
    pairings: Gauss-Jordan elimination in ``Fraction`` on the Gram system
    (E_i.E_j) a = (E_i.target), then the coordinate identity verified.
    A singular Gram gives None."""
    n = len(gens)
    a = [
        [Fraction(gens[i].dot(gens[j])) for j in range(n)]
        + [Fraction(gens[i].dot(target))]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / pv
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    coeffs = []
    for i in range(n):
        v = a[i][n] / a[i][i]
        if v.denominator != 1 or v <= 0:
            return None
        coeffs.append(int(v))
    acc = coeffs[0] * gens[0]
    for c, e in zip(coeffs[1:], gens[1:]):
        acc = acc + c * e
    if acc != target:
        return None
    return coeffs


def embed_eager(p, max_height: int = 6) -> list:
    """``embed_configuration(p, max_height=max_height)`` with every fiber
    built in full by ``FiberSystem.solutions``; same order, same errors."""
    from enriques_bn.errors import NotRealizableError
    from enriques_bn.lattice import basis_vector, is_primitive
    from enriques_bn.shortvec import FiberSystem

    form = canonical_form()
    ample = basis_vector(0, form) + basis_vector(1, form)

    def candidates(chosen, idx):
        fiber = FiberSystem(form, [ample] + chosen)
        wanted = [p.gram_sub[k][idx] for k in range(len(chosen))]
        for height in range(1, max_height + 1):
            yield from (
                x for x in fiber.solutions([height] + wanted, 0) if is_primitive(x)
            )

    chosen = []

    def search(idx):
        if idx == p.n:
            return True
        for cand in candidates(chosen, idx):
            chosen.append(cand)
            if search(idx + 1):
                return True
            chosen.pop()
        return False

    if not search(0):
        raise NotRealizableError(f"no embedding with degrees <= {max_height}",
                                 exhausted=True)
    return chosen


def mu_full_scan(L, cap: int):
    """(mu(L), witness coordinates) below cap, or None, from whole fibers.

    Every fiber x.L = t, x^2 = 4 for t <= cap comes in full from the
    Fraction kernel and is sorted; the first class that is not numerically
    L and has phi = 2 (phi itself, not the isotropic pool of ``mu``) is the
    witness at the smallest such t.
    """
    from enriques_bn.invariants import phi
    from enriques_bn.lattice import DivisorClass

    form = L.num.form
    for t in range(1, cap + 1):
        for coords in sorted(fraction_solutions(form, [L.num], [t], 4, True)):
            b = NumClass(coords, form)
            if b != L.num and phi(DivisorClass(b, 0)).value == 2:
                return t - 2, coords
    return None


def mu_whole_pool(L, cap: int):
    """``mu(L, cap)`` as it ran before its isotropic pool grew with the
    degree: the pool of every isotropic E with E.L <= (cap + sqrt(cap^2 -
    4 L^2)) / 4 is built before degree 1 is scanned, and no degree is
    skipped."""
    from enriques_bn.invariants import MU_EXACT, MU_NOT_FOUND, MuResult
    from enriques_bn.lattice import DivisorClass
    from enriques_bn.shortvec import ComplementLift

    lift = ComplementLift(L.num.form, L.num)
    disc = cap * cap - 4 * L.square
    pool_bound = (cap + math.isqrt(disc)) // 4 if disc >= 0 else 0
    iso_pool = [e for s in range(1, pool_bound + 1) for e in lift.fiber(s, 0)]

    def admissible(x) -> bool:
        return x != L.num and all(e.dot(x) != 1 for e in iso_pool)

    for t in range(1, cap + 1):
        x = lift.first(t, 4, admissible)
        if x is not None:
            return MuResult(MU_EXACT, cap, t - 2, DivisorClass(x, 0))
    return MuResult(MU_NOT_FOUND, cap)


def destab_unpruned(L, d: int) -> list:
    """``enumerate_destab(L, d)`` as it ran before its sweep was pruned: every
    N with N.L = t <= L^2/2 and N^2 >= 0, the ell = d - M.N >= 0 filter
    applied afterwards, and the two torsion twists told apart by the
    cohomology of M, N, M - N and N - M.  Range checks are left to the
    pruned version."""
    from enriques_bn.brill_noether import DestabCandidate, DestabChecklist
    from enriques_bn.lattice import DivisorClass
    from enriques_bn.positivity import cohomology
    from enriques_bn.shortvec import ComplementLift

    lift = ComplementLift(L.num.form, L.num)
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
                checklist = DestabChecklist(
                    a_h0_N_ge_2=ch_n.h0 >= 2,
                    b_M_square_positive=m_num.square > 0,
                    b_h0_M_ge_2=ch_m.h0 >= 2,
                    b_h2_M_zero=ch_m.h2 == 0,
                    c_h1_M_zero=ch_m.h1 == 0,
                    e_points_supported=ell == 0 or (ch_n.h1 == 0 and n_num.square > 0),
                )
                if not checklist.all_pass():
                    continue
                # the full cohomology profile of the splitting, twists of
                # M - N and N - M included
                profile = (ch_m, ch_n, cohomology(M - N), cohomology(N - M).h0)
                if profile in seen_profiles:
                    continue
                seen_profiles.append(profile)
                out.append(DestabCandidate(M, N, d, mn, ell, checklist))
    out.sort(key=lambda c: (c.N.dot(L), c.N.num.coords, c.M.torsion))
    return out


def decompose_unpruned(L):
    """``decompose_isotropic(L)`` as it ran before its stages were restricted
    to subsets holding a class new at the stage's degree and its partial
    subsets pruned by the residual L - sum E_i: every stage searches every
    subset of the whole pool again.  Same budgets, same order, same errors."""
    from enriques_bn import invariants as inv
    from enriques_bn.errors import SearchExhaustedError
    from enriques_bn.lattice import CONFIG_I, DivisorClass, content
    from enriques_bn.shortvec import ComplementLift

    if L.square == 0:
        c, prim = content(L.num)
        return inv.IsotropicDecomposition((DivisorClass(prim, 0),), (c,), CONFIG_I)
    lift = ComplementLift(L.num.form, L.num)
    l_sq = L.square
    budget = inv.DECOMPOSE_MAX_NODES

    def search(cands, size):
        nonlocal budget
        chosen, two_edges = [], []

        def rec(start):
            nonlocal budget
            if len(chosen) == size:
                gens = [cands[i] for i in chosen]
                coeffs = inv._solve_coefficients(gens, L.num)
                if coeffs is not None:
                    return inv._normalize_decomposition(gens, coeffs, two_edges)
                return None
            for idx in range(start, len(cands)):
                budget -= 1
                if budget <= 0:
                    raise SearchExhaustedError(
                        f"decomposition search exceeded {inv.DECOMPOSE_MAX_NODES} "
                        f"nodes (pool size {len(cands)})"
                    )
                values = [cands[prev].dot(cands[idx]) for prev in chosen]
                if any(v not in (1, 2) for v in values):
                    continue
                new_edges = [(pos, len(chosen)) for pos, v in enumerate(values) if v == 2]
                if inv._pattern_of(two_edges + new_edges) is None:
                    continue
                chosen.append(idx)
                two_edges.extend(new_edges)
                hit = rec(idx + 1)
                if hit is not None:
                    return hit
                del two_edges[len(two_edges) - len(new_edges):]
                chosen.pop()
            return None

        return rec(0)

    cands = []
    for bound in range(1, l_sq + 1):
        new = [x for x in lift.fiber(bound, 0) if content(x)[0] == 1]
        if not new:
            continue
        cands = cands + new
        if len(cands) > inv.DECOMPOSE_MAX_CANDIDATES:
            raise SearchExhaustedError(
                f"candidate pool exceeded {inv.DECOMPOSE_MAX_CANDIDATES} classes "
                f"at degree bound {bound}"
            )
        for size in range(2, min(10, len(cands)) + 1):
            hit = search(cands, size)
            if hit is not None:
                return hit
    raise SearchExhaustedError(
        f"no decomposition found with generator degrees <= L^2 = {l_sq}"
    )
