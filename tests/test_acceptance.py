"""Acceptance suite: one test per advertised guarantee, exact tolerances.

Every check prints a PASS/FAIL line (run with `pytest -s` to see them all);
all numeric expectations are exact integers, most of them re-derived on the
spot by an independent oracle rather than hardcoded.
"""

import math
import random
from contextlib import contextmanager

from enriques_bn.brill_noether import (
    STATUS_EMPTY,
    STATUS_FAILS,
    check_mn_bound,
    enumerate_destab,
    param_count,
    plane_cover_family_report,
    predict_w1d,
    rho,
    stable_case_audit,
)
from enriques_bn.invariants import (
    EXCEPTIONAL_SQUARE_PHI_PAIRS,
    gonality,
    phi,
)
from enriques_bn.lattice import (
    DivisorClass,
    basis_vector,
    canonical_torsion_class,
    divisor_class,
    is_primitive,
)
from enriques_bn.positivity import classify_positivity, cohomology
from enriques_bn.shortvec import PosDefForm, enumerate_short
from oracles import box_isotropic_minimum, box_short_vectors
from test_invariants import random_ample


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL - {title}")
        raise
    print(f"[acceptance {number:02d}] PASS - {title}")


def test_01_exceptional_pairs_identity():
    with criterion(1, "floor term equals 2*phi - 1 on all six exceptional pairs"):
        assert len(EXCEPTIONAL_SQUARE_PHI_PAIRS) == 6
        for square, p in sorted(EXCEPTIONAL_SQUARE_PHI_PAIRS):
            assert square // 4 + 2 == 2 * p - 1, (square, p)


def test_02_plane_cover_family_members():
    with criterion(2, "plane-cover family n = 3, 4, 5 from the live search"):
        for n in (3, 4, 5):
            r = plane_cover_family_report(n)  # phi and k are searched, then checked
            assert r.phi == 2 * n
            assert r.k == 4 * n - 2
            assert r.gon_special == 4 * n - 4 == r.k - 2
            assert r.genus == 2 * n * n + 1
            assert r.plane_genus == (n - 1) * (n - 2) // 2
            assert r.cs_bound == 4 * r.plane_genus + 3 * (r.gon_special - 1)
            assert r.cs_holds
        assert plane_cover_family_report(3).cs_bound == 25
        assert plane_cover_family_report(3).genus == 19


def test_03_phi_search_soundness():
    with criterion(3, "phi bound, witness validity, box-oracle agreement"):
        rng = random.Random(101)
        for _ in range(50):
            L = random_ample(rng, spread=3, max_square=60)
            res = phi(L)
            assert res.value <= math.isqrt(L.square)
            w = res.witness
            assert w.square == 0
            assert is_primitive(w.num)
            assert classify_positivity(w).is_effective
            assert L.dot(w) == res.value
        rng = random.Random(102)
        checked = 0
        while checked < 12:
            L = random_ample(rng, spread=2, max_square=20)
            assert phi(L).value == box_isotropic_minimum(L.num.coords)
            checked += 1


def test_04_short_vector_oracle_equivalence():
    with criterion(4, "100 random forms match the exhaustive box scan"):
        rng = random.Random(103)
        for _ in range(100):
            n = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            gram = tuple(
                tuple(
                    sum(a[r][i] * a[r][j] for r in range(n)) + (2 if i == j else 0)
                    for j in range(n)
                )
                for i in range(n)
            )
            q = PosDefForm(gram)
            bound = rng.randint(1, 20)
            got = set(enumerate_short(q, bound).vectors)
            assert got == box_short_vectors(gram, 1, bound)


def test_05_cohomology_ledger():
    with criterion(5, "Euler identity, Serre duality, isotropic h1 ladders"):
        rng = random.Random(104)
        ks = canonical_torsion_class()
        for _ in range(200):
            d = divisor_class(
                [rng.randint(-5, 5) for _ in range(10)], rng.randint(0, 1)
            )
            c = cohomology(d)
            assert c.h0 - c.h1 + c.h2 == d.square // 2 + 1
            assert c.h0 == cohomology(ks - d).h2
        f = basis_vector(0)
        for n in range(2, 8):
            assert cohomology(DivisorClass(n * f, 0)).h1 == n // 2
            assert cohomology(DivisorClass(n * f, 1)).h1 == (n - 1) // 2


def test_06_destabilizing_splittings_bound(pair_one):
    with criterion(6, "exhaustive splittings of the genus-9 polarization"):
        e1, e2 = pair_one
        L = DivisorClass(2 * e1 + 4 * e2, 0)
        rep = gonality(L)
        assert rep.genus == 9 and rep.k == 4
        for d in (4, 5):
            cands = enumerate_destab(L, d)
            assert cands, f"no splittings at d = {d}"
            min_mn = min(c.mn for c in cands)
            assert min_mn >= rep.k - 1 == 3
            assert min_mn == 4  # observed value, pinned
            assert check_mn_bound(cands, rep.k) == (4, True)


def test_07_parameter_count_chain():
    with criterion(7, "total bound g-2+d-MN and the k-form bound on a grid"):
        for g in range(2, 41):
            for d in range(1, g + 1):
                for mn in range(0, d + 1):
                    for i in (0, 1, 2):
                        a = param_count(g, d, mn, i, 0, 0, k=mn + 1)
                        assert a.total_bound == g - 2 + d - mn
                        for k in range(1, mn + 2):  # all k with mn >= k - 1
                            assert a.total_bound <= g - 1 + d - k


def test_08_prediction_table(pair_one):
    with criterion(8, "dimension table of the genus-9 polarization"):
        e1, e2 = pair_one
        pred = predict_w1d(DivisorClass(2 * e1 + 4 * e2, 0))
        assert pred.applies
        assert pred.genus == 9 and pred.k == 4
        # rho values recomputed from the defining formula g - 2(g - d + 1)
        assert rho(9, 1, 4) == -3 and rho(9, 1, 5) == -1
        assert pred.rows == ((4, rho(9, 1, 4), 0), (5, rho(9, 1, 5), 1))
        for d, r, dim in pred.rows:
            assert r <= d - pred.k == dim


def test_09_hypothesis_routing(pair_one, pair_two):
    with criterion(9, "hypothesis failure and empty-range routing"):
        e1, e2 = pair_two
        fails = predict_w1d(DivisorClass(3 * (e1 + e2), 0))
        assert fails.status == STATUS_FAILS
        assert fails.infinite_pencil
        f1, f2 = pair_one
        empty = predict_w1d(DivisorClass(2 * f1 + 2 * f2, 0))
        assert empty.status == STATUS_EMPTY


def test_10_stable_case_audit():
    with criterion(10, "stable-regime moduli dimension and its pencil bound"):
        assert stable_case_audit(9, 5) == (1, 1)
        for g in range(2, 41):
            for k in range(1, g // 2 + 1):
                d = g - k
                if d >= 1:
                    assert stable_case_audit(g, d).w_bound == d - k
