import pytest

from enriques_bn import brill_noether, invariants
from enriques_bn.brill_noether import (
    STATUS_APPLIES,
    STATUS_EMPTY,
    STATUS_FAILS,
    DestabCandidate,
    check_mn_bound,
    cliff_chain_bound,
    enumerate_destab,
    param_count,
    plane_cover_family_report,
    predict_w1d,
    rho,
    stable_case_audit,
)
from enriques_bn.errors import (
    CertificateError,
    NotAmpleError,
    RangeError,
    SearchExhaustedError,
)
from enriques_bn.invariants import CASE_GENERIC, gonality
from enriques_bn.lattice import (
    DivisorClass,
    basis_vector,
    config_i,
    content,
    divisor_class,
    embed_configuration,
)
from oracles import destab_unpruned

# every splitting enumerate_destab emits passes (a), (b), (c) and (e); (d)
# constrains the pencil, not the splitting
PASSED = {"a": True, "b": True, "c": True, "d": None, "e": True}


class TestRho:
    def test_spot_values(self):
        assert rho(19, 1, 10) == -1
        assert rho(4, 0, 4) == 4
        assert rho(4, 1, 3) == 0

    def test_pencil_identity(self):
        for g in range(0, 30):
            for d in range(0, 30):
                assert rho(g, 1, d) == 2 * d - g - 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rho(-1, 1, 3)


class TestPredict:
    def test_applies_table(self, pair_one):
        e1, e2 = pair_one
        pred = predict_w1d(DivisorClass(2 * e1 + 4 * e2, 0))
        assert pred.status == STATUS_APPLIES
        assert pred.genus == 9 and pred.k == 4
        assert pred.rows == ((4, -3, 0), (5, -1, 1))
        for d, r, dim in pred.rows:
            assert r <= dim
            assert dim == d - pred.k

    def test_fails_hypothesis_with_pencil_family_flag(self, pair_two):
        e1, e2 = pair_two
        pred = predict_w1d(DivisorClass(3 * (e1 + e2), 0))
        assert pred.status == STATUS_FAILS
        assert pred.infinite_pencil
        assert pred.rows == ()

    def test_pencil_family_needs_no_decomposition(self, monkeypatch, pair_two):
        def exhausted(L):
            raise SearchExhaustedError("decomposition search disabled")

        monkeypatch.setattr(invariants, "decompose_isotropic", exhausted)
        monkeypatch.setattr(brill_noether, "decompose_isotropic", exhausted, raising=False)
        e1, e2 = pair_two
        pred = predict_w1d(DivisorClass(3 * (e1 + e2), 0))
        assert pred.status == STATUS_FAILS and pred.reason == "k = mu = 10 < 2 phi = 12"
        assert pred.infinite_pencil and pred.notes == ()

    def test_empty_range(self, pair_one):
        e1, e2 = pair_one
        pred = predict_w1d(DivisorClass(2 * e1 + 2 * e2, 0))
        assert pred.status == STATUS_EMPTY
        assert pred.genus == 5 and pred.k == 4

    def test_requires_ample(self, pair_one):
        # -L has positive square: building its lift first would not raise
        e1, e2 = pair_one
        for bad in (DivisorClass(basis_vector(0), 0), DivisorClass(-2 * e1 - 4 * e2, 0)):
            with pytest.raises(NotAmpleError):
                predict_w1d(bad)
        assert invariants.polarization.cache_info().currsize == 0


@pytest.fixture(scope="module")
def polarization(pair_one):
    e1, e2 = pair_one
    return DivisorClass(2 * e1 + 4 * e2, 0), e1, e2


class TestEnumerateDestab:
    def test_range_check(self, polarization):
        L, _, _ = polarization
        with pytest.raises(RangeError):
            enumerate_destab(L, 3)
        with pytest.raises(RangeError):
            enumerate_destab(L, 6)

    def test_candidates_at_top_degree(self, polarization):
        L, e1, e2 = polarization
        cands = enumerate_destab(L, 5)
        assert len(cands) == 2
        for c in cands:
            assert c.M + c.N == L
            assert c.mn == 4 and c.ell == 1
            assert c.M.dot(L) >= c.N.dot(L)
            assert c.checklist.as_dict() == PASSED
        n_classes = {c.N.num for c in cands}
        assert (e1 + e2) in n_classes  # the hyperbolic sum splits off
        half = {c.N.num for c in cands if c.M.num == c.N.num}
        assert len(half) == 1  # the symmetric splitting M = N

    def test_checklist_is_one_constant(self, polarization):
        L, _, _ = polarization
        first, second = enumerate_destab(L, 5)
        got = first.checklist.as_dict()
        assert list(got) == ["a", "b", "c", "d", "e"] and got == PASSED
        got["a"] = False  # a new dict on each call
        assert second.checklist.as_dict() == PASSED
        twin = DestabCandidate(first.M, first.N, first.d, first.mn)
        assert twin == first and hash(twin) == hash(first)
        assert twin.ell == first.ell == first.d - first.mn
        assert twin != second

    def test_low_section_splittings_are_excluded(self, polarization):
        L, e1, e2 = polarization
        for d in (4, 5):
            n_classes = {c.N.num for c in enumerate_destab(L, d)}
            assert e2 not in n_classes  # h0 of a half-pencil is 1

    def test_isotropic_doubles_obey_the_point_condition(self, polarization):
        L, e1, e2 = polarization
        # N = 2 E2 has M.N = 4: admissible at d = 4 (no points), but at
        # d = 5 it would need a point scheme on a class with h1 != 0
        at4 = {c.N.num for c in enumerate_destab(L, 4)}
        at5 = {c.N.num for c in enumerate_destab(L, 5)}
        assert (2 * e2) in at4
        assert (2 * e2) not in at5

    def test_big_halves_excluded_by_ell(self, polarization):
        L, e1, e2 = polarization
        n_classes = {c.N.num for c in enumerate_destab(L, 5)}
        assert (2 * e1) not in n_classes  # M.N = 8 > 5

    def test_mn_bound(self, polarization):
        L, _, _ = polarization
        k = gonality(L).k
        for d in (4, 5):
            min_mn, holds = check_mn_bound(enumerate_destab(L, d), k)
            assert min_mn == 4 and holds

    def test_no_duplicate_pairs(self, polarization):
        L, _, _ = polarization
        for d in (4, 5):
            cands = enumerate_destab(L, d)
            keys = [(c.M.num.coords, c.N.num.coords, c.M.torsion) for c in cands]
            assert len(keys) == len(set(keys))
            for c in cands:
                if c.M.dot(L) == c.N.dot(L):
                    assert c.M.num.coords >= c.N.num.coords

    def test_vacuous_bound(self, pair_two):
        e1, e2 = pair_two
        L = DivisorClass(2 * (e1 + e2), 0)  # square 16, k = 2 phi = 4... check range
        # k = min(2*4, mu, 6) -- whatever it is, pick d = k so the range is valid
        from enriques_bn.invariants import gonality

        rep = gonality(L)
        d = rep.k
        if d <= rep.genus - rep.k:
            min_mn, holds = check_mn_bound(enumerate_destab(L, d), rep.k)
            assert holds
        assert check_mn_bound([], rep.k) == (None, True)


class TestDestabBudget:
    def test_a_small_budget_raises_on_a_workload_class(self, monkeypatch):
        # tests/test_golden.py recomputes all 26 destab workload listings
        # under the default budget; f + 6g at d = 4 is one of them
        L = divisor_class([1, 6] + [0] * 8)
        assert len(enumerate_destab(L, 4)) == 2
        monkeypatch.setattr(brill_noether, "DESTAB_MAX_CANDIDATES", 1)
        with pytest.raises(SearchExhaustedError, match=r"^destab listing passed 1 candidates "
                           r"for L = \(1, 6, 0, 0, 0, 0, 0, 0, 0, 0\) at d = 4$"):
            enumerate_destab(L, 4)


class TestDestabPruning:
    @staticmethod
    def destab_inputs(pair_one):
        """The benchmark's six destab classes, plus f + 6g with torsion 1 and
        6E1 + 2E2 (L^2 = 24, k = 4), whose lists hold M.L = N.L ties."""
        e1, e2 = pair_one
        f_g = ((1, 6), (1, 8), (1, 10), (2, 5), (3, 4))
        classes = [divisor_class([a, b] + [0] * 8) for a, b in f_g]
        classes.append(DivisorClass(2 * e1 + 4 * e2, 0))
        classes.append(divisor_class([1, 6] + [0] * 8, torsion=1))
        classes.append(DivisorClass(6 * e1 + 2 * e2, 0))
        for L in classes:
            rep = gonality(L)
            for d in range(rep.k, rep.genus - rep.k + 1):
                yield L, d

    def test_matches_the_unpruned_sweep(self, pair_one):
        """The arithmetic conditions and the pruned sweep give the list that
        the cohomology of every splitting gives, order and twists
        included."""
        total = ties = 0
        isotropic = set()  # (content of N, torsion of M, torsion of L)
        for L, d in self.destab_inputs(pair_one):
            cands = enumerate_destab(L, d)
            assert cands == destab_unpruned(L, d)
            total += len(cands)
            ties += sum(2 * c.N.dot(L) == L.square for c in cands)
            isotropic |= {
                (content(c.N.num)[0], c.M.torsion, L.torsion)
                for c in cands
                if c.N.square == 0
            }
        assert total > 0 and ties > 0  # the tie dedup runs
        contents = {c for c, _, _ in isotropic}
        assert 2 in contents and {3, 5} & contents
        # an even content of at least 4 lists both twists, under both L
        assert {(4, 0, 0), (4, 1, 0), (4, 0, 1), (4, 1, 1)} <= isotropic
        assert (2, 1, 1) in isotropic  # 2P untwisted needs M twisted

    def test_twists_follow_the_h1_ladder(self):
        # the table the rule replaced: 2P passes only untwisted, and both
        # twists differ in h1 only for even c >= 4
        def table(c, l_torsion):
            if c == 2:
                return (l_torsion,)
            if c >= 3:
                return (0, 1) if c % 2 == 0 else (0,)
            return ()

        for c in range(1, 13):
            for l_torsion in (0, 1):
                got = brill_noether._isotropic_twists(c, l_torsion)
                assert got == table(c, l_torsion), (c, l_torsion)

    def test_emitted_in_sorted_order(self, pair_one):
        for L, d in self.destab_inputs(pair_one):
            cands = enumerate_destab(L, d)
            assert cands == sorted(
                cands, key=lambda c: (c.N.dot(L), c.N.num.coords, c.M.torsion)
            )


class TestCliffChainBound:
    def test_two_step_drop(self, pair_one):
        e1, e2 = pair_one
        m = DivisorClass(2 * e1 + 2 * e2, 0)
        n = DivisorClass(2 * e2, 0)
        bound = cliff_chain_bound(m, n, DivisorClass(e2, 0))
        assert bound == 4 - 2 == 2

    def test_single_step_saturates(self):
        f, g = basis_vector(0), basis_vector(1)
        m = DivisorClass(2 * f + g, 0)
        n = DivisorClass(f, 0)
        bound = cliff_chain_bound(m, n, DivisorClass(g, 0))
        assert bound == m.dot(n) - 1

    def test_orthogonal_class_rejected(self):
        f = basis_vector(0)
        m = DivisorClass(3 * f, 0)
        n = DivisorClass(f, 0)
        with pytest.raises(ValueError):
            cliff_chain_bound(m, n, DivisorClass(f, 0))

    def test_non_isotropic_rejected(self, pair_one):
        e1, e2 = pair_one
        m = DivisorClass(2 * e1 + 2 * e2, 0)
        n = DivisorClass(2 * e2, 0)
        with pytest.raises(ValueError):
            cliff_chain_bound(m, n, DivisorClass(e1 + e2, 0))


class TestParamCount:
    def test_interior_case(self):
        audit = param_count(9, 5, 4, 0, 0, 0, k=4)
        assert audit.total_bound == 8
        assert audit.theorem_bound == 9
        assert audit.total_bound <= audit.theorem_bound

    def test_saturating_case(self):
        audit = param_count(9, 5, 3, 0, 0, 0, k=4)
        assert audit.total_bound == 9 == audit.theorem_bound

    def test_no_extensions_without_points(self):
        audit = param_count(9, 4, 4, 0, 0, 0, k=4)
        assert audit.ext_dim == -1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            param_count(9, 5, 4, 3, 0, 0, k=4)
        with pytest.raises(ValueError):
            param_count(9, 5, 6, 0, 0, 0, k=4)  # negative ell = d - mn

    def test_grid(self):
        for g in range(2, 41):
            for d in range(1, g + 1):
                for mn in range(0, d + 1):
                    for i in (0, 1, 2):
                        for h1, h2 in ((0, 0), (1, 0), (2, 1)):
                            a = param_count(g, d, mn, i, h1, h2, k=mn + 1)
                            assert a.total_bound == g - 2 + d - mn
                            # mn >= k - 1 by construction here
                            assert a.total_bound <= a.theorem_bound


class TestStableCase:
    def test_moduli_dimension(self):
        assert stable_case_audit(9, 5) == (1, 1)

    def test_boundary_identity(self):
        for g in range(2, 30):
            for k in range(1, g // 2 + 1):
                d = g - k
                if d >= 1:
                    assert stable_case_audit(g, d).w_bound == d - k

    def test_negative_dimensions_not_clamped(self):
        audit = stable_case_audit(2, 1)
        assert audit.moduli_dim == -1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stable_case_audit(1, 0)

    def test_bound_monotone_in_d(self):
        for g in range(4, 20):
            for d in range(1, g):
                a = stable_case_audit(g, d)
                b = stable_case_audit(g, d + 1)
                assert b.w_bound == a.w_bound + 2


class TestPlaneCoverFamily:
    def test_smallest_member(self):
        r = plane_cover_family_report(3)
        assert r.l_square == 36
        assert r.genus == 19
        assert r.phi == 6
        assert r.k == 10
        assert r.gon_special == 8
        assert r.plane_genus == 1
        assert r.cs_bound == 25
        assert r.cs_holds
        assert r.pencil_family_dim == 1

    def test_gap_stays_two(self):
        for n in range(3, 11):
            r = plane_cover_family_report(n)
            assert r.k - r.gon_special == 2
            assert r.phi == 2 * n and r.k == 4 * n - 2
            assert r.genus == 2 * n * n + 1
            assert r.cs_holds

    def test_small_n_rejected(self):
        with pytest.raises(RangeError):
            plane_cover_family_report(2)

    @pytest.mark.parametrize("field", ["phi", "k", "case_label"])
    def test_live_value_disagreeing_with_formula(self, monkeypatch, field):
        def wrong(L):
            rep = gonality(L)
            bad = {
                "phi": rep.phi._replace(value=rep.phi.value + 1),
                "k": rep.k + 1,
                "case_label": CASE_GENERIC,
            }[field]
            return rep._replace(**{field: bad})

        monkeypatch.setattr(brill_noether, "gonality", wrong)
        with pytest.raises(CertificateError):
            plane_cover_family_report(3)

    def test_configuration_disagreeing_with_formula(self, monkeypatch):
        # E1.E2 = 1 gives L^2 = 2 n^2, not 4 n^2
        pair_one = embed_configuration(config_i(2))
        monkeypatch.setattr(brill_noether, "embed_configuration", lambda p: pair_one)
        with pytest.raises(CertificateError, match="L\\^2"):
            plane_cover_family_report(3)
