"""Brill-Noether arithmetic for pencils on curves in an ample system |L|.

The dimension predictor: when the generic gonality satisfies
k = 2 phi(L) < mu(L) and k <= d <= g - k, the variety of degree-d pencils
on a general smooth curve in |L| has dimension exactly d - k.  The
remaining operations audit the bookkeeping behind that count on concrete
input: exhaustive enumeration of the destabilizing splittings L = M + N,
the M.N >= k - 1 bound, the extension/Grassmannian parameter chain, the
moduli-dimension check in the stable regime, and the plane-cover family
L = n(E_1 + E_2) (E_1.E_2 = 2) whose curves carry infinitely many minimal
pencils.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple, Sequence

from .errors import CertificateError, RangeError
from .frozen import Frozen, set_field
from .invariants import CASE_MU_SQUARE, gonality, multiple_content, polarization
from .lattice import DivisorClass, config_ii, content, embed_configuration
from .positivity import _isotropic_h1, classify_positivity

STATUS_APPLIES = "applies"
STATUS_FAILS = "fails-hypothesis"
STATUS_EMPTY = "empty-range"


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r), the expected dim of W^r_d."""
    if g < 0 or r < 0 or d < 0:
        raise ValueError("rho needs nonnegative arguments")
    return g - (r + 1) * (g - d + r)


class BNPrediction(NamedTuple):
    genus: int
    k: int
    status: str
    rows: tuple[tuple[int, int, int], ...]  # (d, rho, predicted dim)
    reason: str | None = None
    infinite_pencil: bool = False
    notes = ()  # a class constant, not a field: the CLI prints it

    @property
    def applies(self) -> bool:
        return self.status == STATUS_APPLIES


def predict_w1d(L: DivisorClass) -> BNPrediction:
    """Dimension table for W^1_d on general smooth curves in |L|.

    Applies when k = 2 phi(L) < mu(L); rows cover k <= d <= g - k with
    predicted dimension d - k.  When k = mu(L) < 2 phi(L) the hypothesis
    fails, and if moreover L is n(E_1 + E_2) with E_1.E_2 = 2, n >= 3, the
    failure comes with the infinite-pencil phenomenon: a sub-linear system
    of curves carrying infinitely many minimal pencils.  That family is
    decided by arithmetic, ``multiple_content(L, 4, 2) >= 3`` (the proof is
    in :func:`~enriques_bn.invariants.multiple_content`), with no
    decomposition search.
    """
    rep = gonality(L)
    g, k = rep.genus, rep.k
    mu_exceeds_2phi = (not rep.mu.exact) or rep.mu.value > 2 * rep.phi.value
    if rep.k == 2 * rep.phi.value and mu_exceeds_2phi:
        if 2 * k > g:
            return BNPrediction(g, k, STATUS_EMPTY, (), reason="k > g/2")
        rows = tuple((d, rho(g, 1, d), d - k) for d in range(k, g - k + 1))
        return BNPrediction(g, k, STATUS_APPLIES, rows)
    if rep.mu.exact and rep.mu.value == k and k < 2 * rep.phi.value:
        return BNPrediction(
            g, k, STATUS_FAILS, (),
            reason=f"k = mu = {k} < 2 phi = {2 * rep.phi.value}",
            infinite_pencil=multiple_content(L, 4, 2) >= 3,
        )
    return BNPrediction(
        g, k, STATUS_FAILS, (),
        reason=f"k = {k} is not 2 phi = {2 * rep.phi.value} "
        f"(case {rep.case_label})",
    )


# ---------------------------------------------------------------------------
# Destabilizing splittings L = M + N.
# ---------------------------------------------------------------------------


# Conditions (a)-(e) of enumerate_destab as the CLI prints them: its
# docstring proves that every splitting it emits passes (a), (b), (c) and
# (e), and (d) filters nothing.  Kept only for the readers that print it;
# each as_dict() call returns a new dict.
_CHECKLIST = SimpleNamespace(
    as_dict=lambda: {"a": True, "b": True, "c": True, "d": None, "e": True}
)


class DestabCandidate(Frozen):
    """L = M + N at degree d, mn = M.N, ell = d - M.N.  Slotted, not a
    NamedTuple: callers read its fields per splitting, and on CPython 3.11 a
    slot read costs half a NamedTuple field read."""

    __slots__ = ("M", "N", "d", "mn", "ell")
    _fields = ("M", "N", "d", "mn")  # ell, a slot, is set from d and mn
    checklist = _CHECKLIST  # the same for every splitting

    def __init__(self, M: DivisorClass, N: DivisorClass, d: int, mn: int):
        set_field(self, "M", M)
        set_field(self, "N", N)
        set_field(self, "d", d)
        set_field(self, "mn", mn)
        set_field(self, "ell", d - mn)


def _isotropic_twists(c: int, l_torsion: int) -> tuple[int, ...]:
    """The torsion bits of M listed for an isotropic N = cP at ell = 0.

    N carries the torsion bit of L xor that of M, and (a) needs h1(N) >= 1
    on the ladder of ``positivity._isotropic_h1``.  The untwisted M is
    listed when it passes, the twisted one when it passes with an h1(N)
    that differs from the untwisted one's.
    """
    h1 = _isotropic_h1(c, l_torsion)
    h1_twisted = _isotropic_h1(c, l_torsion ^ 1)
    twists = (0,) if h1 else ()
    return twists + (1,) if h1_twisted and h1_twisted != h1 else twists


def enumerate_destab(L: DivisorClass, d: int) -> list[DestabCandidate]:
    """Exhaustive numerical splittings L = M + N that could destabilize.

    Filters: M.L >= N.L, ell = d - M.N >= 0 and the splitting conditions:
    (a) |N| moves: N effective with h0(N) >= 2;
    (b) M is big on C: M^2 > 0, h0(M) >= 2, h2(M) = 0;
    (c) h1(M) = 0;
    (e) if ell > 0: h1(N) = 0 and N^2 > 0.
    Condition (d), that N|_C dominates the pencil, constrains the pencil,
    not (M, N), and filters nothing.  Finiteness: N.L <= L^2/2 and
    N^2 >= 0 bound the complement norm of N, so candidates come from one
    short-vector sweep per degree t = N.L, in the order (t, N coordinates,
    torsion of M), which is lexicographic within each fiber (the ordering
    certificate of ``shortvec``).

    Every condition is decided by arithmetic on t, s = N^2 and, when s = 0,
    the content c of N; no cohomology is computed.  Write M = L - N, so
    M.N = t - s and ell = d - t + s.

    - ell >= 0 is exactly s >= t - d, which the sweep asks for.
    - N is effective: N != 0 with N^2 >= 0 and N.L > 0 for the ample L
      lies in the positive cone of L.  M.L = L^2 - t >= L^2/2 > 0, and
      M^2 = L^2 - 2t + s.  For 2t < L^2 the lattice is even, so
      M^2 >= 2 + s > 0; at the tie 2t = L^2, M^2 = s.  Whenever M^2 > 0,
      M is effective and not isotropic, so h1(M) = h2(M) = 0 and
      h0(M) = M^2/2 + 1 >= 2 under either torsion bit: (b) and (c) hold
      exactly when M^2 > 0, that is off the tie or with s > 0.
    - If s > 0, then s >= 2, h1(N) = 0 and h0(N) = s/2 + 1 >= 2, so (a)
      and (e) hold.  Neither torsion twist changes the cohomology of M or
      N, so only the untwisted M is listed.
    - If s = 0, then (e) needs ell = 0, that is t = d.  This is never the
      tie, as d <= g - k < L^2/2.  N = cP with P primitive isotropic has
      h0(N) = 1 + h1(N), with h1(N) on the ladder of
      ``positivity._isotropic_h1``, so (a) is h1(N) >= 1.
      :func:`_isotropic_twists` lists the twists of M that pass it, both
      only when their h1(N) differ.

    So the sweep asks for s >= max(t - d, 1) at every t != d, and for
    s >= 0 only at t = d; every splitting it keeps passes (a), (b), (c)
    and (e).  At the tie M and N pass together (M^2 = N^2), and only the
    lexicographically first N of the two is kept.  (M - N and N - M carry
    the torsion bit of L under both twists, so they cannot tell the twists
    apart.)  ``tests/oracles.destab_unpruned`` computes the same list from
    the cohomology of every splitting.
    """
    rep = gonality(L)
    g, k = rep.genus, rep.k
    if not (k <= d <= g - k):
        raise RangeError(f"d = {d} outside the admissible range {k}..{g - k}")
    l_sq = L.square
    lift = polarization(L.num).lift
    out: list[DestabCandidate] = []
    for t in range(1, l_sq // 2 + 1):
        min_square = 0 if t == d else max(t - d, 1)
        for n_num in lift.fiber_min_square(t, min_square):
            m_num = L.num - n_num
            if 2 * t == l_sq and m_num.coords < n_num.coords:
                continue  # dedup the M.L = N.L tie: keep N lexicographically first
            s = n_num.square
            twists = (0,) if s else _isotropic_twists(content(n_num)[0], L.torsion)
            mn = t - s
            for torsion_m in twists:
                M = DivisorClass(m_num, torsion_m)
                N = DivisorClass(n_num, L.torsion ^ torsion_m)
                out.append(DestabCandidate(M, N, d, mn))
    return out


def check_mn_bound(
    cands: Sequence[DestabCandidate], k: int
) -> tuple[int | None, bool]:
    """Minimum of M.N over the splittings ``enumerate_destab`` returned, and
    whether it is >= k - 1 for the gonality k.

    An empty candidate list verifies the bound vacuously (min is None).
    """
    if not cands:
        return None, True
    m = min(c.mn for c in cands)
    return m, m >= k - 1


def cliff_chain_bound(M: DivisorClass, N: DivisorClass, E: DivisorClass) -> int:
    """M.N - E.(M - N): the Clifford bound carried by (M+E) restricted to C.

    E must be a primitive isotropic effective class with E.(M - N) >= 1;
    the returned bound is then automatically <= M.N - 1.
    """
    st = classify_positivity(E)
    if E.square != 0 or not st.is_effective or content(E.num)[0] != 1:
        raise ValueError("E must be primitive isotropic effective")
    s = E.dot(M - N)
    if s < 1:
        raise ValueError(f"need E.(M-N) >= 1, got {s}")
    return M.dot(N) - s


# ---------------------------------------------------------------------------
# Parameter counts.
# ---------------------------------------------------------------------------


class ParamCountAudit(NamedTuple):
    """Dimension bookkeeping for the family of splittings with invariants
    (g, d, M.N, i = h1 of the bundle, ell = d - M.N).

    ext_dim bounds the extension choices, p_dim the splitting family after
    adding the point choices, gr_dim the Grassmannian of section planes;
    total_bound is the resulting bound g - 2 + d - M.N on the whole family,
    and theorem_bound = g - 1 + d - k is what the dimension theorem needs.
    """

    g: int
    d: int
    mn: int
    i: int
    ell: int
    h1_mn: int
    h2_mn: int
    ext_dim: int
    p_dim: int
    gr_dim: int
    total_bound: int
    theorem_bound: int


def param_count(
    g: int,
    d: int,
    mn: int,
    i: int,
    h1_mn: int,
    h2_mn: int,
    *,
    k: int,
) -> ParamCountAudit:
    """Evaluate the parameter-count chain at one invariant vector.

    i is the h^1 of the rank-2 bundle and can only be 0, 1 or 2; the
    length ell = d - mn must be nonnegative.  The chain:

        ext_dim   = ell + h1(M-N) - h2(M-N) - 1
        p_dim    <= 3d - 3 mn - 2i + h1(M-N) - h2(M-N) - 1
        gr_dim    = 2e - 4,  e = g + 1 - d + i
        total     = p_dim + gr_dim - h0(M-N) + 1 = g - 2 + d - mn

    using chi(M-N) = g - 2 mn, which follows from (M-N)^2 = L^2 - 4 M.N.
    """
    if i not in (0, 1, 2):
        raise ValueError(f"i must be 0, 1 or 2, got {i}")
    ell = d - mn
    if ell < 0:
        raise ValueError(f"ell = d - mn must be nonnegative, got {ell}")
    ext_dim = ell + h1_mn - h2_mn - 1
    p_dim = 3 * d - 3 * mn - 2 * i + h1_mn - h2_mn - 1
    e = g + 1 - d + i
    gr_dim = 2 * e - 4
    h0_mn = (g - 2 * mn) + h1_mn - h2_mn  # Riemann-Roch on M - N
    total_bound = p_dim + gr_dim - h0_mn + 1
    if total_bound != g - 2 + d - mn:
        raise CertificateError(
            f"parameter chain gives {total_bound}, not g - 2 + d - M.N = "
            f"{g - 2 + d - mn}"
        )
    theorem_bound = g - 1 + d - k
    return ParamCountAudit(
        g, d, mn, i, ell, h1_mn, h2_mn,
        ext_dim, p_dim, gr_dim, total_bound, theorem_bound,
    )


class StableCaseAudit(NamedTuple):
    moduli_dim: int
    w_bound: int


def stable_case_audit(g: int, d: int) -> StableCaseAudit:
    """Moduli dimension 4d - 2g - 1 of the stable bundles and the 2d - g
    bound it puts on dim W^1_d; never clamped, so empty strata show up as
    negative numbers.

    The bound 2d - g is at most d - k exactly when d <= g - k, for any k.
    """
    if d < 1 or g < 2:
        raise ValueError("need d >= 1 and g >= 2")
    return StableCaseAudit(4 * d - 2 * g - 1, 2 * d - g)


# ---------------------------------------------------------------------------
# The plane-cover family L = n(E_1 + E_2), E_1.E_2 = 2.
# ---------------------------------------------------------------------------


class PlaneCoverFamilyReport(NamedTuple):
    """Invariants of L = n(E_1 + E_2) with E_1.E_2 = 2 (n >= 3).

    B = E_1 + E_2 maps the surface 4:1 onto the plane; pulling back the
    lines through a moving point of a degree-n plane curve gives a
    1-parameter family of pencils of degree B.L - 4 on each curve of the
    pulled-back system, two less than the generic gonality.  cs_bound is
    the Castelnuovo-Severi threshold 4 g(C') + 3 (gon - 1); cs_holds
    records that the genus stays below it, i.e. the covering construction
    is not forced by the inequality.
    """

    n: int
    l_square: int
    genus: int
    phi: int
    k: int
    gon_special: int
    plane_genus: int
    cs_bound: int
    cs_holds: bool
    pencil_family_dim = 1  # a class constant, not a field

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "Lsq": self.l_square,
            "g": self.genus,
            "phi": self.phi,
            "k": self.k,
            "gonSpecial": self.gon_special,
            "planeGenus": self.plane_genus,
            "csBound": self.cs_bound,
            "csHolds": self.cs_holds,
            "pencilFamilyDim": self.pencil_family_dim,
        }


def plane_cover_family_report(n: int) -> PlaneCoverFamilyReport:
    """Compute the family invariants for a given n >= 3, with phi and the
    gonality coming from the live search (the closed forms are checked
    against them, never substituted for them; CertificateError names the
    first that disagrees)."""
    if n < 3:
        raise RangeError(f"the family needs n >= 3, got {n}")
    e1, e2 = embed_configuration(config_ii(2))
    L = DivisorClass(n * (e1 + e2), 0)
    rep = gonality(L)
    l_sq = L.square
    b = DivisorClass(e1 + e2, 0)
    gon_special = b.dot(L) - 4
    for name, live, formula in (
        ("L^2", l_sq, 4 * n * n),
        ("genus", rep.genus, 2 * n * n + 1),
        ("phi", rep.phi.value, 2 * n),
        ("gonality", rep.k, 4 * n - 2),
        ("case", rep.case_label, CASE_MU_SQUARE),
        ("special gonality", gon_special, 4 * n - 4),
        ("special gonality", gon_special, rep.k - 2),
    ):
        if live != formula:
            raise CertificateError(
                f"live {name} {live!r} disagrees with the family formula "
                f"{formula!r} at n = {n}"
            )
    g = rep.genus
    plane_genus = (n - 1) * (n - 2) // 2
    cs_bound = 4 * plane_genus + 3 * (gon_special - 1)
    return PlaneCoverFamilyReport(
        n=n,
        l_square=l_sq,
        genus=g,
        phi=rep.phi.value,
        k=rep.k,
        gon_special=gon_special,
        plane_genus=plane_genus,
        cs_bound=cs_bound,
        cs_holds=g <= cs_bound,
    )
