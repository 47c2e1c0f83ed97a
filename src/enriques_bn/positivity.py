"""Effectivity, nefness, ampleness and cohomology on an unnodal surface.

With no (-2)-curves around, positivity is decided by two intersection
numbers against a fixed reference ample class A0 = f + g:

    D != 0 effective  <=>  D^2 >= 0 and D.A0 > 0
    nef               <=>  the same
    ample             <=>  D^2 > 0  and D.A0 > 0

Riemann-Roch gives chi(D) = D^2/2 + 1; h^1 vanishes except along multiples
of primitive isotropic classes, where it is the floor ladders implemented
in :func:`cohomology`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .lattice import (
    DivisorClass,
    IntersectionForm,
    basis_vector,
    canonical_form,
    content,
)


class PositivityStatus(NamedTuple):
    is_zero: bool
    is_effective: bool
    is_anti_effective: bool
    is_nef: bool
    is_ample: bool
    witness: str

    def as_dict(self) -> dict:
        return {
            "isZero": self.is_zero,
            "isEffective": self.is_effective,
            "isAntiEffective": self.is_anti_effective,
            "isNef": self.is_nef,
            "isAmple": self.is_ample,
            "witness": self.witness,
        }


class CohomologyProfile(NamedTuple):
    h0: int
    h1: int
    h2: int
    chi: int

    def as_dict(self) -> dict:
        return {"h0": self.h0, "h1": self.h1, "h2": self.h2, "chi": self.chi}


@lru_cache(maxsize=8)
def reference_ample(form: IntersectionForm | None = None) -> DivisorClass:
    """A0 = f + g: the fixed class orienting the positive cone, built once
    per form."""
    form = form or canonical_form()
    return DivisorClass(basis_vector(0, form) + basis_vector(1, form), 0)


def classify_positivity(d: DivisorClass) -> PositivityStatus:
    """Numerical positivity flags; the torsion bit never matters here.

    For the numerically trivial class only is_zero is set (K_S itself is
    numerically trivial).  The flags for nonzero classes follow the unnodal
    criteria in the module docstring; nef and ample are reported False for
    the zero class so that is_ample => is_nef => is_effective stays literal.
    """
    if d.num.is_zero():
        return PositivityStatus(True, False, False, False, False, "numerically-zero")
    a0 = reference_ample(d.num.form)
    sq = d.square
    deg = d.dot(a0)
    if sq >= 0 and deg > 0:
        ample = sq > 0
        return PositivityStatus(
            False,
            True,
            False,
            True,
            ample,
            "square>0-and-positive-degree" if ample else "isotropic-positive-degree",
        )
    if sq >= 0 and deg < 0:
        return PositivityStatus(False, False, True, False, False, "negative-degree")
    # sq >= 0 with deg == 0 cannot happen for a nonzero class: the orthogonal
    # complement of A0 is negative definite.
    return PositivityStatus(False, False, False, False, False, "negative-square")


def _isotropic_h1(c: int, torsion: int) -> int:
    """h^1 of an effective class c*P (+K_S), P primitive isotropic.

    The untwisted ladder starts at c = 2 with floor(c/2); the twisted one
    starts at c = 3 with floor((c-1)/2).  Twisted multiples with c in {1, 2}
    are the other half-fibers of the pencil and have h^1 = 0.
    """
    if torsion == 0:
        return c // 2 if c >= 2 else 0
    return (c - 1) // 2 if c >= 3 else 0


def cohomology(d: DivisorClass) -> CohomologyProfile:
    """(h^0, h^1, h^2, chi) of a divisor class, by complete case analysis."""
    chi = d.square // 2 + 1
    if d.num.is_zero():
        if d.torsion == 0:
            return CohomologyProfile(1, 0, 0, 1)
        return CohomologyProfile(0, 0, 1, 1)  # K_S: dual of the trivial class
    status = classify_positivity(d)
    if status.is_effective:
        if d.square == 0:
            c, _ = content(d.num)
            h1 = _isotropic_h1(c, d.torsion)
        else:
            h1 = 0
        return CohomologyProfile(chi + h1, h1, 0, chi)
    if status.is_anti_effective:
        # Serre duality: h^i(D) = h^{2-i}(K_S - D), and K_S - D is effective.
        dual = cohomology(DivisorClass(-d.num, d.torsion ^ 1))
        return CohomologyProfile(0, dual.h1, dual.h0, chi)
    # neither direction effective: only possible with negative square, and
    # then both h^0 and h^2 vanish so Riemann-Roch pins h^1.
    return CohomologyProfile(0, -chi, 0, chi)
