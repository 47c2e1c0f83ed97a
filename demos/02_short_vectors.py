"""The search kernel: short vectors and projection fibers.

Run:  python demos/02_short_vectors.py
"""

from fractions import Fraction

from enriques_bn import (
    ComplementLift,
    PosDefForm,
    canonical_form,
    enumerate_short,
    num_class,
)
from enriques_bn.lattice import solve_integer_linear

print("Short vectors of the square form x^2 + y^2 (Gram diag(2, 2)):")
q = PosDefForm(((2, 0), (0, 2)))
for bound in (2, 4, 8):
    res = enumerate_short(q, bound)
    print(f"  bound {bound}: {len(res.vectors)} vectors: {list(res.vectors)}")

print("\nProjection along a class L of positive square:")
form = canonical_form()
L = num_class([2, 4] + [0] * 8)
lift = ComplementLift(L)
# the complement of L: the integer kernel of x -> x.L, with the negated Gram
_, kernel = solve_integer_linear([form.apply(L.coords)], [0])
gram = tuple(tuple(-num_class(u).dot(num_class(v)) for v in kernel) for u in kernel)
q_perp = PosDefForm(gram)
print(f"  L = {L.coords},  L^2 = {L.square}")
print(f"  complement form has rank {q_perp.rank};"
      f" positive definite: {q_perp.is_positive_definite()}")
print("  the identity -(x_perp)^2 = (x.L)^2/L^2 - x^2 drives every search:")
f = num_class([1, 0] + [0] * 8)
along = Fraction(f.dot(L)**2, L.square)
print(f"    x = f: complement norm {along - f.square} = {along} - {f.square}")

print("\nFibers x.L = t of prescribed self-intersection:")
for t in (2, 4, 6):
    iso = lift.fiber(t, 0)
    print(f"  t = {t}: {len(iso)} isotropic classes", end="")
    if len(iso) <= 4:
        print(" ->", [x.coords for x in iso])
    else:
        print(f" (first: {iso[0].coords})")
