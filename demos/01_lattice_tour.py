"""A tour of the rank-10 lattice: basis, pairings, configurations.

Run:  python demos/01_lattice_tour.py
"""

from enriques_bn import (
    basis_vector,
    canonical_form,
    config_i,
    config_ii,
    config_iii,
    content,
    embed_configuration,
)

form = canonical_form()
print("The numerical lattice is U + E8(-1), rank", form.rank)
print("determinant:", form.determinant(), " signature:", form.inertia()[:2])
print("\nGram matrix (rows f, g, then the eight E8(-1) nodes):")
for row in form.gram:
    print("  " + " ".join(f"{x:3d}" for x in row))

f, g = basis_vector(0), basis_vector(1)
print("\nThe hyperbolic pair: f.f =", f.dot(f), " f.g =", f.dot(g))

print("\nEvery class factors as content * primitive part:")
x = 3 * (f + 2 * g)
c, prim = content(x)
print(f"  {x.coords}  =  {c} * {prim.coords}")

print("\nIsotropic configurations realized inside the lattice:")
for name, cfg in (
    ("pairings all 1  (two classes)", config_i(2)),
    ("one pairing 2   (two classes)", config_ii(2)),
    ("pattern (iii)   (three classes)", config_iii(3)),
):
    classes = embed_configuration(cfg)
    print(f"\n  {name}")
    for i, e in enumerate(classes, start=1):
        print(f"    E{i} = {e.coords}")
    n = len(classes)
    got = [[classes[i].dot(classes[j]) for j in range(n)] for i in range(n)]
    print("    pairing matrix:", got)
