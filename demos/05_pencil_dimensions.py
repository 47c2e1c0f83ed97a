"""Dimension predictions for degree-d pencils and the splitting audit.

Run:  python demos/05_pencil_dimensions.py
"""

from enriques_bn import (
    DivisorClass,
    check_mn_bound,
    cohomology,
    config_i,
    embed_configuration,
    enumerate_destab,
    gonality,
    param_count,
    predict_w1d,
    stable_case_audit,
)

e1, e2 = embed_configuration(config_i(2))
L = DivisorClass(2 * e1 + 4 * e2, 0)
rep = gonality(L)
print(f"Polarization L = 2E1 + 4E2 (E1.E2 = 1): genus {rep.genus}, k = {rep.k}")

pred = predict_w1d(L)
print(f"\nPrediction status: {pred.status}")
print("   d   rho   dim W^1_d")
for d, r, dim in pred.rows:
    print(f"  {d:2d}  {r:4d}  {dim:9d}")

print("\nDestabilizing splittings L = M + N (all conditions checked):")
for d in range(rep.k, rep.genus - rep.k + 1):
    cands = enumerate_destab(L, d)
    min_mn, holds = check_mn_bound(cands, rep.k)
    print(f"\n  d = {d}: {len(cands)} splittings, min M.N = {min_mn}"
          f" >= k - 1 = {rep.k - 1}: {holds}")
    for c in cands:
        print(f"    M = {c.M.num.coords[:2]}..., N = {c.N.num.coords[:2]}...,"
              f" M.N = {c.mn}, points = {c.ell}")

print("\nParameter-count chain on the d = 5 splittings:")
for c in enumerate_destab(L, 5):
    diff = cohomology(c.M - c.N)
    audit = param_count(rep.genus, 5, c.mn, 0, diff.h1, diff.h2, k=rep.k)
    print(f"  M.N = {c.mn}: extensions <= {audit.ext_dim},"
          f" family <= {audit.p_dim}, sections Gr: {audit.gr_dim},"
          f" total {audit.total_bound} <= {audit.theorem_bound}")

print("\nStable regime: moduli dimension 4d - 2g - 1 and the 2d - g bound:")
for d in (4, 5):
    audit = stable_case_audit(rep.genus, d)
    print(f"  d = {d}: moduli dim {audit.moduli_dim},"
          f" dim W^1_d <= {audit.w_bound}")
