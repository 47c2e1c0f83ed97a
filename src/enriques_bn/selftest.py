"""Quick randomized property checks, run by `enriques-bn selftest`.

A module of its own so that no other command compiles them.
"""

from __future__ import annotations

import random

from .lattice import DivisorClass, NumClass, canonical_form
from .positivity import cohomology
from .shortvec import PosDefForm, enumerate_short


def run_checks(seed: int) -> list[dict]:
    """Each check as ``{"check": name, "ok": bool}``, on classes and forms
    drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    form = canonical_form()
    checks = []

    def record(name: str, ok: bool) -> None:
        checks.append({"check": name, "ok": bool(ok)})

    ok = True
    for _ in range(50):
        x = NumClass(tuple(rng.randint(-5, 5) for _ in range(10)), form)
        y = NumClass(tuple(rng.randint(-5, 5) for _ in range(10)), form)
        z = NumClass(tuple(rng.randint(-5, 5) for _ in range(10)), form)
        ok &= (x + y).dot(z) == x.dot(z) + y.dot(z)
        ok &= x.dot(y) == y.dot(x)
        ok &= x.dot(x) % 2 == 0
    record("pairing-bilinear-symmetric-even", ok)

    ok = True
    ks = DivisorClass(NumClass((0,) * 10, form), 1)
    for _ in range(50):
        d = DivisorClass(
            NumClass(tuple(rng.randint(-4, 4) for _ in range(10)), form),
            rng.randint(0, 1),
        )
        c = cohomology(d)
        ok &= c.h0 - c.h1 + c.h2 == d.square // 2 + 1
        ok &= c.h0 == cohomology(ks - d).h2
    record("cohomology-euler-serre", ok)

    ok = True
    for _ in range(10):
        n = rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = [[sum(a[r][i] * a[r][j] for r in range(n)) + (2 if i == j else 0)
                 for j in range(n)] for i in range(n)]
        q = PosDefForm(tuple(tuple(row) for row in gram))
        res = enumerate_short(q, 6)
        ok &= all(0 < q.value(v) <= 6 for v in res.vectors)
        ok &= all(tuple(-c for c in v) in set(res.vectors) for v in res.vectors)
    record("short-vectors-sound-symmetric", ok)

    return checks
