"""Command-line front end: `enriques-bn <command> [options]`.

Output is JSON (deterministic field order) on stdout; the `predict` and
`destab` tables can also be printed as TSV.  Exit codes: 0 success, 1 usage
or parse errors, 2 domain errors (e.g. a class that is not ample), 3
search-bound exhaustion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import brill_noether as bn
from . import invariants as inv
from .errors import (
    ClassParseError,
    EnriquesBNError,
    GenusTooSmallError,
    SearchExhaustedError,
)
from .lattice import (
    ConfigurationPresentation,
    DivisorClass,
    NumClass,
    canonical_form,
    config_i,
    config_ii,
    config_iii,
    embed_configuration,
)
from .positivity import classify_positivity, cohomology, reference_ample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_EXHAUSTED = 3

_WORD_NUMBERS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}


def parse_configuration(spec: str) -> ConfigurationPresentation:
    """Configuration names: 'i:N', 'ii:N', 'iii:N' (or 'config-i:N' forms),
    or '<count>:<p>' where count is a number or number word and p in {1, 2}
    is the pairing of the first two classes, e.g. 'two:2'."""
    spec = spec.strip().lower()
    m = re.fullmatch(r"(?:config-)?(i{1,3}):(\d+)", spec)
    if m:
        pattern, n = m.group(1), int(m.group(2))
        maker = {"i": config_i, "ii": config_ii, "iii": config_iii}[pattern]
        return maker(n)
    m = re.fullmatch(r"([a-z]+|\d+)(?::([12]))?", spec)
    if m:
        word, p = m.group(1), m.group(2)
        n = _WORD_NUMBERS.get(word) if not word.isdigit() else int(word)
        if n is not None:
            if p == "2":
                return config_ii(n)
            return config_i(n)
    raise ClassParseError(f"cannot parse configuration {spec!r}")


_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+)\s*\*?\s*)?(E(\d+)|K)\s*", re.I)


def parse_class(
    text: str, configuration: ConfigurationPresentation | None = None
) -> DivisorClass:
    """Parse a class literal.

    Accepts the JSON form '{"coords": [... 10 ints ...], "torsion": 0|1}'
    or a symbolic combination like '3*E1+3*E2' or 'E1+E2+K' resolved
    through the given configuration's embedding (K flips the torsion bit).
    """
    form = canonical_form()
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as ex:
            raise ClassParseError(f"bad JSON literal: {ex.msg}", ex.pos)
        coords = obj.get("coords")
        # JSON true/false load as bool, which is an int subclass: reject it
        if not isinstance(coords, list) or len(coords) != form.rank or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coords
        ):
            raise ClassParseError(f"'coords' must be {form.rank} integers")
        torsion = obj.get("torsion", 0)
        if isinstance(torsion, bool) or torsion not in (0, 1):
            raise ClassParseError("'torsion' must be 0 or 1")
        return DivisorClass(NumClass(tuple(coords), form), torsion)

    if configuration is None:
        raise ClassParseError(
            "symbolic literals need a configuration (use --config)"
        )
    gens = embed_configuration(configuration)
    total = NumClass((0,) * form.rank, form)
    torsion = 0
    pos = 0
    while pos < len(stripped):
        m = _TERM_RE.match(stripped, pos)
        if not m or (pos > 0 and m.group(1) == ""):
            raise ClassParseError("expected a term like '3*E1' or 'K'", pos)
        sign = -1 if m.group(1) == "-" else 1
        coeff = sign * (int(m.group(2)) if m.group(2) else 1)
        symbol = m.group(3).upper()
        if symbol == "K":
            torsion ^= coeff % 2
        else:
            index = int(m.group(4))
            if not 1 <= index <= configuration.n:
                raise ClassParseError(
                    f"unknown symbol E{index}: the configuration has "
                    f"{configuration.n} generators",
                    pos,
                )
            total = total + coeff * gens[index - 1]
        pos = m.end()
    return DivisorClass(total, torsion)


def format_class(d: DivisorClass) -> str:
    coords = ",".join(str(c) for c in d.num.coords)
    return f'{{"coords":[{coords}],"torsion":{d.torsion}}}'


def _dump(config: dict, result: dict) -> None:
    payload = {"config": config, "result": result}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _mu_dict(m: inv.MuResult) -> dict:
    return {
        "status": m.status,
        "value": m.value,
        "witness": format_class(m.witness) if m.witness else None,
        "cap": m.cap,
    }


def _cmd_lattice(config: dict, args) -> int:
    form = canonical_form()
    if args.print_gram:
        # bit-exact contract: the matrix and nothing else, row-major
        for row in form.gram:
            sys.stdout.write(" ".join(str(x) for x in row) + "\n")
        return EXIT_OK
    pos, neg, zero = form.inertia()
    _dump(
        config,
        {
            "rank": form.rank,
            "determinant": form.determinant(),
            "even": form.is_even(),
            "signature": [pos, neg],
            "referenceAmple": format_class(reference_ample(form)),
        },
    )
    return EXIT_OK


def _resolve_class(args) -> DivisorClass:
    configuration = getattr(args, "config", None)
    conf = parse_configuration(configuration) if configuration else None
    return parse_class(args.class_literal, conf)


def _cmd_cohomology(config: dict, args) -> int:
    d = _resolve_class(args)
    prof = cohomology(d)
    status = classify_positivity(d)
    result = prof.as_dict()
    result["status"] = status.as_dict()
    _dump(config, result)
    return EXIT_OK


def _cmd_invariants(config: dict, args) -> int:
    d = _resolve_class(args)
    rep = inv.gonality(d)
    if args.mu_cap is not None and args.mu_cap > rep.mu.cap:
        # a raised cap refines mu; k stays certified by the default cap
        rep = rep._replace(mu=inv.mu(d, args.mu_cap))
    try:
        clifford = rep.clifford()
        clifford_convention = False
    except GenusTooSmallError as ex:
        clifford = ex.convention_value
        clifford_convention = True
    result = {
        "phi": rep.phi.value,
        "phiWitness": format_class(rep.phi.witness),
        "mu": _mu_dict(rep.mu),
        "k": rep.k,
        "caseLabel": rep.case_label,
        "floorTerm": rep.floor_term,
        "genus": rep.genus,
        "clifford": clifford,
        "cliffordConvention": clifford_convention,
        "notes": list(rep.notes),
    }
    _dump(config, result)
    return EXIT_OK


def _cmd_predict(config: dict, args) -> int:
    d = _resolve_class(args)
    pred = bn.predict_w1d(d)
    if args.tsv:
        sys.stdout.write("d\trho\tdim\n")
        for row in pred.rows:
            sys.stdout.write("\t".join(str(x) for x in row) + "\n")
        return EXIT_OK
    result = {
        "genus": pred.genus,
        "k": pred.k,
        "status": pred.status,
        "reason": pred.reason,
        "infinitePencil": pred.infinite_pencil,
        "rows": [{"d": r[0], "rho": r[1], "dim": r[2]} for r in pred.rows],
        "notes": list(pred.notes),
    }
    _dump(config, result)
    return EXIT_OK


def _cmd_destab(config: dict, args) -> int:
    d = _resolve_class(args)
    cands = bn.enumerate_destab(d, args.d)
    rep = inv.gonality(d)
    min_mn, holds = bn.check_mn_bound(cands, rep.k)
    rows = []
    for c in cands:
        row = {
            "M": format_class(c.M),
            "N": format_class(c.N),
            "MN": c.mn,
            "ell": c.ell,
            "checklist": c.checklist.as_dict(),
        }
        if args.audit:
            m_minus_n = c.M - c.N
            prof = cohomology(m_minus_n)
            row["audits"] = [
                bn.param_count(
                    rep.genus, args.d, c.mn, i, prof.h1, prof.h2, k=rep.k
                )._asdict()
                for i in (0, 1, 2)
            ]
        rows.append(row)
    result = {
        "d": args.d,
        "k": rep.k,
        "genus": rep.genus,
        "count": len(cands),
        "minMN": min_mn,
        "mnBoundHolds": holds,
        "candidates": rows,
    }
    _dump(config, result)
    return EXIT_OK


def _cmd_example51(config: dict, args) -> int:
    report = bn.plane_cover_family_report(args.n)
    _dump(config, report.as_dict())
    return EXIT_OK


def _cmd_decompose(config: dict, args) -> int:
    d = _resolve_class(args)
    dec = inv.decompose_isotropic(d)
    result = {
        "n": len(dec.generators),
        "configuration": dec.configuration,
        "generators": [format_class(g) for g in dec.generators],
        "coefficients": list(dec.coefficients),
    }
    _dump(config, result)
    return EXIT_OK


def _cmd_selftest(config: dict, args) -> int:
    import random

    from .shortvec import PosDefForm, enumerate_short

    rng = random.Random(args.seed if args.seed is not None else 0)
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

    passed = all(c["ok"] for c in checks)
    _dump(config, {"selftest": "ok" if passed else "failed", "checks": checks})
    return EXIT_OK if passed else EXIT_DOMAIN


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="enriques-bn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_args(p):
        p.add_argument("--class", dest="class_literal", required=True,
                       help="class literal: JSON coords or symbolic (with --config)")
        p.add_argument("--config", dest="config", default=None,
                       help="configuration for symbolic literals, e.g. two:2 or iii:3")

    p = sub.add_parser("lattice", help="canonical lattice data")
    p.add_argument("--print-gram", action="store_true",
                   help="print the Gram matrix row-major, nothing else")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("cohomology", help="h0/h1/h2/chi and positivity flags")
    add_class_args(p)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("invariants", help="phi, mu, gonality, Clifford index")
    add_class_args(p)
    p.add_argument("--mu-cap", dest="mu_cap", type=int, default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("predict", help="dimension table for degree-d pencils")
    add_class_args(p)
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("destab", help="destabilizing splittings L = M + N")
    add_class_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--audit", action="store_true",
                   help="attach the parameter-count chain to each candidate")
    p.set_defaults(func=_cmd_destab)

    p = sub.add_parser("example51", help="the plane-cover family L = n(E1+E2)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_example51)

    p = sub.add_parser("decompose", help="isotropic decomposition of a class")
    add_class_args(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("selftest", help="quick randomized property checks")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {  # echoed as the "config" header of every JSON result
        "command": args.command,
        "class": getattr(args, "class_literal", None),
        "configuration": getattr(args, "config", None),
        "muCap": getattr(args, "mu_cap", None),
        "d": getattr(args, "d", None),
        "n": getattr(args, "n", None),
        "outputFormat": "tsv" if getattr(args, "tsv", False) else "json",
        "seed": getattr(args, "seed", None),
    }
    try:
        return args.func(config, args)
    except ClassParseError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return EXIT_USAGE
    except SearchExhaustedError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return EXIT_EXHAUSTED
    except EnriquesBNError as ex:
        sys.stderr.write(f"error: {ex}\n")
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
