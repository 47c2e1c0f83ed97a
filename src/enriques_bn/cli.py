"""Command-line front end: `enriques-bn <command> [options]`.

Output is JSON (deterministic field order) on stdout; the `predict` and
`destab` tables can also be printed as TSV.  Exit codes: 0 success, 1 usage
or parse errors, 2 domain errors (e.g. a class that is not ample), 3
search-bound exhaustion.

Each command runs in a fresh process that compiles every module it
imports, so a command pays only for what it runs: this module imports
only `lattice` and `errors` at the top, each handler imports the layers it
runs, `json` is imported where JSON is read or written (2-3 ms), and the
selftest checks live in `selftest.py`.  `run` reads a plain argv, such
as every README command, straight from the `_COMMANDS` table; argparse,
whose import, first parser and parse take about 4 ms, loads only for
help, usage errors and any other argv.  The package namespace, which
library callers use, loads every layer on first use.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import (
    ClassParseError,
    EnriquesBNError,
    GenusTooSmallError,
    NotRealizableError,
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

if TYPE_CHECKING:
    import argparse

    from .invariants import MuResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_EXHAUSTED = 3

_WORD_NUMBERS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}


def _size(digits: str) -> int:
    """The configuration size a digit run names.  int() refuses a run past
    the interpreter's digit limit (4,300 by default), and such a run names
    a size past 10, so it gets the size check's domain error."""
    try:
        return int(digits)
    except ValueError:
        raise NotRealizableError(f"need 1 <= n <= 10, got {digits}") from None


def parse_configuration(spec: str) -> ConfigurationPresentation:
    """Configuration names: 'i:N', 'ii:N', 'iii:N' (or 'config-i:N' forms),
    or '<count>:<p>' where count is a number or number word and p in {1, 2}
    is the pairing of the first two classes, e.g. 'two:2'."""
    spec = spec.strip().lower()
    m = re.fullmatch(r"(?:config-)?(i{1,3}):(\d+)", spec)
    if m:
        pattern, n = m.group(1), _size(m.group(2))
        maker = {"i": config_i, "ii": config_ii, "iii": config_iii}[pattern]
        return maker(n)
    m = re.fullmatch(r"([a-z]+|\d+)(?::([12]))?", spec)
    if m:
        word, p = m.group(1), m.group(2)
        n = _WORD_NUMBERS.get(word) if not word.isdigit() else _size(word)
        if n is not None:
            if p == "2":
                return config_ii(n)
            return config_i(n)
    raise ClassParseError(f"cannot parse configuration {spec!r}")


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
        import json

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
    # compiled on first use, and re keeps it cached for later calls
    term = re.compile(r"([+-]?)\s*(?:(\d+)\s*\*?\s*)?(E(\d+)|K)\s*", re.I)
    total = NumClass((0,) * form.rank, form)
    torsion = 0
    pos = 0
    while pos < len(stripped):
        m = term.match(stripped, pos)
        if not m or (pos > 0 and m.group(1) == ""):
            raise ClassParseError("expected a term like '3*E1' or 'K'", pos)
        sign = -1 if m.group(1) == "-" else 1
        try:
            coeff = sign * (int(m.group(2)) if m.group(2) else 1)
        except ValueError:  # past int()'s digit limit, 4,300 by default
            raise ClassParseError(
                f"a coefficient of {len(m.group(2))} digits is too long", pos
            ) from None
        symbol = m.group(3).upper()
        if symbol == "K":
            torsion ^= coeff % 2
        else:
            # more than two significant digits name no generator, and int()
            # refuses a run past its digit limit
            index = m.group(4).lstrip("0") or "0"
            if len(index) > 2 or not 1 <= int(index) <= configuration.n:
                raise ClassParseError(
                    f"unknown symbol E{index}: the configuration has "
                    f"{configuration.n} generators",
                    pos,
                )
            total = total + coeff * gens[int(index) - 1]
        pos = m.end()
    return DivisorClass(total, torsion)


def format_class(d: DivisorClass) -> str:
    coords = ",".join(str(c) for c in d.num.coords)
    return f'{{"coords":[{coords}],"torsion":{d.torsion}}}'


def _dump(config: dict, result: dict) -> None:
    import json

    payload = {"config": config, "result": result}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _mu_dict(m: MuResult) -> dict:
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
    from .positivity import reference_ample

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
    from .positivity import classify_positivity, cohomology

    d = _resolve_class(args)
    prof = cohomology(d)
    status = classify_positivity(d)
    result = prof.as_dict()
    result["status"] = status.as_dict()
    _dump(config, result)
    return EXIT_OK


def _cmd_invariants(config: dict, args) -> int:
    from . import invariants as inv

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
    from . import brill_noether as bn

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
    from . import brill_noether as bn
    from . import invariants as inv
    from .positivity import cohomology

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
    from . import brill_noether as bn

    report = bn.plane_cover_family_report(args.n)
    _dump(config, report.as_dict())
    return EXIT_OK


def _cmd_decompose(config: dict, args) -> int:
    from . import invariants as inv

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
    from .selftest import run_checks

    checks = run_checks(args.seed if args.seed is not None else 0)
    passed = all(c["ok"] for c in checks)
    _dump(config, {"selftest": "ok" if passed else "failed", "checks": checks})
    return EXIT_OK if passed else EXIT_DOMAIN


_CLASS_ARGS = (
    ("--class", {"dest": "class_literal", "required": True,
                 "help": "class literal: JSON coords or symbolic (with --config)"}),
    ("--config", {"dest": "config", "default": None,
                  "help": "configuration for symbolic literals, e.g. two:2 or iii:3"}),
)

#: each command's help, handler and options, in the order `--help` lists
#: them; an option is its flag and the keywords of ``add_argument``
_COMMANDS = {
    "lattice": ("canonical lattice data", _cmd_lattice, (
        ("--print-gram", {"action": "store_true",
                          "help": "print the Gram matrix row-major, nothing else"}),
    )),
    "cohomology": ("h0/h1/h2/chi and positivity flags", _cmd_cohomology, _CLASS_ARGS),
    "invariants": ("phi, mu, gonality, Clifford index", _cmd_invariants, _CLASS_ARGS + (
        ("--mu-cap", {"dest": "mu_cap", "type": int, "default": None}),
    )),
    "predict": ("dimension table for degree-d pencils", _cmd_predict, _CLASS_ARGS + (
        ("--tsv", {"action": "store_true"}),
    )),
    "destab": ("destabilizing splittings L = M + N", _cmd_destab, _CLASS_ARGS + (
        ("--d", {"type": int, "required": True}),
        ("--audit", {"action": "store_true",
                     "help": "attach the parameter-count chain to each candidate"}),
    )),
    "example51": ("the plane-cover family L = n(E1+E2)", _cmd_example51, (
        ("--n", {"type": int, "required": True}),
    )),
    "decompose": ("isotropic decomposition of a class", _cmd_decompose, _CLASS_ARGS),
    "selftest": ("quick randomized property checks", _cmd_selftest, (
        ("--seed", {"type": int, "default": None}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which prints help and usage errors and
    parses the argv that `_plain_parse` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # usage errors exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # the last paragraph of the docstring is about start-up, not usage
    parser = _Parser(prog="enriques-bn", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the parser gives a plain argv: a command, then exact
    flags of that command, each once, every value converted and none
    starting with '-', every required flag given.  None for any other argv,
    which is left to the parser."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    flags, given = dict(options), {}
    words = iter(argv[1:])
    for flag in words:
        keywords = flags.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            given[flag] = keywords.get("type", str)(value)
        except ValueError:
            return None
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, keywords in options:
        if keywords.get("required") and flag not in given:
            return None
        store_true = keywords.get("action") == "store_true"
        default = False if store_true else keywords.get("default")
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        setattr(args, dest, given.get(flag, default))
    return args


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_parse(argv) or build_parser().parse_args(argv)
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
