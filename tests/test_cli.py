import json
import random
import sys

import pytest
from test_golden import GOLDEN

from enriques_bn import errors, lattice
from enriques_bn.cli import (
    EXIT_DOMAIN,
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_USAGE,
    _COMMANDS,
    _plain_parse,
    build_parser,
    format_class,
    main,
    parse_class,
    parse_configuration,
    run,
)
from enriques_bn.errors import ClassParseError
from enriques_bn.lattice import (
    canonical_form,
    config_ii,
    config_iii,
    divisor_class,
    embed_configuration,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def result_of(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == EXIT_OK
    return json.loads(out)["result"]


class TestParseClass:
    def test_json_literal(self):
        d = parse_class('{"coords":[0,0,0,0,0,0,0,0,0,0],"torsion":1}')
        assert d.num.is_zero() and d.torsion == 1

    def test_symbolic(self):
        d = parse_class("3*E1+3*E2", config_ii(2))
        assert d.square == 36

    def test_symbolic_with_torsion(self):
        d = parse_class("E1+E2+K", config_ii(2))
        assert d.torsion == 1

    def test_unknown_symbol(self):
        with pytest.raises(ClassParseError):
            parse_class("3*E9", config_ii(2))

    def test_symbolic_needs_configuration(self):
        with pytest.raises(ClassParseError):
            parse_class("E1+E2")

    def test_bad_json(self):
        with pytest.raises(ClassParseError):
            parse_class('{"coords":[1,2,3]}')

    def test_json_booleans_rejected(self):
        for literal in (
            '{"coords":[true,true,0,0,0,0,0,0,0,0],"torsion":0}',
            '{"coords":[1,1,0,0,0,0,0,0,0,0],"torsion":true}',
            '{"coords":[1,1,0,0,0,0,0,0,0,0],"torsion":false}',
        ):
            with pytest.raises(ClassParseError):
                parse_class(literal)

    def test_round_trip(self):
        for coords, torsion in (
            ([1, 2, 0, -1, 0, 0, 3, 0, 0, 0], 0),
            ([0] * 10, 1),
            ([-2, 5, 1, 1, 1, 1, 1, 1, 1, 1], 1),
        ):
            d = divisor_class(coords, torsion)
            assert parse_class(format_class(d)) == d

    def test_configuration_names(self):
        assert parse_configuration("two:2").label == "config-ii"
        assert parse_configuration("two:1").label == "config-i"
        assert parse_configuration("ii:2").label == "config-ii"
        assert parse_configuration("iii:3").label == "config-iii"
        assert parse_configuration("3").label == "config-i"


class TestCommands:
    def test_print_gram_is_bit_exact(self, capsys):
        code, out = invoke(capsys, "lattice", "--print-gram")
        assert code == EXIT_OK
        rows = [tuple(int(x) for x in line.split()) for line in out.strip().splitlines()]
        assert tuple(rows) == canonical_form().gram

    def test_lattice_summary(self, capsys):
        r = result_of(capsys, "lattice")
        assert r["determinant"] == -1
        assert r["signature"] == [1, 9]

    def test_invariants_symbolic(self, capsys):
        r = result_of(
            capsys, "invariants", "--class", "3*E1+3*E2", "--config", "two:2"
        )
        assert r["phi"] == 6 and r["k"] == 10
        assert r["caseLabel"] == "mu-case-square"
        assert r["genus"] == 19 and r["clifford"] == 8

    def test_invariants_raised_mu_cap(self, capsys):
        literal = '{"coords":[3,1,0,0,0,0,0,0,0,0],"torsion":0}'
        default = result_of(capsys, "invariants", "--class", literal)
        assert default["mu"]["status"] == "not-found-below-cap"
        raised = result_of(
            capsys, "invariants", "--class", literal, "--mu-cap", "12"
        )
        assert raised["mu"]["status"] == "exact"
        assert raised["mu"]["value"] == 6
        assert raised["k"] == default["k"]  # the gonality was already certified

    def test_mu_cap_at_or_below_default_changes_nothing(self, capsys):
        args = ("invariants", "--class", "3*E1+3*E2", "--config", "two:2")
        default = result_of(capsys, *args)
        assert default["mu"]["cap"] == 14  # 2 phi + 2
        for cap in ("14", "5"):
            assert result_of(capsys, *args, "--mu-cap", cap) == default

    def test_genus_two_clifford_is_the_convention(self, capsys):
        r = result_of(capsys, "invariants", "--class", "E1+E2", "--config", "i:2")
        assert (r["genus"], r["clifford"], r["cliffordConvention"]) == (2, 0, True)

    def test_cohomology(self, capsys):
        r = result_of(
            capsys,
            "cohomology",
            "--class",
            '{"coords":[2,0,0,0,0,0,0,0,0,0],"torsion":0}',
        )
        assert (r["h0"], r["h1"], r["h2"], r["chi"]) == (2, 1, 0, 1)
        assert r["status"]["isNef"] and not r["status"]["isAmple"]

    def test_example51(self, capsys):
        r = result_of(capsys, "example51", "--n", "3")
        assert r["csBound"] == 25 and r["csHolds"] is True
        assert r["phi"] == 6 and r["k"] == 10

    def test_predict_table(self, capsys):
        r = result_of(capsys, "predict", "--class", "2*E1+4*E2", "--config", "i:2")
        assert r["status"] == "applies"
        assert [(row["d"], row["rho"], row["dim"]) for row in r["rows"]] == [
            (4, -3, 0),
            (5, -1, 1),
        ]

    def test_predict_tsv(self, capsys):
        code, out = invoke(
            capsys, "predict", "--class", "2*E1+4*E2", "--config", "i:2", "--tsv"
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["d\trho\tdim", "4\t-3\t0", "5\t-1\t1"]

    def test_destab(self, capsys):
        r = result_of(
            capsys, "destab", "--class", "2*E1+4*E2", "--config", "i:2", "--d", "5"
        )
        assert r["count"] == 2 and r["minMN"] == 4 and r["mnBoundHolds"]
        for cand in r["candidates"]:
            assert cand["checklist"]["a"] and cand["checklist"]["e"]

    def test_destab_audit(self, capsys):
        r = result_of(
            capsys,
            "destab", "--class", "2*E1+4*E2", "--config", "i:2",
            "--d", "5", "--audit",
        )
        audits = r["candidates"][0]["audits"]
        assert len(audits) == 3
        assert all(a["total_bound"] <= a["theorem_bound"] for a in audits)

    def test_decompose(self, capsys):
        r = result_of(capsys, "decompose", "--class", "3*E1+3*E2", "--config", "two:2")
        assert r["n"] == 2
        assert r["configuration"] == "config-ii"
        assert sorted(r["coefficients"]) == [3, 3]

    @pytest.mark.parametrize("cls", ["3*E1+2*E2+E3", "3*E1+E2+2*E3"])
    def test_decompose_square_forty(self, capsys, cls):
        # a search over subsets of the isotropic classes of degree <= L^2
        # needs about 94,000 nodes here, and without its stage and residual
        # cuts it exhausts a budget of 200,000 (exit 3)
        r = result_of(capsys, "decompose", "--class", cls, "--config", "iii:3")
        assert r["n"] == 3
        assert r["configuration"] == "config-iii"
        assert r["coefficients"] == [3, 2, 1]

    def test_decompose_square_fifty_six(self, capsys):
        # the subset search exhausts its budget of 200,000 nodes here (exit 3)
        r = result_of(
            capsys, "decompose", "--class", "E1+3*E2+2*E3+2*E4", "--config", "iii:4"
        )
        e = embed_configuration(config_iii(4))
        target = e[0] + 3 * e[1] + 2 * e[2] + 2 * e[3]
        rebuilt = [0] * 10
        for gen, c in zip(r["generators"], r["coefficients"]):
            rebuilt = [x + c * y for x, y in zip(rebuilt, json.loads(gen)["coords"])]
        assert r["configuration"] == "config-iii"
        assert rebuilt == list(target.coords)

    def test_selftest(self, capsys):
        code, out = invoke(capsys, "selftest", "--seed", "5")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["selftest"] == "ok"


class TestExitCodes:
    def test_domain_error_is_two(self, capsys):
        code, _ = invoke(
            capsys,
            "predict",
            "--class",
            '{"coords":[0,0,1,0,0,0,0,0,0,0],"torsion":0}',
        )
        assert code == EXIT_DOMAIN

    def test_decompose_of_an_anti_effective_class_is_two(self, capsys):
        # -(f + g) has square 2; the polarization's one check refuses it
        code = run(["decompose", "--class", '{"coords":[-1,-1,0,0,0,0,0,0,0,0],"torsion":0}'])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_DOMAIN, "")
        assert captured.err == (
            "error: (-1, -1, 0, 0, 0, 0, 0, 0, 0, 0) is not in the positive cone\n"
        )

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["invariants", "--class", "x", "--bogus-flag"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_parse_error_is_one(self, capsys):
        code, _ = invoke(capsys, "cohomology", "--class", "not-a-class")
        assert code == EXIT_USAGE

    def test_json_boolean_is_one(self, capsys):
        code, out = invoke(
            capsys, "cohomology", "--class",
            '{"coords":[true,true,0,0,0,0,0,0,0,0],"torsion":true}',
        )
        assert code == EXIT_USAGE and out == ""

    def test_unknown_symbol_is_one(self, capsys):
        code, _ = invoke(
            capsys, "invariants", "--class", "3*E9", "--config", "two:2"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("invariants", "--class", "E1", "--config", "bogus:7"),
             "cannot parse configuration 'bogus:7'"),
            (("cohomology", "--class", '{"coords": [1,'), "bad JSON literal"),
            (("invariants", "--class", "3*E1+*E2", "--config", "two:2"),
             "expected a term like '3*E1' or 'K' (at position 4)"),
            # digit runs past int()'s limit of 4,300 digits
            (("invariants", "--class", "1" * 5000 + "*E1", "--config", "i:2"),
             "a coefficient of 5000 digits is too long (at position 0)"),
            (("invariants", "--class", "E1+E" + "1" * 5000, "--config", "i:2"),
             "unknown symbol E111"),
        ],
        ids=["configuration", "json", "term", "long-coefficient", "long-index"],
    )
    def test_parse_errors_go_to_stderr(self, capsys, argv, message):
        code = run(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "spec", ["i:100000", "iii:11", "30000:2", "i:" + "1" * 5000, "1" * 5000 + ":2"],
        ids=["i:100000", "iii:11", "30000:2", "i:5000-digits", "5000-digits:2"],
    )
    def test_configuration_size_is_a_domain_error(self, capsys, monkeypatch, spec):
        # refused before the n x n Gram, which i:100000 could not fit in memory
        def gram(size, two_pairs):
            raise AssertionError(f"built a {size} x {size} Gram")

        monkeypatch.setattr(lattice, "_pattern_gram", gram)
        code = run(["invariants", "--class", "E1", "--config", spec])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_DOMAIN, "")
        assert captured.err.startswith("error: need 1 <= n <= 10, got ")

    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch):
        argv = ["predict", "--class", '{"coords":[0,0,1,0,0,0,0,0,0,0],"torsion":0}']
        monkeypatch.setattr(sys, "argv", ["enriques-bn", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == run(argv) == EXIT_DOMAIN
        capsys.readouterr()

    def test_exhaustion_is_three(self, capsys, monkeypatch):
        import enriques_bn.invariants as inv_mod
        from enriques_bn.errors import SearchExhaustedError

        def explode(cls):
            raise SearchExhaustedError("bound 1 hit")

        monkeypatch.setattr(inv_mod, "decompose_isotropic", explode)
        code, _ = invoke(
            capsys, "decompose", "--class", "2*E1+4*E2", "--config", "i:2"
        )
        assert code == EXIT_EXHAUSTED

    def test_each_error_class_has_one_exit_code(self, capsys, monkeypatch):
        import enriques_bn.invariants as inv_mod

        raised = [
            errors.ClassParseError("bad literal", 3),
            errors.SearchExhaustedError("bound 1 hit"),
            errors.NotRealizableError("refused"),
            errors.FormMismatchError("two forms"),
            errors.ZeroClassError("zero"),
            errors.NotPositiveDefiniteError("indefinite"),
            errors.PositiveSquareRequiredError("square 0"),
            errors.NotAmpleEnoughError("not effective"),
            errors.NotAmpleError("not ample"),
            errors.GenusTooSmallError(3, 1, "non-hyperelliptic"),
            errors.RangeError("d out of range"),
            errors.CertificateError("recheck failed"),
        ]
        assert {type(ex) for ex in raised} == set(errors.EnriquesBNError.__subclasses__())
        for ex in raised:
            def explode(L, ex=ex):
                raise ex

            monkeypatch.setattr(inv_mod, "decompose_isotropic", explode)
            code, out = invoke(
                capsys, "decompose", "--class", "2*E1+4*E2", "--config", "i:2"
            )
            want = {
                errors.ClassParseError: EXIT_USAGE,
                errors.SearchExhaustedError: EXIT_EXHAUSTED,
            }.get(type(ex), EXIT_DOMAIN)
            assert (code, out) == (want, ""), type(ex).__name__

    def test_embedding_exhaustion_is_three(self, capsys, monkeypatch):
        # E1.E2 = 2 needs a class of (f+g)-degree 2
        monkeypatch.setattr(lattice, "EMBED_MAX_HEIGHT", 1)
        code, out = invoke(
            capsys, "invariants", "--class", "E1+E2", "--config", "two:2"
        )
        assert (code, out) == (EXIT_EXHAUSTED, "")

    def test_certificate_error_is_two(self, capsys, monkeypatch):
        import enriques_bn.invariants as inv_mod

        # mu = 3 at (L^2, phi) = (16, 2) fits no classified gonality case
        monkeypatch.setattr(
            inv_mod, "mu",
            lambda L, cap=None: inv_mod.MuResult(inv_mod.MU_EXACT, cap, 3),
        )
        code, out = invoke(
            capsys, "invariants", "--class", "2*E1+4*E2", "--config", "i:2"
        )
        assert code == EXIT_DOMAIN and out == ""


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        args = ("invariants", "--class", "2*E1+4*E2", "--config", "i:2")
        _, first = invoke(capsys, *args)
        _, second = invoke(capsys, *args)
        assert first == second

    def test_config_echoed_in_header(self, capsys):
        code, out = invoke(
            capsys, "invariants", "--class", "2*E1+4*E2", "--config", "i:2"
        )
        header = json.loads(out)["config"]
        assert header["command"] == "invariants"
        assert header["class"] == "2*E1+4*E2"
        assert header["configuration"] == "i:2"


COMMANDS = [
    "lattice", "cohomology", "invariants", "predict", "destab", "example51",
    "decompose", "selftest",
]

#: top-level help and errors, each command's help and usage errors (a bogus
#: flag, an extra positional, no options: a required one missing where the
#: command has one), and the README commands
README_ARGVS = [record["argv"] for record in GOLDEN["cli"]]
PARSER_ARGVS = (
    [[], ["-h"], ["--help"], ["bogus"]]
    + [[c, *tail] for c in COMMANDS for tail in (["-h"], ["--bogus"], ["extra"], [])]
    + README_ARGVS
)

#: words no command takes as a flag: abbreviations, inline values, the end
#: of options, help, an empty word, an extra positional
ODD_WORDS = (
    "--cl", "--conf", "--mu", "--print", "--class=x", "--d=5", "--", "-h",
    "--help", "", "extra",
)
#: values: plain, empty, signed, padded, with an underscore, in non-ASCII
#: digits, fractional, option-like
VALUES = (
    "3*E1+3*E2", "two:2", "x", "", "5", "12", "-5", "+5", " 7", " -5", "1_0",
    "\u0663", "1.5", "-E1", "--tsv", "-",
)


def seeded_argvs(seed: int, count: int) -> list[list[str]]:
    """Argvs of random commands: each flag of the command given or not, in
    random order, a value after most valued flags and a few others, and now
    and then an odd word, a flag given twice, or a flag of another command."""
    rng = random.Random(seed)
    all_flags = [flag for _, _, options in _COMMANDS.values() for flag, _ in options]
    argvs = []
    for _ in range(count):
        command = rng.choice(COMMANDS)
        options = list(_COMMANDS[command][2])
        rng.shuffle(options)
        words = [command]
        for flag, keywords in options:
            if rng.random() < 0.3:
                continue
            words.append(flag)
            valued = keywords.get("action") != "store_true"
            if valued == (rng.random() < 0.9):
                words.append(rng.choice(VALUES))
        for _ in range(rng.choice((0, 0, 1, 2))):
            word = rng.choice(ODD_WORDS + tuple(all_flags))
            words.insert(rng.randint(0, len(words)), word)
        argvs.append(words)
    return argvs


def parse_outcome(capsys, parser, argv):
    """(exit code or None, stdout, stderr, namespace without ``func``)."""
    try:
        namespace = vars(parser.parse_args(argv))
        code = None
        del namespace["func"]
    except SystemExit as ex:
        namespace, code = None, ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


class TestOneCommandParser:
    """``run`` reads the argv of one command straight from the command table
    (``_plain_parse``) and leaves help, usage errors and every argv it does
    not read to the full parser; wherever it reads one, it must give the
    full parser's namespace."""

    @staticmethod
    def parses_as_the_full_parser(capsys, parser, argv) -> bool:
        """Whether the plain parse reads ``argv``, after checking it against
        the full parser."""
        code, _, _, namespace = parse_outcome(capsys, parser, argv)
        plain = _plain_parse(argv)
        if plain is None:
            return False
        assert code is None  # it never reads help or a usage error
        plain = vars(plain)
        assert plain.pop("func") is _COMMANDS[argv[0]][1]
        assert plain == namespace
        return True

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda a: " ".join(a) or "-")
    def test_parses_as_the_full_parser(self, capsys, argv):
        read = self.parses_as_the_full_parser(capsys, build_parser(), argv)
        # the README commands are what it is for
        assert read or argv not in README_ARGVS

    def test_seeded_argvs_parse_as_the_full_parser(self, capsys):
        parser = build_parser()
        argvs = seeded_argvs(39, 2000)
        read = [self.parses_as_the_full_parser(capsys, parser, a) for a in argvs]
        # both the plain parse and the fall-back are exercised
        assert 200 <= sum(read) <= 1800

    def test_a_missing_command_is_named_command(self, capsys):
        code, out, err, _ = parse_outcome(capsys, build_parser(), [])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("error: the following arguments are required: command\n")

    def test_builds_only_the_named_command(self):
        # the options of the named command alone, at their defaults unless given
        assert vars(_plain_parse(["lattice"])) == {
            "command": "lattice", "func": _COMMANDS["lattice"][1], "print_gram": False,
        }
        assert vars(_plain_parse(["selftest", "--seed", "7"])) == {
            "command": "selftest", "func": _COMMANDS["selftest"][1], "seed": 7,
        }
        # a flag of another command is left to the full parser
        assert _plain_parse(["lattice", "--seed", "7"]) is None
        assert _plain_parse(["selftest", "--print-gram"]) is None
