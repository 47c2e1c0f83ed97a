"""Contracts between the package and the tools that read it.

``perfbench/tracer.py`` wraps methods it finds by name in each class's own
``__dict__`` and counts one span per call; it is imported here read-only,
the way ``tests/test_golden.py`` reads ``perfbench/golden.json``.  Traced
passes over the benchmark's workloads repeat their counts and answers, as
``perfbench/run.py --trace 1`` checks.  The
library's checks are explicit errors, so none disappears under
``python -O``.  The test oracles reach the package through its public
names only, so no oracle runs the code it is meant to check, and a test
reads every oracle.  Importing
the CLI loads none of the modules that made up most of its start-up
(``dataclasses`` and what it imports) and not ``fractions``; ``import
enriques_bn`` loads no layer, the first public name loads them all, and
each README command loads only the layers it runs: ``json`` only where it
writes JSON, and the selftest checks only in ``selftest``.  No record is a
``typing.NamedTuple``.  The checks count modules, not time.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the tracer wraps only modules already loaded: brill_noether imports every
# traced layer below it, and the CLI imports none of them at the top
import enriques_bn.brill_noether
import enriques_bn.cli
from enriques_bn import invariants
from enriques_bn.lattice import DivisorClass, config_iii, embed_configuration, num_class
from enriques_bn.shortvec import ComplementLift, FiberSystem
from test_golden import GOLDEN, workloads  # perfbench/workloads.py, loaded by path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


class TestTracerContract:
    def test_every_layer_target_resolves(self):
        for targets in tracer.LAYERS.values():
            for mod_name, path in targets:
                owner = importlib.import_module(f"enriques_bn.{mod_name}")
                if "." in path:
                    cls_name, meth = path.split(".")
                    assert meth in vars(getattr(owner, cls_name)), path
                else:
                    assert callable(getattr(owner, path)), path

    def test_a_lift_counts_one_build_and_one_fiber_per_call(self):
        t = tracer.Tracer()
        L = num_class([2, 4] + [0] * 8)
        with t.installed(), t.item():
            lift = ComplementLift(L)
            assert t.calls["shortvec.lift_init"] == 1
            fib = lift.fiber(4, 0)
            assert t.calls["shortvec.fiber"] == 1
            assert t.points["shortvec.fiber"] == len(fib) == 2
            wide = lift.fiber_min_square(2, -2)
            assert t.calls["shortvec.fiber_min"] == 1
            assert t.points["shortvec.fiber_min"] == len(wide) > 0
        assert t.calls["shortvec.lift_init"] == 1

    def test_a_fiber_system_counts_the_same_way(self):
        t = tracer.Tracer()
        L = num_class([2, 4] + [0] * 8)
        with t.installed(), t.item():
            fib = FiberSystem([L])
            assert t.calls["shortvec.lift_init"] == 1
            sols = fib.solutions([4], 0)
            assert t.calls["shortvec.fiber"] == 1
            assert t.points["shortvec.fiber"] == len(sols) == 2
            wide = fib.solutions_min_square([2], -2)
            assert t.calls["shortvec.fiber_min"] == 1
            assert t.points["shortvec.fiber_min"] == len(wide) > 0
        assert t.calls["shortvec.lift_init"] == 1


    def test_decompose_draws_its_slots_through_the_traced_fiber(self):
        # 2 E1 + 3 E2 + E3 on iii:3, the README's decompose class, on a cold
        # cache: one lift, and every isotropic fiber it stores, phi's and
        # the slots' above phi, searched once through the traced fiber
        e1, e2, e3 = embed_configuration(config_iii(3))
        L = DivisorClass(2 * e1 + 3 * e2 + e3, 0)
        invariants.polarization.cache_clear()
        t = tracer.Tracer()
        with t.installed(), t.item():
            invariants.decompose_isotropic(L)
        stored = invariants.polarization(L.num)._isotropic
        assert t.calls["shortvec.lift_init"] == 1
        assert t.calls["shortvec.fiber"] == len(stored) >= 2
        assert t.points["shortvec.fiber"] == sum(map(len, stored.values()))


class TestTracedPassesRepeat:
    """What ``perfbench/run.py --trace 1`` checks apart from timing, in one
    process from a cold cache: one untraced pass, then two traced passes
    in the same order that count the same calls and points and give the
    golden answers.  The polarization cache keeps state across calls, so a
    pass that searched what an earlier pass left stored would count
    differently."""

    @staticmethod
    def check_passes(workload, compute, matches):
        items = next(workloads.passes(workloads.build_items(workload, GOLDEN), 7))
        for item in items:
            assert matches(item, compute(item)), item.key
        counts = []
        for _ in range(2):
            t = tracer.Tracer()
            with t.installed():
                for item in items:
                    with t.item():
                        answer = compute(item)
                    assert matches(item, answer), item.key
            counts.append(t.counts())
        assert counts[0] == counts[1]
        assert counts[0]["items"] == len(items)
        return counts[0]

    @pytest.mark.parametrize("workload", ["sweep", "destab"])
    def test_library_workloads(self, workload):
        golden = {rec["key"]: rec["answer"] for rec in GOLDEN[workload]}

        def compute(item):
            if workload == "sweep":
                return workloads.sweep_answer(item.payload)
            return workloads.destab_answer(*item.payload)

        counts = self.check_passes(
            workload, compute, lambda item, got: workloads.canonical(got) == golden[item.key]
        )
        # the runner divides the points by the fiber self time
        # (shortvec.points_per_s): a pass that searches no fiber crashes it
        assert counts["calls"]["shortvec.fiber"] + counts["calls"]["shortvec.fiber_min"] >= 1

    def test_readme_commands(self):
        golden = {rec["key"]: (rec["exit"], rec["stdout"]) for rec in GOLDEN["cli"]}

        def run_in_process(item):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = enriques_bn.cli.run(list(item.payload))
            return code, out.getvalue()

        self.check_passes("cli", run_in_process, lambda item, got: got == golden[item.key])


class TestNoAssert:
    def test_library_code_has_no_assert(self):
        found = []
        for path in sorted((ROOT / "src" / "enriques_bn").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
        assert found == []


def private_package_names(source: str) -> list[str]:
    """The ``_``-prefixed names of ``enriques_bn`` that ``source`` imports or
    reads as an attribute of a package module, as ``line: name`` in line
    order."""
    def in_package(name):
        return (name or "").split(".")[0] == "enriques_bn"

    tree = ast.parse(source)
    modules = set()  # local names bound to enriques_bn or one of its modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and in_package(node.module):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                elif node.module == "enriques_bn":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if in_package(alias.name):
                    modules.add(alias.asname or "enriques_bn")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {name}" for line, name in sorted(found)]


class TestOraclesStandAlone:
    def test_oracles_use_no_private_name_of_the_package(self):
        source = (ROOT / "tests" / "oracles.py").read_text()
        assert private_package_names(source) == []

    def test_the_check_sees_imports_and_attributes(self):
        source = (
            "from enriques_bn.lattice import _reduce, num_class\n"
            "from enriques_bn import invariants as inv\n"
            "import enriques_bn.shortvec\n"
            "inv._levels(4)\n"
            "enriques_bn.shortvec._ScaledLDL\n"
            "inv.phi\n"
        )
        assert private_package_names(source) == [
            "1: enriques_bn.lattice._reduce",
            "4: inv._levels",
            "5: enriques_bn.shortvec._ScaledLDL",
        ]


def unread_oracles(oracles: str, tests: list[str]) -> list[str]:
    """The public functions of the ``oracles`` source that no ``tests``
    source reads, itself or through other functions of ``oracles``; an
    import alone is no read."""
    def read(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}

    functions = {
        node.name: node for node in ast.parse(oracles).body if isinstance(node, ast.FunctionDef)
    }
    todo = set().union(*(read(ast.parse(source)) for source in tests)) & functions.keys()
    reached = set()
    while todo:
        reached.add(name := todo.pop())
        todo |= (read(functions[name]) & functions.keys()) - reached
    return sorted(name for name in functions.keys() - reached if not name.startswith("_"))


class TestNoDeadOracle:
    def test_every_oracle_is_read_by_a_test(self):
        tests = [path.read_text() for path in (ROOT / "tests").glob("test_*.py")]
        assert unread_oracles((ROOT / "tests" / "oracles.py").read_text(), tests) == []

    def test_the_check_follows_reads_through_oracles(self):
        oracles = (
            "def used():\n    return _helper()\n"
            "def _helper():\n    return shared()\n"
            "def shared():\n    return 1\n"
            "def imported_only():\n    return 2\n"
            "def retired():\n    return shared()\n"
        )
        tests = [
            "from oracles import imported_only, used\nassert used() == 1\n",
            "import oracles\nassert oracles.shared() == 1\n",
        ]
        assert unread_oracles(oracles, tests) == ["imported_only", "retired"]


#: ``dataclasses`` and the modules it pulls in, whose import cost every CLI
#: process more start-up than most commands spend computing; ``fractions``
#: with its ``decimal``, which no fiber search needs; and ``argparse`` with
#: its ``gettext``, which a CLI call needs only for help and usage errors.
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "fractions", "decimal",
    "argparse", "gettext",
)


def heavy_modules_after(
    statement: str, path: Path, watched: tuple[str, ...] = HEAVY_MODULES
) -> list[str]:
    """The ``watched`` modules, then the ``enriques_bn`` modules in sorted
    order, in ``sys.modules`` of a fresh interpreter that ran ``statement``
    (one or more lines) with PYTHONPATH=path."""
    code = (
        f"{statement}\nimport sys\n"
        f"print(*[m for m in {watched!r} if m in sys.modules], "
        f"*sorted(m for m in sys.modules if m.split('.')[0] == 'enriques_bn'))"
    )
    env = dict(os.environ, PYTHONPATH=str(path))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.split()


def dataclasses_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``dataclasses`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(node.lineno)
    return sorted(found)


def named_tuple_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``NamedTuple`` from ``typing`` or read
    ``typing.NamedTuple``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            if any(alias.name == "NamedTuple" for alias in node.names):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "NamedTuple"
            and isinstance(node.value, ast.Name)
            and node.value.id == "typing"
        ):
            found.append(node.lineno)
    return sorted(found)


class TestStartUp:
    def test_cli_import_loads_no_heavy_module(self):
        assert heavy_modules_after("import enriques_bn.cli", ROOT / "src") == [
            "enriques_bn", "enriques_bn.cli", "enriques_bn.errors",
            "enriques_bn.frozen", "enriques_bn.lattice",
        ]

    def test_lattice_command_loads_no_heavy_module(self):
        # the signature is computed on ints; stdout is discarded
        statement = (
            "import io, sys; from enriques_bn.cli import run; sys.stdout = io.StringIO(); "
            "run(['lattice']); sys.stdout = sys.__stdout__"
        )
        loaded = heavy_modules_after(statement, ROOT / "src")
        assert not set(HEAVY_MODULES) & set(loaded)

    def test_the_check_sees_a_heavy_import(self, tmp_path):
        (tmp_path / "scratch_startup.py").write_text("import dataclasses\n")
        loaded = heavy_modules_after("import scratch_startup", tmp_path)
        assert "dataclasses" in loaded and "inspect" in loaded

    def test_the_check_sees_argparse(self, tmp_path):
        (tmp_path / "scratch_startup.py").write_text("import argparse\n")
        loaded = heavy_modules_after("import scratch_startup", tmp_path)
        assert "argparse" in loaded and "gettext" in loaded

    def test_library_code_does_not_import_dataclasses(self):
        found = {
            path.name: dataclasses_imports(path.read_text())
            for path in sorted((ROOT / "src" / "enriques_bn").glob("*.py"))
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_no_record_is_a_typing_named_tuple(self):
        # under ``from __future__ import annotations`` typing compiles every
        # field annotation through ForwardRef when a NamedTuple class is
        # made, in every process that imports it: two records with 18
        # fields took 0.6-1.0 ms against 0.3-0.5 ms as namedtuple subclasses
        found = {
            path.name: named_tuple_imports(path.read_text())
            for path in sorted((ROOT / "src" / "enriques_bn").glob("*.py"))
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_the_named_tuple_check_sees_both_forms(self):
        source = (
            "from typing import Sequence\n"
            "from typing import NamedTuple, Sequence\n"
            "import typing\n"
            "class R(typing.NamedTuple): pass\n"
            "from collections import namedtuple\n"
        )
        assert named_tuple_imports(source) == [2, 4]

    def test_the_ast_check_sees_both_import_forms(self):
        source = (
            "import json\n"
            "import dataclasses\n"
            "from dataclasses import dataclass, field\n"
            "import os, dataclasses as dc\n"
            "from .dataclasses_free import x\n"
        )
        assert dataclasses_imports(source) == [2, 3, 4]


#: ``enriques_bn.__all__``: the 62 names the package imported from its
#: layers before it bound them on first use
PUBLIC_NAMES = [
    "BNPrediction", "DestabCandidate", "ParamCountAudit", "PlaneCoverFamilyReport",
    "StableCaseAudit", "check_mn_bound", "cliff_chain_bound", "enumerate_destab",
    "param_count", "plane_cover_family_report", "predict_w1d", "rho",
    "stable_case_audit",
    "CertificateError", "ClassParseError", "EnriquesBNError", "FormMismatchError",
    "GenusTooSmallError", "NotAmpleEnoughError", "NotAmpleError",
    "NotPositiveDefiniteError", "NotRealizableError", "PositiveSquareRequiredError",
    "RangeError", "SearchExhaustedError", "ZeroClassError",
    "EXCEPTIONAL_SQUARE_PHI_PAIRS", "GonalityReport", "IsotropicDecomposition",
    "MuResult", "PhiResult", "clifford_generic", "decompose_isotropic", "gonality",
    "mu", "phi",
    "ConfigurationPresentation", "DivisorClass", "IntersectionForm", "NumClass",
    "basis_vector", "canonical_form", "canonical_torsion_class", "config_i",
    "config_ii", "config_iii", "content", "custom_configuration", "divisor_class",
    "embed_configuration", "is_primitive", "num_class",
    "CohomologyProfile", "PositivityStatus", "classify_positivity", "cohomology",
    "reference_ample",
    "ComplementLift", "FiberSystem", "PosDefForm", "ShortVectorResult",
    "enumerate_short",
]

#: the package and every module it imports on first use
ALL_LAYERS = [
    "enriques_bn", "enriques_bn.brill_noether", "enriques_bn.errors",
    "enriques_bn.frozen", "enriques_bn.invariants", "enriques_bn.lattice",
    "enriques_bn.positivity", "enriques_bn.shortvec",
]


class TestNamespace:
    """``enriques_bn`` binds its public names on first use, each check in a
    fresh interpreter."""

    def test_import_and_version_load_no_layer(self):
        statement = "import enriques_bn\nversion = enriques_bn.__version__"
        assert heavy_modules_after(statement, ROOT / "src") == ["enriques_bn"]

    def test_the_first_public_name_loads_every_layer(self):
        statement = "import enriques_bn\nenriques_bn.rho"
        assert heavy_modules_after(statement, ROOT / "src") == ALL_LAYERS

    def test_all_dir_and_star_import_list_the_public_names(self):
        statement = (
            "import enriques_bn\n"
            f"if enriques_bn.__all__ != {PUBLIC_NAMES!r}: raise SystemExit('__all__')\n"
            f"if dir(enriques_bn) != {sorted(PUBLIC_NAMES)!r}: raise SystemExit('dir')\n"
            "from enriques_bn import *\n"
            "missing = [n for n in enriques_bn.__all__ if globals()[n] is not "
            "getattr(enriques_bn, n)]\n"
            "if missing: raise SystemExit(missing)"
        )
        assert heavy_modules_after(statement, ROOT / "src") == ALL_LAYERS

    def test_a_misspelt_or_private_name_raises_and_loads_nothing(self):
        statement = (
            "import enriques_bn\n"
            "for name in ('canonical_from', '_reduce', '_LAYER'):\n"
            "    try:\n"
            "        getattr(enriques_bn, name)\n"
            "    except AttributeError:\n"
            "        continue\n"
            "    raise SystemExit(name)"
        )
        assert heavy_modules_after(statement, ROOT / "src") == ["enriques_bn"]


#: the modules each README command must not load, by command, and the
#: more it must not load with a flag, by (command, flag); only
#: ``selftest`` may load ``enriques_bn.selftest``
NOT_LOADED = {
    "lattice": ("enriques_bn.shortvec", "enriques_bn.invariants", "enriques_bn.brill_noether"),
    ("lattice", "--print-gram"): ("enriques_bn.positivity", "json"),
    "cohomology": (
        "enriques_bn.shortvec", "enriques_bn.invariants", "enriques_bn.brill_noether",
    ),
    "selftest": ("enriques_bn.invariants", "enriques_bn.brill_noether"),
    "invariants": ("enriques_bn.brill_noether",),
    "decompose": ("enriques_bn.brill_noether",),
    ("predict", "--tsv"): ("json",),
}


def not_loaded(argv: list[str]) -> list[str]:
    """The modules the README command ``argv`` must not load."""
    command = argv[0]
    names = [*NOT_LOADED.get(command, ())]
    names += [m for flag in argv[1:] for m in NOT_LOADED.get((command, flag), ())]
    if command != "selftest":
        names.append("enriques_bn.selftest")
    return names


@pytest.mark.parametrize("record", GOLDEN["cli"], ids=[r["key"] for r in GOLDEN["cli"]])
def test_each_readme_command_loads_only_its_layers(record):
    # run as ``python -m enriques_bn.cli`` runs it; stdout is discarded
    statement = (
        "import io, runpy, sys\n"
        f"sys.argv = ['enriques-bn', *{record['argv']!r}]\n"
        "sys.stdout = io.StringIO()\n"
        "try:\n"
        "    runpy.run_module('enriques_bn.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as ex:\n"
        "    code = ex.code\n"
        "sys.stdout = sys.__stdout__\n"
        f"if code != {record['exit']}: raise SystemExit(code)"
    )
    watched = ("json", "argparse", "gettext")
    loaded = heavy_modules_after(statement, ROOT / "src", watched)
    assert "enriques_bn.lattice" in loaded
    # the command table parses every README argv; argparse is for help and errors
    assert "argparse" not in loaded and "gettext" not in loaded
    assert [m for m in not_loaded(record["argv"]) if m in loaded] == []
    if record["argv"][0] == "selftest":
        assert "enriques_bn.selftest" in loaded
    # every other README command writes JSON, so the check sees json load
    assert ("json" in loaded) == ("json" not in not_loaded(record["argv"]))
