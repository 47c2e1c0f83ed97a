"""Contracts between the package and the tools that read it.

``perfbench/tracer.py`` wraps methods it finds by name in each class's own
``__dict__`` and counts one span per call; it is imported here read-only,
the way ``tests/test_golden.py`` reads ``perfbench/golden.json``.  Traced
passes over the benchmark's workloads repeat their counts and answers, as
``perfbench/run.py --trace 1`` checks.  The
library's checks are explicit errors, so none disappears under
``python -O``.  The test oracles reach the package through its public
names only, so no oracle runs the code it is meant to check.  Importing
the CLI loads none of the modules that made up most of its start-up
(``dataclasses`` and what it imports) and not ``fractions``; the checks
count modules, not time.
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

import enriques_bn.cli  # the tracer resolves every traced module
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
        # cache: one lift, phi's search at degrees 1..phi, and the slots
        # above phi drawn from the same lift's fibers
        e1, e2, e3 = embed_configuration(config_iii(3))
        L = DivisorClass(2 * e1 + 3 * e2 + e3, 0)
        invariants.polarization.cache_clear()
        t = tracer.Tracer()
        with t.installed(), t.item():
            invariants.decompose_isotropic(L)
        pol = invariants.polarization(L.num)
        value = pol.isotropic_floor
        assert t.calls["shortvec.lift_init"] == 1
        assert t.calls["shortvec.fiber"] > value
        assert t.points["shortvec.fiber"] > len(pol.isotropic(value))


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

    @pytest.mark.parametrize("workload", ["sweep", "destab"])
    def test_library_workloads(self, workload):
        golden = {rec["key"]: rec["answer"] for rec in GOLDEN[workload]}

        def compute(item):
            if workload == "sweep":
                return workloads.sweep_answer(item.payload)
            return workloads.destab_answer(*item.payload)

        self.check_passes(
            workload, compute, lambda item, got: workloads.canonical(got) == golden[item.key]
        )

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


#: ``dataclasses`` and the modules it pulls in, whose import cost every CLI
#: process more start-up than most commands spend computing; and
#: ``fractions`` with its ``decimal``, which no fiber search needs.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "fractions", "decimal")


def heavy_modules_after(statement: str, path: Path) -> list[str]:
    """The HEAVY_MODULES in ``sys.modules`` of a fresh interpreter that ran
    ``statement`` with PYTHONPATH=path."""
    code = (
        f"{statement}; import sys; "
        f"print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])"
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


class TestStartUp:
    def test_cli_import_loads_no_heavy_module(self):
        assert heavy_modules_after("import enriques_bn.cli", ROOT / "src") == []

    def test_lattice_command_loads_no_heavy_module(self):
        # the signature is computed on ints; stdout is discarded
        statement = (
            "import io, sys; from enriques_bn.cli import run; sys.stdout = io.StringIO(); "
            "run(['lattice']); sys.stdout = sys.__stdout__"
        )
        assert heavy_modules_after(statement, ROOT / "src") == []

    def test_the_check_sees_a_heavy_import(self, tmp_path):
        (tmp_path / "scratch_startup.py").write_text("import dataclasses\n")
        loaded = heavy_modules_after("import scratch_startup", tmp_path)
        assert "dataclasses" in loaded and "inspect" in loaded

    def test_library_code_does_not_import_dataclasses(self):
        found = {
            path.name: dataclasses_imports(path.read_text())
            for path in sorted((ROOT / "src" / "enriques_bn").glob("*.py"))
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_the_ast_check_sees_both_import_forms(self):
        source = (
            "import json\n"
            "import dataclasses\n"
            "from dataclasses import dataclass, field\n"
            "import os, dataclasses as dc\n"
            "from .dataclasses_free import x\n"
        )
        assert dataclasses_imports(source) == [2, 3, 4]
