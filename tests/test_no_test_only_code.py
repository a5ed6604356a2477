"""Guard against code in src/pdbfw that only tests call.

Every function and class defined in src/pdbfw (methods and nested functions
included, dunders excepted) must appear as a whole word at least twice in
the program: the package modules without the `__init__.py` re-exports, the
driver scripts and the benchmark harness without its tests. The definition
is one of the two, so a name passes once something in the program names it,
in code or in a string (the benchmark tracer rebinds functions by name). A
name that fails has no caller but the tests: delete it, or call it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pdbfw"


def _program_text():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return "\n".join(p.read_text() for p in files)


def _defined_names():
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, kinds) and not re.fullmatch(r"__\w+__",
                                                            node.name):
                yield path.name, node.name


def test_every_src_name_has_a_caller_outside_tests():
    text = _program_text()
    unused = sorted({f"{module}: {name}" for module, name in _defined_names()
                     if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2})
    assert not unused, "defined in src/pdbfw, called only by tests: " + \
        ", ".join(unused)
