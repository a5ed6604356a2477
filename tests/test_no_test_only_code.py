"""Guard against code in src/pdbfw that only tests call.

Every function and class defined in src/pdbfw (methods and nested functions
included, dunders excepted) must appear as a whole word at least twice in
the code of the program: the package modules without the `__init__.py`
re-exports, the driver scripts and the benchmark harness without its tests.
Comments and docstrings are dropped first, so prose alone never counts as a
caller; other string literals stay (the benchmark tracer rebinds functions
by name). The definition is one of the two, so a name passes once something
in the program's code names it. A name that fails has no caller but the
tests: delete it, or call it.
"""

import ast
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pdbfw"


def _code_text(source: str) -> str:
    """The source's tokens, space-joined, without comments and docstrings."""
    docstrings = {node.body[0].value for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    starts = {(doc.lineno, doc.col_offset) for doc in docstrings}
    return " ".join(
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type != tokenize.COMMENT and tok.start not in starts)


def _program_text():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return "\n".join(_code_text(p.read_text()) for p in files)


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


def test_prose_is_not_counted_as_a_caller():
    source = ('"""Module docstring naming alpha."""\n'
              'def f():\n'
              '    """Docstring naming beta."""\n'
              '    return g("gamma")  # comment naming delta\n')
    words = set(re.findall(r"\w+", _code_text(source)))
    assert {"g", "gamma"} <= words
    assert not {"alpha", "beta", "delta"} & words
