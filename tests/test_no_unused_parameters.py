"""Guard against parameters that a src/pdbfw function never reads.

Every named parameter of every function in src/pdbfw (methods and nested
functions included) must appear as a name in that function's body. `self`,
`cls`, `_`-prefixed names, `*args` and `**kwargs` are exempt. A parameter
that fails is a setting its callers pass for nothing: drop it from the
signature and from every call.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pdbfw"


def _unused_parameters():
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, kinds):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs
                      if a.arg not in ("self", "cls")
                      and not a.arg.startswith("_")]
            used = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            for name in params:
                if name not in used:
                    yield f"{path.name}: {node.name}({name})"


def test_every_src_parameter_is_used():
    unused = sorted(_unused_parameters())
    assert not unused, "parameters never read in their function: " + \
        ", ".join(unused)
