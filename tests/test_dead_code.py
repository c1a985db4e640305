"""Every public function and method of the package has a caller in the
program.

A caller is any use of the name in `src/` or `perfbench/` other than its
own `def` and other than an import: importing a name does not call it.
perfbench's tracer installs its wrappers by name
(`tracer.install(harness, "prove", ...)`), so a quoted name counts, and
the match is by word.  perfbench's own tests are not callers.  What only
the tests call lives in `tests/helpers.py`.
"""
import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "proofbench", "*.py")))
PROGRAM = PACKAGE + sorted(
    p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    if not os.path.basename(p).startswith("test_"))

# name -> why it stays without a caller
ALLOWED: dict = {}


def _without_imports(source: str) -> str:
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    return "\n".join(lines)


def _public_defs(source: str) -> list:
    names = []
    for node in ast.parse(source).body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        names += [n.name for n in body if isinstance(n, ast.FunctionDef)]
    return [n for n in names if not n.startswith("_")]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_every_public_function_has_a_caller_in_the_program():
    program = "\n".join(_without_imports(_read(p)) for p in PROGRAM)
    uncalled = set()
    for path in PACKAGE:
        for name in _public_defs(_read(path)):
            uses = len(re.findall(rf"\b{name}\b", program))
            if uses == len(re.findall(rf"\bdef {name}\b", program)):
                uncalled.add(name)
    assert sorted(uncalled - set(ALLOWED)) == []
    # an exception that gained a caller, or went away, leaves the list
    assert sorted(set(ALLOWED) - uncalled) == []
