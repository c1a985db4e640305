"""Every public function and method of the package has a caller in the
program.

References are resolved through the syntax tree of `src/` and
`perfbench/`; perfbench's own tests are not callers.

- A module-level function is referenced by a name that resolves to it:
  in its own module, or where it is imported from there, unless a
  function scope binds that name itself (a parameter or a local
  variable).  An attribute of its module (`clausify.cnf`) references it
  too.
- A method is referenced by an attribute of its name.  When the program
  also keeps a data attribute of that name (a field, a slot, an
  assignment `x.name = ...`), only a call `x.name(...)` counts, unless
  the method is a property.
- A function's references inside its own body, a string in the package
  and an import are not callers.  perfbench's tracer installs its
  wrappers by name (`tracer.install(harness, "prove", ...)`), so a
  string in perfbench counts.

What only the tests call lives in `tests/helpers.py`.

Every parameter with a default of a public module-level function of the
package is passed, by position or by keyword, by some call in the
program that resolves to the function as above (a `*args` or `**kw`
call passes every parameter of its kind).  A parameter only tests pass
selects code the program never runs.

Every name an import binds in the package or in `tests/` is also read
there, except on a line marked `# noqa` (bare or naming F401, as flake8
reads it): `harness` binds names for perfbench's tracer to wrap.

Every field of the package is read by the program.  A field is a
dataclass field, a `__slots__` entry or an attribute the package assigns
(`x.name = ...`).  A read is an attribute load of its name in `src/` or
non-test `perfbench/`, or `vars` or `asdict` of the whole object: of
`self`, or of a parameter annotated with the field's class (`asdict`
also reads each nested dataclass field whole).  A field that nothing
reads is kept up to date for no one.

No module of the package gates an invariant with an `assert` statement:
`python -O` strips them, so a gate raises explicitly.
"""
import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "proofbench", "*.py")))
PERFBENCH = sorted(
    p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    if not os.path.basename(p).startswith("test_"))
PROGRAM = PACKAGE + PERFBENCH
TESTS = sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))

# qualified name -> why it stays without a caller
ALLOWED: dict = {
    "corpus.CorpusItem.as_conjecture":
        "perfbench/test_gen.py builds its reference problems with it, and "
        "perfbench/ changes only together with the benchmark",
}

# "module.function(parameter)" -> why it stays although the program never
# passes it
ALLOWED_PARAMETERS: dict = {
    "clausify.cnf(threshold)":
        "the product of clause counts above which distribution names a "
        "disjunct instead; tests vary it to reach both sides of the switch "
        "on small formulas, which the program meets only on large ones",
    "cli.main(argv)":
        "the console script calls main() with no arguments; the default "
        "reads sys.argv",
}

# "module.Class.field" -> why it stays although the program never reads it
ALLOWED_FIELDS: dict = dict.fromkeys(
    ("prover.Stats.depth_reached", "prover.Stats.consults",
     "prover.Stats.advisor_errors"),
    "only the tests that pin the search read it; per-attempt search "
    "telemetry in the run's records is the open item that gives it a "
    "program reader")

FUNCTIONS = (ast.FunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


TREES = {path: ast.parse(_read(path)) for path in PROGRAM}


def _module(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _definitions() -> dict:
    """(module, class or None, name) -> def node of each public function
    and method of the package."""
    defs = {}
    for path in PACKAGE:
        for node in TREES[path].body:
            cls = node.name if isinstance(node, ast.ClassDef) else None
            for fn in node.body if cls else [node]:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    defs[(_module(path), cls, fn.name)] = fn
    return defs


def _locals(scope) -> set:
    """The names a function or comprehension scope binds itself; a name
    bound by an import still resolves to what it imports."""
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
        names |= {x.arg for x in (a.vararg, a.kwarg) if x}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        names, todo = set(), list(scope.generators)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, FUNCTIONS + COMPREHENSIONS):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _references(path: str) -> list:
    """(key, enclosing def nodes) of each reference in the file.  Keys:
    ("def", module, name), ("attr", name), ("call", name), ("string", name);
    a call of a module-level function also gives ("positional", module,
    name, count) and one ("keyword", module, name, keyword) per keyword,
    None for `**kw` (count None for `*args`)."""
    module = _module(path)
    imported: dict = {}     # bound name -> (module, name)
    modules: dict = {}      # bound name -> module
    for node in ast.walk(TREES[path]):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                bound = alias.asname or alias.name
                if source in ("", "proofbench"):
                    modules[bound] = alias.name
                else:
                    imported[bound] = (source, alias.name)
    refs: list = []

    def target(func, scopes: tuple):
        """(module, name) of the module-level function `func` names."""
        if isinstance(func, ast.Name):
            if not any(func.id in s for s in scopes):
                return imported.get(func.id, (module, func.id))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules
              and not any(func.value.id in s for s in scopes)):
            return modules[func.value.id], func.attr
        return None

    def visit(node, scopes: tuple, inside: tuple) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Call) and (called := target(node.func, scopes)):
            count = (None if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            refs.append((("positional", *called, count), inside))
            refs.extend((("keyword", *called, k.arg), inside)
                        for k in node.keywords)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not any(node.id in s for s in scopes):
                refs.append((("def",) + imported.get(node.id, (module, node.id)),
                             inside))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append((("attr", node.attr), inside))
            value = node.value
            if (isinstance(value, ast.Name) and value.id in modules
                    and not any(value.id in s for s in scopes)):
                refs.append((("def", modules[value.id], node.attr), inside))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            refs.append((("call", node.func.attr), inside))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and path in PERFBENCH):
            refs.append((("string", node.value), inside))
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            scopes += (_locals(node),)
            if not isinstance(node, COMPREHENSIONS):
                inside += (node,)
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, inside)

    visit(TREES[path], (), ())
    return refs


def _data_attributes() -> set:
    """Attribute names the program stores data under: fields and other
    class-level assignments, and every `x.name = ...`."""
    names = set()
    for path in PROGRAM:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                               else stmt.targets if isinstance(stmt, ast.Assign)
                               else [])
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _unpassed() -> set:
    """"module.function(parameter)" for each parameter with a default of a
    public module-level function that no call in the program passes."""
    passes: dict = {}       # (module, name) -> positional counts, keywords
    for path in PROGRAM:
        for key, inside in _references(path):
            if key[0] in ("positional", "keyword"):
                passes.setdefault(key[1:3], []).append((key[0], key[3], inside))
    unpassed = set()
    for (module, cls, name), fn in _definitions().items():
        if cls is not None:
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = [(i, x.arg) for i, x in enumerate(positional)
                     if i >= len(positional) - len(a.defaults)]
        defaulted += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        calls = [(kind, value) for kind, value, inside
                 in passes.get((module, name), ()) if fn not in inside]
        for i, param in defaulted:
            if not any(
                    (kind == "keyword" and value in (param, None))
                    or (kind == "positional" and i is not None
                        and (value is None or value > i))
                    for kind, value in calls):
                unpassed.add(f"{module}.{name}({param})")
    return unpassed


def _is_property(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in fn.decorator_list)


def _uncalled() -> set:
    where: dict = {}        # key -> enclosing def nodes of each reference
    for path in PROGRAM:
        for key, inside in _references(path):
            where.setdefault(key, []).append(inside)
    data = _data_attributes()
    uncalled = set()
    for (module, cls, name), fn in _definitions().items():
        if cls is None:
            keys = [("def", module, name)]
        elif name in data and not _is_property(fn):
            keys = [("call", name)]
        else:
            keys = [("attr", name)]
        keys.append(("string", name))
        if not any(fn not in inside for key in keys for inside in where.get(key, ())):
            uncalled.add(".".join(filter(None, (module, cls, name))))
    return uncalled


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _is_assigned(node) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)


def _fields() -> dict:
    """"module.Class.name" -> name for each field of a package class: its
    dataclass fields, its `__slots__` and what its methods assign to
    `self`; "module.name" -> name for an attribute the module assigns to
    an object outside its class's methods, when no class has that field."""
    fields: dict = {}
    others: dict = {}
    for path in PACKAGE:
        module, owned = _module(path), set()
        for cls in ast.walk(TREES[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = []
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and _is_dataclass(cls)
                        and isinstance(stmt.target, ast.Name)):
                    names.append(stmt.target.id)
                elif isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets):
                    names += [e.value for e in stmt.value.elts]
            for node in ast.walk(cls):
                if (_is_assigned(node) and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    names.append(node.attr)
                    owned.add(node)
            fields.update((f"{module}.{cls.name}.{n}", n) for n in names)
        others.update((f"{module}.{node.attr}", node.attr)
                      for node in ast.walk(TREES[path])
                      if _is_assigned(node) and node not in owned)
    named = set(fields.values())
    fields.update((k, n) for k, n in others.items() if n not in named)
    return fields


def _whole_reads() -> set:
    """Names of the package classes whose objects the program reads whole:
    `vars(x)` or `asdict(x)` of `self` in a method of the class or of a
    parameter annotated with it, and the dataclasses an `asdict` reaches
    through an annotated field."""
    nested: dict = {}       # dataclass name -> annotations of its fields
    for path in PACKAGE:
        for cls in ast.walk(TREES[path]):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                nested[cls.name] = {ast.unparse(s.annotation) for s in cls.body
                                    if isinstance(s, ast.AnnAssign)}
    whole = set()

    def visit(node, cls, params: dict) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            a = node.args
            params = {**params, **{x.arg: ast.unparse(x.annotation)
                                   for x in a.posonlyargs + a.args + a.kwonlyargs
                                   if x.annotation is not None}}
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("vars", "asdict") and len(node.args) == 1
              and isinstance(node.args[0], ast.Name)):
            name = node.args[0].id
            todo = [cls if name == "self" else params.get(name)]
            while todo:
                owner = todo.pop()
                if owner in nested and owner not in whole:
                    whole.add(owner)
                    if node.func.id == "asdict":
                        todo.extend(nested[owner])
        for child in ast.iter_child_nodes(node):
            visit(child, cls, params)

    for path in PROGRAM:
        visit(TREES[path], None, {})
    return whole


def _unread_fields() -> set:
    loaded = {node.attr for path in PROGRAM for node in ast.walk(TREES[path])
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    whole = _whole_reads()
    return {key for key, name in _fields().items()
            if name not in loaded and key.split(".")[-2] not in whole}


def test_every_public_function_has_a_caller_in_the_program():
    uncalled = _uncalled()
    assert sorted(uncalled - set(ALLOWED)) == []
    # an exception that gained a caller, or went away, leaves the list
    assert sorted(set(ALLOWED) - uncalled) == []


def test_every_parameter_default_is_overridden_by_the_program():
    unpassed = _unpassed()
    assert sorted(unpassed - set(ALLOWED_PARAMETERS)) == []
    assert sorted(set(ALLOWED_PARAMETERS) - unpassed) == []


def test_every_field_is_read_by_the_program():
    unread = _unread_fields()
    assert sorted(unread - set(ALLOWED_FIELDS)) == []
    assert sorted(set(ALLOWED_FIELDS) - unread) == []


def _unused_imports(path: str) -> list:
    """`file:line name` for each name an import in `path` binds and no
    expression of the module reads."""
    text = _read(path)
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any(re.search(r"# noqa(?!:)|# noqa:.*\bF401\b", line)
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    assert [u for path in PACKAGE + TESTS for u in _unused_imports(path)] == []


def test_no_assert_statement_in_the_package():
    found = [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
             for path in PACKAGE for node in ast.walk(ast.parse(_read(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
