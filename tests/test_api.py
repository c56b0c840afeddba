"""The exported API: each settable default is listed here, so a new knob is a visible edit,
each public definition is exported or used, and each exported name has a caller outside
the tests, so dead API cannot accumulate."""

import ast
import inspect
from pathlib import Path

import tpslab

# every defaulted parameter or dataclass field of a callable exported by tpslab,
# and of the public methods of its exported classes, with its default
DEFAULTED = {
    "SampledProfile": {"truncation_warning": None},
    "TensorProductStructure": {
        "unitary": None,
        "relabeling": None,
        "reflector": None,
    },
    "demo_sum_diff": {"truncation_tol": 1e-10},
    "haar_state": {"shape": ()},
    "qcf_local": {"witness_threshold": None},
    "random_entangled_state": {"shape": ()},
    "schmidt": {"truncation_tol": 1e-10},
}


def defaulted(obj) -> dict:
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # a builtin __init__, as of an exception class, has no signature
        return {}
    return {p.name: p.default for p in params if p.default is not p.empty}


def exported_defaults() -> dict:
    found = {}
    for name, obj in vars(tpslab).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        found[name] = defaulted(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                method = inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                if method and not attr.startswith("_"):
                    found[f"{name}.{attr}"] = defaulted(getattr(obj, attr))
    return {name: d for name, d in found.items() if d}


def test_every_exported_default_is_listed():
    assert exported_defaults() == DEFAULTED


def named(node: ast.AST) -> set[str]:
    """Every Name and Attribute that a syntax tree mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or a class's, or each name
    that an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    # the targets alone: a comprehension in the value binds its own names
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def definitions() -> list[tuple[str, str, bool]]:
    """(module, name, used) for each module-level function, class or assigned name of
    src/tpslab; used if another top-level statement of the package names it (as a Name or
    an Attribute), an import alone being no use."""
    package = Path(tpslab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    statements = [(stmt, named(stmt)) for tree in trees.values() for stmt in tree.body]
    return [(module, name, any(name in names for other, names in statements if other is not stmt))
            for module, tree in trees.items() for stmt in tree.body for name in defined(stmt)]


def exported_names() -> set[str]:
    """Every name that tpslab/__init__.py imports from its modules."""
    tree = ast.parse((Path(tpslab.__file__).parent / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_definition_is_exported_or_referenced():
    # a public definition must be exported by tpslab/__init__.py or used
    exported = exported_names()
    dead = [f"{module}:{name}" for module, name, used in definitions()
            if not name.startswith("_") and name not in exported and not used]
    assert dead == []


def readme_example() -> str:
    """The Python block of the README's "Library surface" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("## Library surface", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


# exported names with no caller yet, kept for the entangling-power demo (ROADMAP item 4)
AWAITING_A_CALLER = {"factor_local_bijection", "random_bijection"}


def test_every_exported_name_has_a_caller_outside_the_tests():
    # an exported name must be named by a statement of src/tpslab other than an import
    # and its own definition, by the README's library example, or by the benchmark
    named_in_src = set()
    for path in Path(tpslab.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                named_in_src |= named(stmt) - {getattr(stmt, "name", None)}
    # a name in a string, such as a span name of the benchmark's tracer, calls nothing
    named_outside = named(ast.parse(readme_example()))
    for path in (Path(__file__).parents[1] / "bench").glob("*.py"):
        named_outside |= named(ast.parse(path.read_text()))
    assert exported_names() - named_in_src - named_outside == AWAITING_A_CALLER


def test_every_private_definition_is_referenced():
    # a private helper left behind when the route that called it is deleted must go too
    dead = [f"{module}:{name}" for module, name, used in definitions()
            if name.startswith("_") and not used]
    assert dead == []


def test_every_import_is_used():
    # a name that a module of src/tpslab other than __init__.py imports must be named
    # (as a Name or an Attribute) somewhere else in that module
    package = Path(tpslab.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = named(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                imported = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{path.name}:{name}" for name in imported if name not in names]
    assert unused == []


def opens_for_writing(call: ast.Call) -> bool:
    """A call of ``open`` with a literal write, append or update mode, or of
    ``write_text`` or ``write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    modes = [a.value for a in call.args + [k.value for k in call.keywords]
             if isinstance(a, ast.Constant) and isinstance(a.value, str)
             and a.value and set(a.value) <= set("rwaxbt+")]
    return name == "open" and any(set(mode) & set("wax+") for mode in modes)


def test_only_main_writes_output():
    # one call in src/tpslab opens a file for writing, and only cli.py names the
    # standard streams or print, so every output goes through cli.main
    package = Path(tpslab.__file__).parent
    writes, streams = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and opens_for_writing(node)]
        if path.name != "cli.py":
            streams += [f"{path.name}:{name}" for name in sorted(named(tree) & {"print", "stdout",
                                                                              "stderr"})]
    assert len(writes) == 1 and writes[0].startswith("cli.py:")
    assert streams == []


def test_only_main_reads_the_state_file_and_its_tps():
    # each run reads one state in one TPS, chosen in one place: cli.main
    tree = ast.parse((Path(tpslab.__file__).parent / "cli.py").read_text())
    for name in ("load_state_file", "tps_from_dict"):
        users = [getattr(stmt, "name", f"line {stmt.lineno}") for stmt in tree.body
                 if not isinstance(stmt, (ast.Import, ast.ImportFrom)) and name in named(stmt)]
        assert users == ["main"], name


def test_no_module_imports_warnings():
    # a notice, such as a state's norm correction on load, is data that cli.main prints,
    # not a Python warning whose filters are process-wide state
    package = Path(tpslab.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        modules |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        if "warnings" in modules:
            importers.append(path.name)
    assert importers == []


def test_every_schmidt_spectrum_goes_through_schmidt_py():
    # a state's Schmidt coefficients come from the one coefficient SVD, schmidt._svd,
    # which takes singular values only, or from the 2 x 2 closed form that falls back on
    # it; the other SVD reads no state through a TPS (the CHSH correlation matrix), and
    # the one eigensolve takes the symmetric parity blocks that grid builds straight from
    # two even real profiles
    package = Path(tpslab.__file__).parent
    solvers = {"svd": set(), "eigvalsh": set()}
    svd_calls = []
    coefficients = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            where = f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr in solvers \
                        and getattr(node.value, "attr", None) == "linalg":
                    solvers[node.attr].add(where)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "svd":
                    svd_calls.append((where, len(node.args),
                                      {k.arg: ast.literal_eval(k.value) for k in node.keywords}))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        if "_coefficients" in named(tree) | imported:
            coefficients.add(path.name)
    assert solvers == {"svd": {"schmidt.py:_svd", "bell.py:_chsh_max"},
                       "eigvalsh": {"grid.py:_even_block_values"}}
    assert [call for call in svd_calls if call[0].startswith("schmidt.py")] == \
        [("schmidt.py:_svd", 1, {"compute_uv": False})]
    assert coefficients == {"tps.py", "schmidt.py"}


def test_the_readme_library_surface_runs():
    # a name that the README's library example uses and the package renamed or removed
    # fails here
    exec(compile(readme_example(), "README.md", "exec"), {})
