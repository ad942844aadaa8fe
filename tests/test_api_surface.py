"""Every public function, class and method of wordlm has a caller outside the
tests, and every private module-level function and class has one in the package.
Every public kernel is one the benchmark's tracer times.

A name counts as called when it appears, as a bare name or as an attribute,
in ``src/wordlm`` or ``perfbench`` (its smoke test excluded) anywhere but the
body of its own definition; a private name must appear in ``src/wordlm``. The
match is by name only, so a method shares its callers with every other method
of the same name.

Every parameter default of a function or method written in ``src/wordlm`` is
overridden by some call in ``src/wordlm`` or ``perfbench`` (its smoke test
excluded), by position or by keyword: a default that only tests override is a
code path that only tests reach. A call of a class counts for its
``__init__``, and a call with ``*args`` or ``**kwargs`` may override any
parameter. Dataclass fields are settings, not parameters, and are not checked.

``PAD_ID`` is compared with ``==`` or ``!=`` in ``vocab.py`` alone, so the rule
for which positions of an encoded line are real is stated once.

No module of ``src/wordlm`` imports names from ``kernels``, or ``matmul`` and
``transpose`` from ``tensor``: they are called as ``kernels.<name>`` and
``T.matmul``/``T.transpose``, which the benchmark's tracer can wrap. Every
``owner.attr`` the tracer wraps exists on its owner.

No function of ``src/wordlm`` has a ``global`` statement: a call's behaviour
comes from its arguments, not from a module-level mode another call set.

Only ``tensor.py`` assigns a ``.grad`` attribute: ``Tensor.accumulate_grad``
is the one place a parameter's gradient starts.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordlm"

# Public names that may have no caller in the code base.
ALLOWED = {
    "main": "the `wordlm` console script in pyproject.toml calls it",
}


# Parameter defaults that no call in the code base has to override.
ALLOWED_DEFAULTS = {
    "main.argv": "the console script calls main() with no arguments",
}


def module_definitions():
    """(module file, node) of every module-level function and class."""
    return [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def public_definitions():
    """(module file, qualified name, bare name) of every public definition."""
    out = []
    for module, node in module_definitions():
        if node.name.startswith("_"):
            continue
        out.append((module, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.append((module, f"{node.name}.{item.name}", item.name))
    return out


def referenced_names(files):
    """Names and attributes used in ``files``, each outside the definitions
    that bear the same name."""
    seen = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in files:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return seen


def test_every_public_name_has_a_non_test_caller():
    definitions = public_definitions()
    assert set(ALLOWED) <= {name for _, _, name in definitions}, "stale ALLOWED entry"
    used = referenced_names(sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_smoke.py"
    ))
    uncalled = [
        f"{module}:{qualified}"
        for module, qualified, name in definitions
        if name not in used and name not in ALLOWED
    ]
    assert not uncalled, f"public API that only tests call: {uncalled}"


def test_every_private_helper_has_a_caller_in_the_package():
    used = referenced_names(sorted(PACKAGE.glob("*.py")))
    uncalled = [
        f"{module}:{node.name}"
        for module, node in module_definitions()
        if node.name.startswith("_") and node.name not in used
    ]
    assert not uncalled, f"private helpers nothing in the package calls: {uncalled}"


def test_every_kernel_is_traced_by_the_benchmark():
    """A kernel missing from ``perfbench/tracing.py``'s ``KERNELS`` would drop
    out of the per-layer report without any error."""
    kernels = {
        node.name
        for node in ast.parse((PACKAGE / "kernels.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "KERNELS" for t in node.targets)
    ]
    assert len(traced) == len(set(traced)), f"KERNELS repeats a name: {traced}"
    assert kernels == set(traced)


def defaulted_parameters():
    """(module file, qualified name, call name, parameter, position or None) of
    every parameter with a default. The position counts from the first argument
    a call passes, so it skips ``self``; it is None for a keyword-only parameter."""
    out = []
    for module, node in module_definitions():
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node.name, node, 0)]
        else:
            functions = [
                (f"{node.name}.{item.name}", node.name if item.name == "__init__" else item.name,
                 item, 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                for d in item.decorator_list) else 1)
                for item in node.body if isinstance(item, ast.FunctionDef)
            ]
        for qualified, call_name, fn, bound in functions:
            positional = (fn.args.posonlyargs + fn.args.args)[bound:]
            first = len(positional) - len(fn.args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                out.append((module, qualified, call_name, arg.arg, index))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    out.append((module, qualified, call_name, arg.arg, None))
    return out


def calls_by_name(files):
    """Callee name -> [(positional argument count, keyword names)] of every call
    in ``files`` outside the definitions that bear the callee's name; a count of
    None stands for ``*args``, keywords of None for ``**kwargs``."""
    calls = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in enclosing:
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (None if starred else len(node.args), None if None in keywords else keywords)
                )
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in files:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return calls


def test_every_parameter_default_is_overridden_outside_the_tests():
    parameters = defaulted_parameters()
    short = {(q, p): f"{q.split('.')[-1]}.{p}" for _, q, _, p, _ in parameters}
    assert set(ALLOWED_DEFAULTS) <= set(short.values()), "stale ALLOWED_DEFAULTS entry"
    calls = calls_by_name(sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_smoke.py"
    ))

    def overridden(call_name, param, index):
        return any(
            keywords is None or param in keywords
            or (index is not None and (count is None or count > index))
            for count, keywords in calls.get(call_name, [])
        )

    never = [
        f"{module}:{qualified}.{param}"
        for module, qualified, call_name, param, index in parameters
        if short[qualified, param] not in ALLOWED_DEFAULTS
        and not overridden(call_name, param, index)
    ]
    assert not never, f"parameter defaults that only tests override: {never}"


def test_pad_id_is_compared_only_in_vocab():
    """``vocab.attention_mask`` is the mask rule; a ``PAD_ID`` comparison in any
    other module is a second rule that can drift from it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "vocab.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(getattr(operand, "id", getattr(operand, "attr", None)) == "PAD_ID"
                            for operand in (node.left, *node.comparators))):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"PAD_ID compared outside vocab.py: {found}"


def test_no_global_statement():
    """A dropout rng marks a training call; a module-level switch set by one
    call and read by another would be a second, hidden argument."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert not found, f"global statements: {found}"


def test_only_tensor_assigns_grad():
    """A gradient started outside ``Tensor.accumulate_grad`` is a second rule
    for its first value (zeros, or a copy of g) that can drift from the first."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "tensor.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and target.attr == "grad"
    ]
    assert not found, f".grad assigned outside tensor.py: {found}"


def test_kernels_are_called_through_the_module():
    """``from .kernels import f`` binds f at import time, so the benchmark's
    tracer, which replaces ``kernels.f``, would no longer see those calls."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                (node.level > 0 and node.module == "kernels")
                or node.module == "wordlm.kernels"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"names imported from kernels: {found}"


def test_traced_tensor_ops_are_called_through_the_module():
    """The tracer replaces ``tensor.matmul`` and ``tensor.transpose``; a name
    imported from ``tensor``, or called bare, would hide those calls from it."""
    traced = {"matmul", "transpose"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and (
                (node.level > 0 and node.module == "tensor") or node.module == "wordlm.tensor"
            ) and traced & {alias.name for alias in node.names}
            bare = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in traced)
            if imported or bare:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"matmul or transpose not called as T.<name>: {found}"


def test_every_name_the_tracer_wraps_exists():
    """``Tracer.install`` wraps ``owner.attr`` through ``owner.__dict__``; a
    renamed or moved function would end the benchmark run with a KeyError."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    scope = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("wordlm"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                scope[alias.asname or alias.name] = value

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return scope[expr.id]
        return getattr(resolve(expr.value), expr.attr)

    (install,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "install"]
    wrapped = [
        (node.args[0], node.args[1].value)
        for node in ast.walk(install)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "w"
        and isinstance(node.args[1], ast.Constant)
    ]
    assert len(wrapped) > 20
    missing = [f"{ast.unparse(owner)}.{attr}" for owner, attr in wrapped
               if attr not in vars(resolve(owner))]
    assert not missing, f"names the tracer wraps that do not exist: {missing}"
