"""Properties of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gpmoments"


def test_package_has_no_assert_statements():
    # a cross-check written as `assert` vanishes under python -O; the
    # package raises its own errors instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead code: each GpmError subclass
    # of errors.py is the target of some `raise` in the package
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "GpmError"
                       for b in node.bases)}
    assert classes
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(classes - raised) == []


def _takes_beside_the_tensor(tree, others: set[str]) -> list[str]:
    # public functions and methods with a StructureTensor and one of `others`
    # among their parameter annotations (a name, an attribute such as
    # np.ndarray, a string, or a union)
    def names(annotation):
        out = set()
        for n in ast.walk(annotation) if annotation is not None else ():
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out |= names(ast.parse(n.value, mode="eval"))
        return out

    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            annotated = set().union(*(names(a.annotation) for a in params))
            if "StructureTensor" in annotated and annotated & others:
                found.append(f"{node.name}:{node.lineno}")
    return found


def _found_in_package(others: set[str]) -> list[str]:
    return [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
            for hit in _takes_beside_the_tensor(
                ast.parse(path.read_text(), str(path)), others)]


def test_no_function_takes_a_context_beside_the_tensor():
    # a tensor fixes p, d and k through tensor.ctx; a second context could
    # name another field, so no public function takes both
    probe = ast.parse("def f(ctx: FieldContext, t: 'StructureTensor | None'): pass\n"
                      "def _g(ctx: FieldContext, t: StructureTensor): pass\n"
                      "def h(t: StructureTensor, pv: PeriodVector): pass")
    assert _takes_beside_the_tensor(probe, {"FieldContext"}) == ["f:1"]
    assert _found_in_package({"FieldContext"}) == []


def test_no_function_takes_periods_beside_the_tensor():
    # the periods are the tensor's spectrum, read as tensor.eta; periods
    # passed beside it could be another field's, so no public function
    # takes both
    periods = {"PeriodVector", "ndarray"}
    probe = ast.parse("def f(t: StructureTensor, eta: np.ndarray): pass\n"
                      "def g(t: 'StructureTensor', pv: 'PeriodVector | None'): pass\n"
                      "def _h(t: StructureTensor, eta: np.ndarray): pass\n"
                      "def i(ctx: FieldContext, eta: np.ndarray): pass")
    assert _takes_beside_the_tensor(probe, periods) == ["f:1", "g:2"]
    assert _found_in_package(periods) == []
