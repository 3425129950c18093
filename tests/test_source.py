"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _private_imports(tree) -> list[str]:
    # absolute imports naming a module with a dotted component that starts
    # with "_"; relative imports (level > 0) are the package's own
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}:{m}" for m in modules
                  if any(part.startswith("_") for part in m.split("."))]
    return found


def test_package_imports_no_private_module():
    # a private module of another package may change or vanish in any
    # release; the package calls public names only
    probe = ast.parse("from numpy.fft import _pocketfft\n"
                      "import numpy._core.umath\n"
                      "from . import _local\n"
                      "from numpy.linalg import eigvalsh, LinAlgError\n"
                      "import numpy as np")
    assert _private_imports(probe) == ["1:numpy.fft._pocketfft",
                                       "2:numpy._core.umath"]
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [f"{path.name}:{hit}" for path in files
            for hit in _private_imports(ast.parse(path.read_text(), str(path)))
            ] == []


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


def _literals_starting(tree, prefix: str) -> list[str]:
    return [f"{node.lineno}:{node.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith(prefix)]


def test_cli_names_no_v4_form():
    # moments names and ranks the V_4 closed forms and bands (a band's
    # source is its name, rpt.formula and rpt.band the row's headline); the
    # CLI only formats the report, so it spells no "v4_" name of its own
    probe = ast.parse('HEADER = ("p," "v4_exact")\n'
                      'for name in ("v4_d3", "v1"): pass\n'
                      'x = f"v4_d4_{b}"')
    assert _literals_starting(probe, "v4_") == ["2:v4_d3", "3:v4_d4_"]
    cli = SRC / "cli.py"
    assert _literals_starting(ast.parse(cli.read_text(), str(cli)), "v4_") == []


def _stored_count_reads(tree) -> list[str]:
    # attribute reads of .keys or .counts that are not called: the tensor's
    # stored arrays, where a dict's .keys() call is something else
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    return [f"{node.lineno}:{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("keys", "counts") and id(node) not in called]


def test_only_superchar_reads_the_stored_counts():
    # superchar owns the key format i*d + j of the stored cyclotomic
    # numbers; every other module reads them through its functions
    probe = ast.parse("row = tensor.counts[:tensor.keys.searchsorted(d)]\n"
                      "names = sorted(blob.keys())\n"
                      "keys, counts = tensor.keys, tensor.counts\n"
                      "f(t.keys)")
    assert sorted(_stored_count_reads(probe)) == [
        "1:counts", "1:keys", "3:counts", "3:keys", "4:keys"]
    files = sorted(SRC.glob("*.py"))
    assert "superchar.py" in [path.name for path in files]
    assert [f"{path.name}:{hit}" for path in files if path.name != "superchar.py"
            for hit in _stored_count_reads(ast.parse(path.read_text(), str(path)))
            ] == []


def test_package_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; this holds the
    # grammar to it (except* of 3.11 is refused), not the use of names the
    # standard library added later
    probe = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(probe, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(probe, feature_version=(3, 10))
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_cli_import_loads_no_process_pool():
    # a run on one process never starts a pool, so importing the command
    # line leaves concurrent.futures.process (and multiprocessing) unloaded;
    # numpy.fft, which only verify reads, is loaded on its first use
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    script = ("import sys, gpmoments.cli; "
              "print([m in sys.modules for m in "
              "('concurrent.futures.process', 'numpy.fft')])")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False]\n"


def _imports_of(tree, module: str) -> list[int]:
    # lines importing the package's module `module` or a name from it, in
    # any form: `from .module import x`, `from . import module`, and the
    # absolute gpmoments.module ones
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            named = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            named = [alias.name for alias in node.names]
        else:
            continue
        if any(module in name.split(".") for name in named):
            found.append(node.lineno)
    return found


def test_circularity_imports_no_superchar():
    # circularity decides from the subgroup and a context alone: it reads no
    # structure tensor, so it imports nothing from superchar
    probe = ast.parse("from .superchar import build_tensor\n"
                      "from . import superchar\n"
                      "import gpmoments.superchar\n"
                      "from gpmoments.superchar import StructureTensor\n"
                      "from .field_core import build_context\n"
                      "from . import field_core")
    assert _imports_of(probe, "superchar") == [1, 2, 3, 4]
    path = SRC / "circularity.py"
    assert _imports_of(ast.parse(path.read_text(), str(path)), "superchar") == []


def test_circularity_scans_build_no_tensor(monkeypatch, tmp_path):
    # `gpmoments circular` and scan_noncircular build contexts only: every
    # binding of build_tensor in the package counts its calls
    from gpmoments import cli, fermat_solution_count, field_core, superchar
    real, built = superchar.build_tensor, []

    def counted(ctx):
        built.append((ctx.p, ctx.d))
        return real(ctx)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gpmoments" and \
                getattr(mod, "build_tensor", None) is real:
            monkeypatch.setattr(mod, "build_tensor", counted)
    fermat_solution_count(field_core.build_context(13, 4), None, 2)
    assert built == [(13, 4)]  # the count sees a build through moments
    built.clear()
    out = tmp_path / "circular.csv"
    assert cli.main(["circular", "--k", "4", "--to", "2000",
                     "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 50
    assert 5 in cli.scan_noncircular(4, 500)
    assert built == []
