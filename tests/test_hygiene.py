"""Source hygiene: no module imports a name it never uses, every name a
module exports exists, and every function the benchmark's tracer wraps
exists and gives its observer what it reads."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "corrls").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


EXPORTING = [f"corrls.{p.stem}" for p in MODULES
             if p.parent.name == "corrls" and "\n__all__ = " in p.read_text()]


@pytest.mark.parametrize("module", EXPORTING)
def test_exported_names_exist(module):
    """Each name in a module's ``__all__`` is an attribute of that module, so a
    deletion that leaves its export behind fails here."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    """Each function `perfbench/tracer.py` lists in TRACED is a function of
    its corrls module, so a rename under src fails here and not only in a
    traced benchmark run."""
    tracer = _load_tracer()
    missing = [f"corrls.{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"corrls.{module}"), name, None))]
    assert tracer.TRACED and missing == []


def test_tracer_observers_read_real_results(tmp_path):
    """Each observer in `perfbench/tracer.py` derives its counters from a real
    call of the function it observes, so removing a field it reads (such as
    ``FitResult.fallback_used``) or renaming an argument it reads by name
    fails here and not only in a traced benchmark run."""
    from corrls import (CorrectedMoments, MissingNoise, SolverOptions, corrected_loss,
                        corrected_moments, cross_validate, l1_cls_fit, post_cls_fit)
    from corrls.data import read_dataset_csv, write_dataset_csv
    from corrls.selection import lipschitz_estimate
    from corrls.simulate import SimConfig, gen_regression

    data, beta0, _ = gen_regression(SimConfig(n=60, p=6, s=2, noise_kind="missing", seed=1))
    m = corrected_moments(data)
    indefinite = CorrectedMoments(gamma_mat=np.diag([1.0, -1.0]), gamma_vec=np.array([0.5, 0.2]),
                                  n=60, p=2)
    opts = SolverOptions(radius=1.1 * np.abs(beta0).sum())
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    size = path.stat().st_size
    # (function, args, kwargs, the counters its observer must derive from the result)
    cases = [
        (post_cls_fit, (m, [0, 1], opts), {}, {"fallback": 0}),
        (post_cls_fit, (indefinite, [0, 1], opts), {}, {"fallback": 1}),
        (l1_cls_fit, (m, 0.1, opts), {},
         {"iters": l1_cls_fit(m, 0.1, opts).iterations, "unconverged": 0}),
        (cross_validate, (m, m, [0, 1, 2], "cs_post", opts), {}, {"points": 3, "inf": 1}),
        (lipschitz_estimate, (m.gamma_mat,), {}, {"flop": 2 * 6**3}),
        (lipschitz_estimate, (), {"G": m.gamma_mat}, {"flop": 2 * 6**3}),
        (corrected_loss, (beta0, m), {}, {"flop": 2 * 6**2}),
        (corrected_loss, (), {"beta": beta0, "m": m}, {"flop": 2 * 6**2}),
        (read_dataset_csv, (path, MissingNoise(np.zeros(6))), {}, {"bytes": size}),
        (read_dataset_csv, (), {"path": path, "noise": MissingNoise(np.zeros(6))},
         {"bytes": size}),
    ]
    observers = {name: observe for names in _load_tracer().TRACED.values()
                 for name, observe in names.items() if observe is not None}
    assert {fn.__name__ for fn, *_ in cases} == set(observers)
    for fn, args, kwargs, expected in cases:
        result = fn(*args, **kwargs)
        assert observers[fn.__name__](args, kwargs, result) == expected, fn.__name__


def test_positive_definite_threshold_has_one_home():
    """Only `post` names `_PD_EPS`: every positive-definite test, of one block
    or of a stack, is `post._is_pd`."""
    sources = sorted((ROOT / "src" / "corrls").glob("*.py"))
    assert [p.name for p in sources if p.name != "post.py" and "_PD_EPS" in p.read_text()] == []


def test_failed_fit_rule_has_one_home():
    """Only `selection` spells which exceptions mean a fit failed (`FIT_ERRORS`).
    numpy's LinAlgError is caught only where a factorization is the question
    itself, `post._is_pd` and `simulate._cholesky`, and no module wraps a
    failure in a RuntimeError, which no caller catches."""
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "corrls").glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    spelled = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Tuple)
               and "ArithmeticError" in {getattr(e, "id", None) for e in node.elts}]
    assert spelled == ["selection.py"]
    assert [name for name, text in sources.items() if "LinAlgError" in text] == \
        ["post.py", "simulate.py"]
    catching = sorted((name, f.name) for name, tree in trees.items() for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef) and "LinAlgError" in ast.unparse(f))
    assert catching == [("post.py", "_is_pd"), ("simulate.py", "_cholesky")]
    assert [name for name, text in sources.items() if "RuntimeError" in text] == []
