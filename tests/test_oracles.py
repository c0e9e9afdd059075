"""The oracles stay off the production paths.

The package docstring lists the oracles; no module of the package may call
them or import `fields.polysearch`, and importing the counting, field and CLI
modules must not load numpy.  `sieve` and the `fields.polysearch` oracle
import it at load; `fields.cubic` imports it inside the enumeration, so it
loads on the first enumerate_cubic call, not on import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import malle_lab

ORACLES = {
    "count_pairs_brute",
    "product_count_brute",
    "count_points_brute",
    "cyclic_count_oracle",
    "cubic_fields_by_polynomials",
    "_neg_reduced",
    "ind_abelian",
    "min_index_abelian",
    "product_index_coprime",
    "orbit_count",
}
PACKAGE = Path(malle_lab.__file__).parent


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _imports_polysearch(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [alias.name for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return False
    return any(name.split(".")[-1] == "polysearch" for name in names)


def test_oracles_are_listed_in_the_package_docstring():
    doc = malle_lab.__doc__
    for name in ("count_pairs_brute", "product_count_brute", "count_points_brute",
                 "cyclic_count_oracle", "fields.polysearch", "_neg_reduced",
                 "tamecomp.ind_abelian", "tamecomp.min_index_abelian",
                 "permgroup.product_index_coprime", "permgroup.orbit_count"):
        assert name in doc.split("Oracles", 1)[1]


def test_no_production_module_calls_an_oracle():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ORACLES:
                offenders.append(f"{path.name}:{node.lineno} calls {_called_name(node)}")
            if _imports_polysearch(node):
                offenders.append(f"{path.name}:{node.lineno} imports polysearch")
    assert offenders == []


def test_production_imports_do_not_load_numpy():
    code = (
        "import sys\n"
        "import malle_lab.counting, malle_lab.fields.cubic, malle_lab.fields.cyclic, malle_lab.cli\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert done.stdout.strip() == "False"
