"""Import rules that keep the checks independent of what they check."""

import ast
import subprocess
import sys
from pathlib import Path

import pmtrap
from pmtrap import mirror_optics


def _imported_names(path: Path) -> set[str]:
    """Every module and ``module.name`` that the file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _within(names: set[str], package: str) -> set[str]:
    return {name for name in names
            if name == package or name.startswith(package + ".")}


def test_oracles_do_not_import_the_package():
    # an oracle that imports pmtrap would check the package against itself
    names = _imported_names(Path(__file__).with_name("oracles.py"))
    assert not _within(names, "pmtrap")


def test_mirror_optics_has_no_quadrature():
    # collection fractions are closed-form; quadrature is the oracle's route
    names = _imported_names(Path(mirror_optics.__file__))
    assert not _within(names, "scipy.integrate")


def test_package_does_not_import_scipy_signal():
    # scipy.signal, and the scipy.stats it loads, double the import time;
    # the Welch window, the peak finder and the Langevin solve use numpy and
    # LAPACK instead
    for path in Path(pmtrap.__file__).parent.glob("*.py"):
        names = _imported_names(path)
        assert not _within(names, "scipy.signal"), path.name
    probe = ("import sys, pmtrap.cli; "
             "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         cwd=Path(pmtrap.__file__).parent.parent).stdout
    assert out.strip() == "[]"
