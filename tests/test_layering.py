"""Import rules that keep the checks independent of what they check."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pmtrap
from pmtrap import langevin, mirror_optics


def _imported_names(path: Path) -> set[str]:
    """Every module and ``module.name`` that the file imports; a relative
    import is named without its leading dots (``from . import x`` is ``x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
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


def test_langevin_does_not_import_trap_mechanics():
    # the Langevin layer takes the trap as plain floats (k_z, Gamma, m, T,
    # kappa); the cluster's trap physics is composed in trap_mechanics alone
    names = _imported_names(Path(langevin.__file__))
    assert not _within(names, "trap_mechanics") | _within(names, "pmtrap.trap_mechanics")


def _modules_of_cli_import() -> set[str]:
    """The modules a fresh ``import pmtrap.cli`` loads."""
    probe = "import sys, pmtrap.cli; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         cwd=Path(pmtrap.__file__).parent.parent).stdout
    return set(out.split())


def test_package_does_not_import_scipy():
    # scipy costs two thirds of the process start-up; the FFT, the
    # recurrence scan, Dawson's integral and the fits use numpy alone, and
    # scipy stays the oracles' route
    for path in Path(pmtrap.__file__).parent.glob("*.py"):
        assert not _within(_imported_names(path), "scipy"), path.name
    assert not {m for m in _modules_of_cli_import() if m.startswith("scipy")}


def test_cli_import_loads_no_fractions_or_decimal():
    # the "%.18e" kernel of io_formats.write_csv builds its power-of-ten
    # tables from ints on first use: importing either module would add to
    # the start-up of every command
    loaded = _modules_of_cli_import()
    assert not _within(loaded, "fractions") | _within(loaded, "decimal")


def test_only_the_helper_module_imports_threads():
    # every helper thread of the package, and the rule for its failures,
    # lives in _threads
    for path in Path(pmtrap.__file__).parent.glob("*.py"):
        if path.name != "_threads.py":
            names = _imported_names(path)
            for module in ("threading", "queue", "concurrent.futures"):
                assert not _within(names, module), f"{path.name} imports {module}"


def _modules_with_all():
    for info in pkgutil.iter_modules(pmtrap.__path__):
        module = importlib.import_module(f"pmtrap.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_all_lists_exactly_the_public_definitions():
    # reproduce targets are reached through REPRODUCE_TARGETS, not by name
    for module in _modules_with_all():
        short = module.__name__.rpartition(".")[2]
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{short}.__all__ names undefined {missing}"
        unlisted = [
            name for name, value in vars(module).items()
            if (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
            and not name.startswith("_") and name not in module.__all__
            and not (short == "reproduce" and name.startswith("target_"))]
        assert not unlisted, f"{short}.__all__ omits {unlisted}"


def test_cli_paths_do_not_import_numpy_ma(tmp_path):
    # np.median and np.unique without return_counts import numpy.ma (about
    # 14 ms per process); simulate, analyze and reproduce use neither
    probe = (
        "import sys, yaml\n"
        "from pmtrap import cli\n"
        "open('short.yaml', 'w').write(yaml.safe_dump({'seed': 3, 'simulation':"
        " {'duration_s': 2e-4}, 'acquisition': {'duration_s': 1.0}}))\n"
        "assert cli.main(['simulate', '--config', 'short.yaml', '--out', 'ds']) == 0\n"
        "assert cli.main(['analyze', 'ds']) == 0\n"
        "assert cli.main(['reproduce', '--figure', 'fig1a', '--out', 'rep']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    src = Path(pmtrap.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip().splitlines()[-1] == "False"
