"""The package's lazy public names, its import graph, and the modules each
subcommand loads."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import mospop

SRC = Path(mospop.__file__).parent


# Each library module's imports of other mospop modules: one way, params
# first.  The cli imports inside its subcommands and __init__ through its
# name table, so both are left out.
IMPORTS = {
    "params": set(),
    "fixed_points": {"params"},
    "dynamics": {"fixed_points", "params"},
    "stability": {"fixed_points", "params"},
    "simplex": {"fixed_points", "params"},
    "oracles": {"params"},
}

# The one import of private names between mospop modules: the arithmetic
# kernels that stability shares with fixed_points.
PRIVATE_IMPORTS = {
    ("stability", "fixed_points"): {"_MIN_NORMAL", "_ldexp", "_quadratic", "_residual"},
}


def package_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """(imported mospop module, at module level) for each relative import."""
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [(name, id(node) in top) for name in names]
    return found


class TestImportGraph:
    def test_library_modules_import_one_way_at_module_level(self):
        got = {}
        for path in sorted(SRC.glob("*.py")):
            if path.stem in ("__init__", "__main__", "cli"):
                continue
            imports = package_imports(ast.parse(path.read_text(encoding="utf-8")))
            assert all(top for _, top in imports), path.stem
            got[path.stem] = {name for name, _ in imports}
        assert got == IMPORTS

    def test_private_names_cross_modules_in_one_import_only(self):
        got = {}
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    private = {a.name for a in node.names if a.name.startswith("_")}
                    if private:
                        assert (path.stem, node.module) not in got, path.stem
                        got[path.stem, node.module] = private
        assert got == PRIVATE_IMPORTS

    def test_the_map_is_defined_once_next_to_its_fixed_points(self):
        for path in sorted(SRC.glob("*.py")):
            defined = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                       if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
            want = {"State", "step"} if path.stem == "fixed_points" else set()
            assert defined & {"State", "step"} == want, path.stem
        fixed_points = importlib.import_module("mospop.fixed_points")
        assert (mospop.State, mospop.step) == (fixed_points.State, fixed_points.step)
        assert not hasattr(importlib.import_module("mospop.dynamics"), "step")


class TestLazyNames:
    def test_every_public_name_is_its_submodules_object(self):
        for name in mospop.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(f"mospop.{mospop._MODULE_OF[name]}")
            assert name in module.__all__
            assert getattr(mospop, name) is getattr(module, name)

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from mospop import *", namespace)
        assert set(mospop.__all__) <= set(namespace)
        assert namespace["validate"] is mospop.params.validate

    def test_dir_lists_the_public_names(self):
        assert set(mospop.__all__) <= set(dir(mospop))

    def test_unknown_name_is_an_attribute_error(self):
        assert not hasattr(mospop, "no_such_name")
        with pytest.raises(ImportError):
            exec("from mospop import no_such_name", {})

    def test_import_loads_no_submodule(self):
        script = ("import sys, mospop\n"
                  "print(sorted(m for m in sys.modules if m.startswith('mospop')))\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "['mospop']\n"


EX3 = ["--alpha", "6", "--beta", "0.5", "--mu", "0.4", "--d0", "0.6"]
GRID = ["--axis1", "alpha:1:2:1", "--axis2", "beta:0.5:1:0.5", "--output", "-"]
# every start holds the package, the cli and the oracles (which the
# benchmark's tracer looks up); params validates every rate vector
START = {"mospop", "mospop.cli", "mospop.oracles", "mospop.params"}
POINTS = START | {"mospop.fixed_points"}
STABILITY = POINTS | {"mospop.stability"}
# the simplex case solves its quadratics with the kernel in fixed_points
SIMPLEX = POINTS | {"mospop.simplex"}
# an orbit's states are fixed_points.State, whether or not it ever looks
# the fixed points up (only once a step moves less than tol)
ORBIT = POINTS | {"mospop.dynamics"}

LOADS = {
    "classify": (["classify", *EX3], START),
    "fixed-points": (["fixed-points", *EX3], POINTS),
    "stability": (["stability", *EX3], STABILITY),
    "simulate budget": (["simulate", *EX3, "--x0", "50", "--y0", "80", "--iters", "5"],
                        ORBIT),
    "simulate converges": (["simulate", *EX3, "--x0", "50", "--y0", "80"], ORBIT),
    "simplex": (["simplex", "--alpha", "1.5", "--beta", "0.5", "--x0", "0.3"], SIMPLEX),
    "sweep region": (["sweep", *GRID, "--quantity", "region", "--mu", "0.5"], START),
    "sweep x_star": (["sweep", *GRID, "--quantity", "x_star"], SIMPLEX),
    "sweep radius": (["sweep", *GRID, "--quantity", "spectral_radius_at_origin",
                      "--mu", "0.5"], STABILITY),
    "verify": (["verify", "--draws", "3"], STABILITY | SIMPLEX),
}


def loaded(argv):
    """(mospop modules, json loaded, dataclasses loaded) after cli.main(argv)
    in a fresh interpreter."""
    script = (
        "import sys\n"
        "from mospop.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(repr((sorted(m for m in sys.modules if m.split('.')[0] == 'mospop'),\n"
        "            'json' in sys.modules, 'dataclasses' in sys.modules)),\n"
        "      file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    modules, json_loaded, dataclasses_loaded = ast.literal_eval(
        out.stderr.splitlines()[-1])
    return set(modules), json_loaded, dataclasses_loaded


@pytest.mark.parametrize("argv, modules", LOADS.values(), ids=LOADS)
def test_each_subcommand_loads_only_what_it_runs(argv, modules):
    assert loaded(argv) == (modules, False, False)


def test_json_is_loaded_for_json_output_only():
    assert loaded(["classify", *EX3, "--json"]) == (START, True, False)
