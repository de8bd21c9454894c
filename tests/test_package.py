"""The package's lazy public names, and the modules each subcommand loads."""

import ast
import importlib
import subprocess
import sys

import pytest

import mospop


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
POINTS = START | {"mospop.dynamics", "mospop.fixed_points"}
SIMPLEX = POINTS | {"mospop.simplex", "mospop.stability"}

LOADS = {
    "classify": (["classify", *EX3], START),
    "fixed-points": (["fixed-points", *EX3], POINTS),
    "stability": (["stability", *EX3], POINTS | {"mospop.stability"}),
    # the orbit looks the fixed points up only once a step moves less than tol
    "simulate budget": (["simulate", *EX3, "--x0", "50", "--y0", "80", "--iters", "5"],
                        START | {"mospop.dynamics"}),
    "simulate converges": (["simulate", *EX3, "--x0", "50", "--y0", "80"], POINTS),
    "simplex": (["simplex", "--alpha", "1.5", "--beta", "0.5", "--x0", "0.3"], SIMPLEX),
    "sweep region": (["sweep", *GRID, "--quantity", "region", "--mu", "0.5"], START),
    "sweep x_star": (["sweep", *GRID, "--quantity", "x_star"], SIMPLEX),
    "sweep radius": (["sweep", *GRID, "--quantity", "spectral_radius_at_origin",
                      "--mu", "0.5"], POINTS | {"mospop.stability"}),
    "verify": (["verify", "--draws", "3"], SIMPLEX),
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
