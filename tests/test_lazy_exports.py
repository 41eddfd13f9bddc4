"""The package exports load on first use, and the exact paths load no numpy."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affine_cf

SRC = Path(affine_cf.__file__).resolve().parent.parent


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", affine_cf.__all__)
def test_every_export_is_its_submodules_object(name):
    value = getattr(affine_cf, name)
    home = affine_cf._HOME.get(name)
    if home is None:
        assert value is importlib.import_module(f"affine_cf.{name}")
    else:
        assert value is getattr(importlib.import_module(f"affine_cf.{home}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        affine_cf.no_such_name
    assert not hasattr(affine_cf, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from affine_cf import *", namespace)
    assert set(affine_cf.__all__) <= set(namespace)
    assert namespace["eval_local"] is affine_cf.series_eval.eval_local


def test_dir_lists_every_export():
    assert set(affine_cf.__all__) <= set(dir(affine_cf))


CLI_RUN = """
import contextlib, io, json, sys
from affine_cf import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules}}))
"""


@pytest.mark.parametrize("code", [
    "import json, sys\n"
    "from affine_cf import symalg\n"
    "sums = symalg.counting_triangle(4).row_sums\n"
    "print(json.dumps({'code': 0 if sums == [1, 2, 6, 24] else 1,"
    " 'numpy': 'numpy' in sys.modules}))",
    # the retired evaluator's stub, which the benchmark's machine facts read
    "import json, sys\n"
    "from affine_cf import kernels\n"
    "print(json.dumps({'code': 0 if kernels.USING_NUMBA is False else 1,"
    " 'numpy': 'numpy' in sys.modules}))",
    CLI_RUN.format(argv=["triangle", "--k", "8"]),
    CLI_RUN.format(argv=["tables", "--k", "4", "--dimension", "2"]),
    CLI_RUN.format(argv=["--version"]),
    CLI_RUN.format(argv=["--help"]),
], ids=["symalg", "kernels", "triangle", "tables", "version", "help"])
def test_exact_paths_load_no_numpy(code):
    assert fresh(code) == {"code": 0, "numpy": False}


def test_eval_loads_the_numeric_layers():
    """The probe above can tell: an eval request does load numpy."""
    models = Path(__file__).resolve().parent.parent / "models"
    argv = ["eval", "--model", str(models / "cir.json"), "--k", "4"]
    assert fresh(CLI_RUN.format(argv=argv)) == {"code": 0, "numpy": True}
