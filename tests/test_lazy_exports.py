"""The package exports load on first use, and no library path loads numpy."""
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


MODELS = Path(__file__).resolve().parent.parent / "models"


def cli_argv(command, model, *args):
    return [command, "--model", str(MODELS / model), "--k", "4", *args]


# the numeric commands, each in a fresh process
NUMERIC_ARGV = {
    "eval-local": cli_argv("eval", "cir.json", "--mode", "local"),
    "eval-global": cli_argv("eval", "vasicek.json", "--mode", "global",
                            "--t", "3.0"),
    "eval-zero": cli_argv("eval", "cir.json", "--mode", "generalized",
                          "--baseline", "zero"),
    "eval-vasicek": cli_argv("eval", "vasicek.json", "--mode", "generalized",
                             "--baseline", "vasicek"),
    "eval-heston": cli_argv("eval", "heston.json", "--mode", "generalized",
                            "--baseline", "heston", "--u", "1.0;0.0",
                            "--x", "0.0;0.04"),
    "compare-cir": cli_argv("compare", "cir.json", "--u=-2:2:3"),
    "compare-heston": cli_argv("compare", "heston.json", "--u", "1.0;0.0",
                               "--x", "0.0;0.04"),
    "compare-bm_jumps": cli_argv("compare", "bm_jumps.json"),
}


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
    "import json, sys\n"
    "from affine_cf import series_eval, gensym, oracle\n"
    "print(json.dumps({'code': 0, 'numpy': 'numpy' in sys.modules}))",
    CLI_RUN.format(argv=["triangle", "--k", "8"]),
    CLI_RUN.format(argv=["tables", "--k", "4", "--dimension", "2"]),
    CLI_RUN.format(argv=["--version"]),
    CLI_RUN.format(argv=["--help"]),
    *[CLI_RUN.format(argv=argv) for argv in NUMERIC_ARGV.values()],
], ids=["symalg", "kernels", "numeric-modules", "triangle", "tables",
        "version", "help", *NUMERIC_ARGV])
def test_library_paths_load_no_numpy(code):
    assert fresh(code) == {"code": 0, "numpy": False}


EXACT_RUN = """
import contextlib, io, json, sys
from affine_cf import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"code": code,
                  "symalg": "affine_cf.symalg" in sys.modules,
                  "fractions": "fractions" in sys.modules}}))
"""


@pytest.mark.parametrize("argv", NUMERIC_ARGV.values(), ids=NUMERIC_ARGV)
def test_numeric_commands_load_no_exact_engine(argv):
    # the exact engine (and its Fraction arithmetic) serves only the
    # paper's exact claims
    assert fresh(EXACT_RUN.format(argv=argv)) == {
        "code": 0, "symalg": False, "fractions": False}


@pytest.mark.parametrize("argv", [["triangle", "--k", "4"],
                                  ["tables", "--k", "3", "--dimension", "1"]],
                         ids=["triangle", "tables"])
def test_exact_commands_load_the_exact_engine(argv):
    """The probe above can tell: the exact commands load symalg."""
    assert fresh(EXACT_RUN.format(argv=argv)) == {
        "code": 0, "symalg": True, "fractions": True}


USER_JUMP_EVAL = """
import cmath, json, sys
from affine_cf.series_eval import eval_local
from affine_cf.symbols import AffineModel, NoJumps, UserJump

# jumps of size 1 at rate 0.5: J(eps, xi) = 0.5 exp(xi)
jumps = UserJump(lambda eps, xi: 0.5 * cmath.exp(xi[0]), total_mass=0.5,
                 max_order=8)
model = AffineModel.from_arrays(a0=[[0.1]], jumps=(jumps, NoJumps()))
value = eval_local(model, [0.0], [1.0], 0.5, 4).value
print(json.dumps({"code": 0 if abs(value) <= 1.0 else 1,
                  "numpy": "numpy" in sys.modules}))
"""


def test_a_user_jump_evaluation_loads_numpy():
    """The probe above can tell: a user jump transform is handed a complex
    ndarray, so its evaluation does load numpy."""
    assert fresh(USER_JUMP_EVAL) == {"code": 0, "numpy": True}
