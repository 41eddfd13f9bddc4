"""CLI contract: deterministic machine-readable output and error paths."""
import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from affine_cf import cli, gensym, oracle, series_eval
from affine_cf.cli import main
from affine_cf.oracle import heston_cf, riccati_cf
from affine_cf.symbols import AffineModel, load_model, save_model

from helpers import HESTON

MODELS = Path(__file__).resolve().parent.parent / "models"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_row_matches_levy(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", f"{MODELS}/bm.json",
                           "--k", "20", "--t", "0.5", "--u", "1.0",
                           "--x", "0.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# affine-cf v1"
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        # BM with a0 = 1: exp(-u^2 t / 2) = exp(-0.25)
        assert abs(float(row["re"]) - 0.7788007830714049) <= 1e-12
        assert abs(float(row["im"])) <= 1e-12

    def test_u0_row_normalized(self, capsys):
        _, out, _ = run(capsys, "eval", "--model", f"{MODELS}/vasicek.json",
                        "--t", "0.5", "--u=-1:1:3", "--x", "0.1")
        rows = out.strip().splitlines()[2:]
        middle = rows[1].split(",")
        assert float(middle[3]) == 1.0  # re at u = 0
        assert float(middle[4]) == 0.0  # im at u = 0

    def test_grid_row_count_and_order(self, capsys):
        _, out, _ = run(capsys, "eval", "--model", f"{MODELS}/vasicek.json",
                        "--t", "0.1:1:5", "--u=-2:2:4", "--x", "0:0.2:3")
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 5 * 4 * 3
        # t-major ordering: first 12 rows share the first t value
        first_t = rows[0].split(",")[0]
        assert all(r.split(",")[0] == first_t for r in rows[:12])

    def test_deterministic_output(self, capsys):
        args = ("eval", "--model", f"{MODELS}/heston.json", "--t", "0.2:1:3",
                "--u", "0.5:2:3;0", "--x", "0;0.04")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_default_order_heston_grid_matches_closed_form(self, capsys):
        # The grid of test_deterministic_output at the default K = 16, an
        # order the exact 2-d series would take long to build; the rows
        # come from the flow jet.
        code, out, _ = run(capsys, "eval", "--model", f"{MODELS}/heston.json",
                           "--t", "0.2:1:3", "--u", "0.5:2:3;0",
                           "--x", "0;0.04", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 9
        for row in rows:
            assert row["reason"] == ""
            ref = heston_cf(HESTON, row["x1"], row["x2"], row["u1"], row["t"])
            err = abs(complex(row["re"], row["im"]) - ref)
            assert err <= 1e-6 * abs(ref)
            assert err <= 2.0 * row["tail"] + 1e-15

    def test_global_grid_runs_are_byte_identical(self, capsys):
        args = ("eval", "--model", f"{MODELS}/cir.json", "--mode", "global",
                "--t=0.05:0.2:4", "--u=-2:2:4", "--x=0.04")
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, *args)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        rows = outputs[1].strip().splitlines()[2:]
        assert len(rows) == 16
        assert all(r.endswith(",") for r in rows)  # no per-row failure reason

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "eval", "--model", f"{MODELS}/bm.json",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["version"] == "affine-cf v1"
        assert payload["rows"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "eval", "--model", f"{MODELS}/bm.json",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("# affine-cf v1")

    def test_infinite_horizon_fails_the_row(self, capsys):
        # the semiflow would step forever; the row carries the refusal
        code, out, _ = run(capsys, "eval", "--model", f"{MODELS}/cir.json",
                           "--mode", "global", "--t=inf", "--u=1", "--x=0.1",
                           "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert "ValueError" in row["reason"] and "finite" in row["reason"]
        for key in ("re", "im", "tail"):
            assert row[key] != row[key]  # NaN


class TestCompare:
    def test_levy_model_uses_levy_oracle(self, capsys):
        _, out, _ = run(capsys, "compare", "--model",
                        f"{MODELS}/bm_jumps.json", "--k", "20",
                        "--u=-3:3:7", "--t", "0.5", "--format", "json")
        payload = json.loads(out)
        assert payload["oracle"] == "levy-khintchine"
        assert payload["summary"]["max_rel_err"] <= 1e-10

    def test_vasicek_against_riccati(self, capsys):
        _, out, _ = run(capsys, "compare", "--model",
                        f"{MODELS}/vasicek.json", "--k", "14",
                        "--t", "0.1:0.5:3", "--u", "1.0", "--x", "0.05",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["oracle"] == "riccati-rk4"
        assert payload["summary"]["max_rel_err"] <= 1e-6
        assert payload["summary"]["series_seconds"] >= 0.0

    def test_generalized_heston_baseline(self, capsys):
        _, out, _ = run(capsys, "compare", "--model", f"{MODELS}/heston.json",
                        "--mode", "generalized", "--baseline", "heston",
                        "--t", "1.0", "--u", "1.0;0.0", "--x", "0.0;0.04",
                        "--format", "json")
        payload = json.loads(out)
        assert payload["summary"]["max_rel_err"] <= 1e-7

    def test_generalized_cir_around_vasicek(self, capsys):
        # the Vasicek baseline moves along its path, psi0(t) != iu
        _, out, _ = run(capsys, "compare", "--model", f"{MODELS}/cir.json",
                        "--mode", "generalized", "--baseline", "vasicek",
                        "--k", "12", "--t=0.5", "--u=2", "--x=0.1",
                        "--format", "json")
        (row,) = json.loads(out)["rows"]
        assert row["abs_err"] <= row["tail"]
        assert row["rel_err"] <= 1e-12

    def test_baseline_missing_the_initial_condition_fails_the_row(
            self, capsys):
        # the Heston baseline reads only u1, so u2 = 0.5 is refused
        code, out, _ = run(capsys, "compare", "--model",
                           f"{MODELS}/heston.json", "--mode", "generalized",
                           "--baseline", "heston", "--u", "1;0.5",
                           "--x", "0;0.04", "--t", "0.2", "--k", "10",
                           "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert "ValueError" in row["reason"] and "heston" in row["reason"]
        for key in ("re", "im", "tail", "rel_err"):
            assert row[key] != row[key]  # NaN

    def test_generalized_order_below_one_fails_the_row(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", f"{MODELS}/cir.json",
                           "--mode", "generalized", "--k", "0", "--t", "0.2",
                           "--u", "2.0", "--x", "0.1", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert "ValueError" in row["reason"] and "truncation" in row["reason"]
        for key in ("re", "im", "tail", "rel_err"):
            assert row[key] != row[key]  # NaN

    def test_negative_t_row_carries_the_oracles_refusal(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", f"{MODELS}/cir.json",
                           "--t=-0.5", "--u", "1.0", "--x", "0.04",
                           "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["reason"] == ("ValueError: t must be >= 0; "
                                 "oracle ValueError: t must be >= 0")
        for key in ("re", "oracle_re", "oracle_im", "abs_err", "rel_err",
                    "oracle_err"):
            assert row[key] != row[key]  # NaN

    def test_oracle_err_is_the_step_halving_estimate(self, capsys):
        argv = ("compare", "--model", f"{MODELS}/cir.json", "--k", "8",
                "--t", "0.5", "--u", "1.0:2.0:2", "--x", "0.04")
        _, out, _ = run(capsys, *argv, "--format", "json")
        rows = json.loads(out)["rows"]
        model = load_model(MODELS / "cir.json")
        for row in rows:
            ref = riccati_cf(model, [0.04], [row["u1"]], 0.5)
            assert row["oracle_err"] == ref.step_error
            assert row["oracle_re"] == ref.value.real
        _, out, _ = run(capsys, *argv)
        header = out.splitlines()[1].split(",")
        assert header[-5:] == ["oracle_re", "oracle_im", "abs_err", "rel_err",
                               "oracle_err"]

    def test_closed_form_oracle_err_is_zero(self, capsys):
        _, out, _ = run(capsys, "compare", "--model",
                        f"{MODELS}/bm_jumps.json", "--k", "12",
                        "--u=-1:1:3", "--t", "0.5", "--format", "json")
        assert [row["oracle_err"] for row in json.loads(out)["rows"]] == [0.0] * 3


class TestTables:
    def test_rows_1_to_3(self, capsys):
        _, out, _ = run(capsys, "tables", "--k", "3", "--format", "json")
        payload = json.loads(out)
        coeffs = payload["coefficients"]
        assert len(coeffs["1"]) == 1
        assert len(coeffs["2"]) == 2
        assert len(coeffs["3"]) == 4
        values2 = sorted((e["num"], e["den"]) for e in coeffs["2"])
        assert values2 == [(1, 2), (1, 2)]

    @pytest.mark.parametrize("dimension,k,digest", [
        (1, 12, "a11211f13da670fece91567467459ddd37651d6d5e2cf3e2fc86da3d16303d68"),
        (2, 6, "f5a59585e456023f40a4d667b90c3953d36229b1a435f398463afe36e340cdb6"),
    ])
    def test_json_is_byte_identical_to_the_golden_tables(self, capsys,
                                                          dimension, k, digest):
        code, out, _ = run(capsys, "tables", "--dimension", str(dimension),
                           "--k", str(k), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "tables", "--k", "25")
        assert code != 0
        assert json.loads(err)["error"]


class TestTriangle:
    def test_rows_and_flags(self, capsys):
        _, out, _ = run(capsys, "triangle", "--k", "5", "--format", "json")
        payload = json.loads(out)
        assert [r["counts"] for r in payload["rows"][:3]] == [
            [1], [1, 1], [1, 3, 2]]
        assert all(r["within_bound"] for r in payload["rows"])
        assert all(r["R_over_factorial"] <= 1.0 + 1e-15
                   for r in payload["rows"])

    def test_json_is_byte_identical_to_the_golden_triangle(self, capsys):
        code, out, _ = run(capsys, "triangle", "--k", "16", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b2e2df753c9006c8db9e4304db1640143732507c3b38d770929371c06c3058df")


class TestAxes:
    def test_an_axis_is_numpys_linspace_bit_for_bit(self):
        # the CLI spaces its axes without numpy, to the same floats (signed
        # zeros included): one point, lo = hi, spans of every scale and
        # denormal spans, where numpy scales before multiplying
        rng = np.random.default_rng(20261020)
        triples = [(0.0, 1.0, 1), (-0.0, 1.0, 1), (2.5, 2.5, 7), (-0.0, 0.0, 3),
                   (0.0, 5e-324, 2), (0.0, 5e-324, 9), (-1e-320, 1e-320, 6)]
        while len(triples) < 1000:
            scale = 10.0 ** rng.integers(-310, 300)
            lo, hi = rng.uniform(-1.0, 1.0, 2) * scale
            if rng.random() < 0.1:
                hi = lo
            triples.append((float(lo), float(hi), int(rng.integers(1, 60))))
        for lo, hi, n in triples:
            axis = cli._parse_axis(f"{lo!r}:{hi!r}:{n}")
            assert list(map(float.hex, axis)) == \
                list(map(float.hex, np.linspace(lo, hi, n))), (lo, hi, n)


class TestErrors:
    def test_missing_model(self, capsys):
        code, out, err = run(capsys, "eval", "--model", "no-such.json")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] and payload["message"]

    def test_bad_axis_spec(self, capsys):
        code, _, err = run(capsys, "eval", "--model", f"{MODELS}/bm.json",
                           "--t", "1:2:3:4")
        assert code == 2
        assert "axis" in json.loads(err)["message"]

    def test_unknown_baseline(self, capsys):
        code, _, err = run(capsys, "eval", "--model", f"{MODELS}/bm.json",
                           "--mode", "generalized", "--baseline", "nope")
        assert code == 2
        assert "baseline" in json.loads(err)["message"]

    @pytest.mark.parametrize("baseline,model,message", [
        ("vasicek", "heston.json", "1-d"),
        ("heston", "cir.json", "2-d"),
        ("heston", [[1.0, 0.0], [0.0, 0.0]], "Heston-shaped"),
        ("heston", [[1.0, 0.0], [0.0, -0.09]], "Heston-shaped"),
        ("heston", [[1.0, 0.5], [0.5, 0.09]], "|rho| = 1.67 > 1"),
    ], ids=["vasicek-on-heston", "heston-on-cir", "heston-on-2d-bm",
            "heston-on-negative-v-diffusion", "heston-on-rho-above-one"])
    def test_baseline_the_model_cannot_carry(self, capsys, tmp_path,
                                             baseline, model, message):
        # a 2-d model whose v-slope diffusion is not [[1, rho s],
        # [rho s, s^2]] with s > 0 and |rho| <= 1 carries no Heston core
        if isinstance(model, str):
            path = MODELS / model
        else:
            path = tmp_path / "model.json"
            save_model(AffineModel.from_arrays(
                a0=np.eye(2), a_slope=[np.zeros((2, 2)), model]), path)
        code, out, err = run(capsys, "eval", "--model", str(path),
                             "--mode", "generalized", "--baseline", baseline)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert message in payload["message"]

    @pytest.mark.parametrize("block,value", [
        ("a0", 5),
        ("b0", 0.04),
        ("b_slope", [0.5]),
        ("a_slope", [[0.04]]),
        ("state_domain", [0, None]),
        ("rates", 2.0),
        ("dimension", 1.5),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_malformed_model_file(self, capsys, tmp_path, block, value):
        # one block of models/cir.json with the wrong nesting or type
        obj = json.loads((MODELS / "cir.json").read_text())
        if block == "rates":
            obj["jumps"][0] = {"type": "exponential", "intensity": 0.4,
                               "rates": value}
        else:
            obj[block] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "eval", "--model", str(path))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(block)

    @pytest.mark.parametrize("source,edit,block", [
        ("cir.json", lambda obj: obj.update(jumps=5), "jumps"),
        ("cir.json", lambda obj: obj.update(jumps=[5, 5]), "jumps[0]"),
        ("bm_jumps.json", lambda obj: obj["jumps"][0].update(intensity=[0.4]),
         "intensity"),
        ("cir.json", lambda obj: [obj], "model"),
    ], ids=["jumps-number", "jumps-of-numbers", "intensity-list",
            "top-level-array"])
    def test_malformed_jumps_block(self, capsys, tmp_path, source, edit,
                                   block):
        obj = json.loads((MODELS / source).read_text())
        edited = edit(obj)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj if edited is None else edited))
        code, out, err = run(capsys, "eval", "--model", str(path))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(block)


class TestNumericNames:
    """The names the benchmark tracer wraps stay attributes of the cli
    module that the commands look up at call time."""

    HOMES = {"eval_local": series_eval, "eval_globalized": series_eval,
             "eval_generalized": gensym, "riccati_cf": oracle}

    def test_are_the_numeric_layers_functions(self):
        for name, home in self.HOMES.items():
            assert getattr(cli, name) is getattr(home, name)

    @pytest.mark.parametrize("name,command,mode", [
        ("eval_local", "eval", "local"),
        ("eval_globalized", "eval", "global"),
        ("eval_generalized", "eval", "generalized"),
        ("riccati_cf", "compare", "local"),
    ])
    def test_a_replacement_set_before_first_use_is_called(
            self, capsys, monkeypatch, name, command, mode):
        real = getattr(self.HOMES[name], name)
        calls = []

        def replacement(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # Unbound, as in a fresh process, then replaced as a tracer does.
        monkeypatch.delitem(vars(cli), name, raising=False)
        monkeypatch.setitem(vars(cli), name, replacement)
        code, _, _ = run(capsys, command, "--model", f"{MODELS}/cir.json",
                         "--k", "8", "--mode", mode, "--u", "1.0:2.0:2",
                         "--x", "0.04")
        assert code == 0 and len(calls) == 2
        assert vars(cli)[name] is replacement

    def test_help_lists_the_registered_baselines(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"generalized mode \((\[.*?\])\)", text).group(1)
        assert ast.literal_eval(listed) == sorted(gensym.BASELINE_REGISTRY)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            cli.no_such_name
