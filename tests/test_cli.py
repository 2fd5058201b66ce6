"""CLI golden tests: exit-code contract, determinism, overwrite protection."""

import json
import re
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from click.testing import CliRunner

from cotzeta import exact, recip
from cotzeta.cli import INT_LIST, main, verify
from cotzeta.exact import ExactScaled

# One passing example per identity code of `czeta verify`.
VERIFY_EXAMPLES = {
    "thm11": "--a -3 --h 2 --k 3",
    "thm12": "--a 2.5 --h 2 --k 3",
    "thm13": "--n 3 --h 2 --k 3",
    "thm14-cross": "--n 3",
    "cor23": "--n 3 --h 2 --k 3",
    "thm31": "--a 2.5 --ks 2,3 --ms 0,0,0",
    "thm32": "--n 3 --ks 2,3 --ms 0,0,0",
    "cor33": "--n 4 --ks 2,3 --ms 0,0,1",
    "prop43": "--s 2 --a 3 --q 5",
    "thm44": "--k 2 --a 3 --q 5",
    "cor45": "--a 2 --k 4 --q 5",
    "lemma41": "--k 1,2,3 --q 5",
    "lemma42": "--s 2.5 --z 0.7 --n 1 --q 5",
    "eisenstein-period": "--n 3 --z 1j",
    "dedekind-recip": "--hk-max 5",
}


@pytest.fixture()
def runner():
    return CliRunner()


class TestCompute:
    def test_bernoulli(self, runner):
        res = runner.invoke(main, ["compute", "bernoulli", "--n", "4"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["value"] == {"num": "-1", "den": "30"}

    def test_dedekind(self, runner):
        res = runner.invoke(main, ["compute", "dedekind", "--h", "1", "--k", "3"])
        assert res.exit_code == 0
        assert json.loads(res.output)["value"] == {"num": "1", "den": "18"}

    def test_g_poly_coefficients(self, runner):
        res = runner.invoke(main, ["compute", "g-poly", "--n", "3"])
        assert res.exit_code == 0
        coeffs = json.loads(res.output)["polynomial"]["coefficients"]
        # pi^3 (z^3/90 - z/18)
        assert coeffs["1"] == {"num": "-1", "den": "18", "pi_pow": 3, "i_pow": 0}
        assert coeffs["3"] == {"num": "1", "den": "90", "pi_pow": 3, "i_pow": 0}

    def test_bc_sum(self, runner):
        res = runner.invoke(main, ["compute", "bc-sum", "--a", "-3",
                                   "--h", "2", "--k", "3"])
        assert res.exit_code == 0
        val = json.loads(res.output)["value"]
        assert val["re"].startswith("-0.5103913856")

    def test_invalid_input_exits_2(self, runner):
        res = runner.invoke(main, ["compute", "dedekind", "--h", "2", "--k", "4"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["compute", "apostol", "--n", "4",
                                   "--h", "1", "--k", "3"])
        assert res.exit_code == 2

    def test_determinism(self, runner):
        args = ["compute", "bc-sum", "--a", "2.5", "--h", "2", "--k", "3"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2


class TestVerify:
    def test_thm13_single(self, runner):
        res = runner.invoke(main, ["verify", "thm13", "--n", "3", "--h", "2",
                                   "--k", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output.strip())
        assert doc["pass"] is True

    def test_thm13_json_shows_both_sides(self, runner):
        res = runner.invoke(main, ["verify", "thm13", "--n", "3", "--h", "2",
                                   "--k", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        with mp.workdps(40):
            closed_form = mp.nstr(exact.thm13_rhs(3, 2, 3).numeric(40).real, 28)
        for side in ("lhs", "rhs"):
            assert (doc[side]["re"], doc[side]["im"]) == (closed_form, "0.0")
        assert doc["residual"] == {"re": "0.0", "im": "0.0", "abs_err": "0.0"}

    def test_thm13_sweep_stream(self, runner):
        res = runner.invoke(main, ["verify", "thm13", "--n", "3,5", "--hk-max", "4"])
        assert res.exit_code == 0
        lines = [json.loads(l) for l in res.output.strip().splitlines()]
        assert all(doc["pass"] for doc in lines)
        assert len(lines) == 2 * 11  # coprime pairs up to 4, both orders

    def test_dedekind_sweep(self, runner):
        res = runner.invoke(main, ["verify", "dedekind-recip", "--hk-max", "8"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("code", ["thm13", "dedekind-recip"])
    def test_hk_max_zero_is_a_usage_error(self, runner, code):
        res = runner.invoke(main, ["verify", code, "--hk-max", "0"])
        assert res.exit_code == 2
        assert "Invalid value for '--hk-max'" in res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    def test_hk_max_with_h_k_is_a_usage_error(self, runner):
        res = runner.invoke(main, ["verify", "thm13", "--n", "3", "--hk-max", "2",
                                   "--h", "5", "--k", "7"])
        assert res.exit_code == 2
        assert "--hk-max" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("code,opt", [
        (code, param.opts[0]) for code, cmd in sorted(verify.commands.items())
        for param in cmd.params if param.type is INT_LIST])
    def test_empty_int_list_is_a_usage_error(self, runner, code, opt):
        args = VERIFY_EXAMPLES[code].split()
        if opt in args:
            args[args.index(opt) + 1] = ""
        else:
            args += [opt, ""]
        res = runner.invoke(main, ["verify", code, *args])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    def test_cor45(self, runner):
        res = runner.invoke(main, ["verify", "cor45", "--a", "2", "--k", "4",
                                   "--q", "5"])
        assert res.exit_code == 0

    def test_budget_override_forces_failure(self, runner):
        res = runner.invoke(main, ["--budget", "1e-60", "verify", "thm12",
                                   "--a", "2.5", "--h", "2", "--k", "3"])
        assert res.exit_code == 1
        doc = json.loads(res.output.strip())
        assert doc["pass"] is False

    @pytest.mark.parametrize("args", ["cor23 --n 4 --h 2 --k 3",
                                      "thm12 --a 2.5,0.5 --h 2 --k 3"])
    def test_failed_run_leaves_out_file_unchanged(self, runner, tmp_path, args):
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"precious\n")
        res = runner.invoke(main, ["--out", str(out), "--force", "verify", *args.split()])
        assert res.exit_code == 2
        assert out.read_bytes() == b"precious\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_exact_reports_follow_precision_digits(self, runner):
        res = runner.invoke(main, ["--precision-digits", "50", "verify", "dedekind-recip",
                                   "--hk-max", "3"])
        assert res.exit_code == 0
        rows = {(d["params"]["h"], d["params"]["k"]): d
                for d in map(json.loads, res.output.splitlines())}
        with mp.workdps(60):
            lhs = mp.mpf(rows[3, 1]["lhs"]["re"])  # s(3,1) + s(1,3) = 1/18
            assert abs(lhs - mp.mpf(1) / 18) <= mp.mpf(1) / 18 * mp.mpf("1e-45")

    def test_failing_verdict_still_writes_out_file(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"precious\n")
        res = runner.invoke(main, ["--out", str(out), "--force", "--budget", "-1",
                                   "verify", "dedekind-recip", "--hk-max", "2"])
        assert res.exit_code == 1
        assert [json.loads(l)["pass"] for l in out.read_text().splitlines()] == [False] * 3
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]

    def test_text_format(self, runner):
        res = runner.invoke(main, ["--format", "text", "verify", "thm13",
                                   "--n", "3", "--h", "1", "--k", "2"])
        assert res.exit_code == 0
        assert res.output.startswith("[PASS]")

    def test_thm11_complex_order_on_a_node_line(self, runner):
        # Im a = 1 puts Kronrod nodes of the Mellin line at Im s = Im a.
        res = runner.invoke(main, ["--format", "text", "verify", "thm11",
                                   "--a=-2.5+1j", "--h", "2", "--k", "5"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("[PASS]")
        assert res.exception is None and "Traceback" not in res.output

    def test_missing_params_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "thm13", "--n", "3"])
        assert res.exit_code == 2

    def test_stream_determinism(self, runner):
        args = ["verify", "thm12", "--a", "2.5", "--h", "2", "--k", "3"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_examples_cover_every_code(self):
        assert set(VERIFY_EXAMPLES) == set(verify.commands)

    @pytest.mark.parametrize("code", sorted(VERIFY_EXAMPLES))
    def test_every_code_passes(self, runner, code):
        res = runner.invoke(main, ["verify", code, *VERIFY_EXAMPLES[code].split()])
        assert res.exit_code == 0, res.output
        rows = [json.loads(l) for l in res.output.strip().splitlines()]
        assert rows and all(doc["pass"] for doc in rows)

    def test_thm13_failure_reports_closed_form_rhs(self, runner, monkeypatch):
        monkeypatch.setattr(exact, "verify_thm13",
                            lambda n, h, k: ExactScaled(Fraction(1, 7), n, n - 1))
        res = runner.invoke(main, ["verify", "thm13", "--n", "3", "--h", "2",
                                   "--k", "3"])
        assert res.exit_code == 1
        doc = json.loads(res.output.strip())
        assert doc["pass"] is False
        rhs = exact.thm13_rhs(3, 2, 3).numeric(40)
        assert float(doc["rhs"]["re"]) == pytest.approx(float(rhs.real), rel=1e-12)
        assert float(doc["rhs"]["im"]) == 0
        lhs_minus_rhs = float(doc["lhs"]["re"]) - float(doc["rhs"]["re"])
        assert lhs_minus_rhs == pytest.approx(float(doc["residual"]["re"]), rel=1e-9)

    def test_parity_violation_exit_2(self, runner):
        res = runner.invoke(main, ["verify", "thm32", "--n", "4", "--ks", "2,3",
                                   "--ms", "0,0,0"])
        assert res.exit_code == 2


class TestTable:
    def test_psi_g_csv(self, runner, tmp_path):
        out = tmp_path / "polys.csv"
        res = runner.invoke(main, ["--format", "csv", "--out", str(out),
                                   "table", "psi-g", "--n", "3,5"])
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("kind,n,exponent")
        assert len(lines) > 4

    def test_psi_g_text_is_csv_on_stdout_and_in_file(self, runner, tmp_path):
        args = ["table", "psi-g", "--n", "3"]
        stdout = runner.invoke(main, ["--format", "text", *args])
        assert stdout.exit_code == 0
        assert stdout.output.startswith("kind,n,exponent")
        out = tmp_path / "polys.txt"
        res = runner.invoke(main, ["--format", "text", "--out", str(out), *args])
        assert res.exit_code == 0
        assert out.read_bytes() == stdout.stdout_bytes

    def test_empty_range(self, runner, tmp_path):
        out = tmp_path / "empty.csv"
        res = runner.invoke(main, ["--format", "csv", "--out", str(out),
                                   "table", "psi-g", "--n", ""])
        assert res.exit_code == 0
        assert out.read_text().strip().splitlines()[0].startswith("kind")

    def test_overwrite_protection(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        out.write_text("precious")
        res = runner.invoke(main, ["--format", "csv", "--out", str(out),
                                   "table", "psi-g", "--n", "3"])
        assert res.exit_code != 0
        assert out.read_text() == "precious"
        res = runner.invoke(main, ["--format", "csv", "--out", str(out), "--force",
                                   "table", "psi-g", "--n", "3"])
        assert res.exit_code == 0
        assert out.read_text() != "precious"

    def test_thm13_rhs_table(self, runner):
        res = runner.invoke(main, ["table", "thm13-rhs", "--n", "3", "--hk-max", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert all(set(r) == {"n", "h", "k", "num", "den", "pi_pow", "i_pow"}
                   for r in doc["rows"])


@pytest.mark.parametrize("args", [
    "compute line-integral --a 2.5 --h 2 --k 3",
    "verify thm12 --a 2.5 --h 2 --k 3",
])
def test_refused_overwrite_exits_2_before_computing(runner, tmp_path, monkeypatch, args):
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("computed before the --out check")

    monkeypatch.setattr(recip, "line_integral_cotcot", must_not_run)
    monkeypatch.setattr(recip, "verify_thm12", must_not_run)
    out = tmp_path / "r.json"
    out.write_bytes(b"precious\n")
    res = runner.invoke(main, ["--out", str(out), *args.split()])
    assert res.exit_code == 2
    assert "refusing to overwrite" in res.output
    assert out.read_bytes() == b"precious\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_readme_lists_every_identity_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| code | statement checked |", 1)[1].split("\n\n", 1)[0]
    codes = set()
    for cell in re.findall(r"^\| ([^|]+) \|", table, flags=re.M):
        codes.update(re.findall(r"`([^`]+)`", cell))
    assert codes == set(verify.commands)


def test_readme_lists_every_global_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Global flags:", 1)[1].split("Exit codes:", 1)[0]
    flags = set(re.findall(r"`(--[\w-]+)", sentence))
    assert flags == {opt for param in main.params for opt in param.opts}
