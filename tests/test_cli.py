import argparse
import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyptorsion
from hyptorsion import acceptance, cli
from hyptorsion.fields import PrimeField, Rationals, is_prime
from hyptorsion.polyring import Poly


def run(capsys, argv):
    code = cli.main(argv)
    out = json.loads(capsys.readouterr().out)
    return code, out


class TestParsers:
    def test_parse_field(self):
        assert cli.parse_field("Q") == Rationals()
        assert cli.parse_field("GF:11") == PrimeField(11)
        assert cli.parse_field("GF:3,4").order == 81
        with pytest.raises(cli.CliError):
            cli.parse_field("GF(11)")

    def test_parse_poly_text(self):
        F = PrimeField(11)
        assert cli.parse_poly(F, "x^5+(x+1)^2") == Poly.from_ints(
            F, [1, 2, 1, 0, 0, 1])
        assert cli.parse_poly(F, "2*x - 3") == Poly.from_ints(F, [8, 2])
        assert cli.parse_poly(F, "[1, 0, 1]") == Poly.from_ints(F, [1, 0, 1])

    def test_parse_poly_errors_name_token(self):
        F = PrimeField(11)
        with pytest.raises(cli.CliError) as exc:
            cli.parse_poly(F, "x^5 + y")
        assert "'y'" in str(exc.value)
        with pytest.raises(cli.CliError):
            cli.parse_poly(F, "x^")
        with pytest.raises(cli.CliError):
            cli.parse_poly(F, "(x+1")

    def test_parse_poly_caps_the_degree_before_expanding(self):
        F = PrimeField(11)
        top = cli.MAX_POLY_DEGREE
        assert cli.parse_poly(F, f"x^{top}").degree == top
        assert cli.parse_poly(F, f"(x^2)^{top // 2}").degree == top
        for text in (f"x^{top + 1}", f"(x^2)^{top // 2 + 1}", "x^99999999999",
                     "(x^9999)^9999", "2^99999999999"):
            with pytest.raises(cli.CliError) as exc:
                cli.parse_poly(F, text)
            assert exc.value.code == "bad-poly", text

    def test_parse_point(self):
        F = PrimeField(11)
        P = cli.parse_point(F, "(0, 1)")
        assert (P.x, P.y) == (0, 1)
        with pytest.raises(cli.CliError):
            cli.parse_point(F, "0,1")


class TestCommands:
    def test_hyperelliptic_scan(self, capsys):
        code, out = run(capsys, ["hyperelliptic", "--max", "201"])
        assert code == 0 and out["status"] == "ok"
        assert out["payload"]["hyperelliptic"] == [105, 165]
        assert out["provenance"] == "totient-partition-scan"

    def test_hyperelliptic_single(self, capsys):
        code, out = run(capsys, ["hyperelliptic", "--n", "105"])
        assert code == 0
        assert sorted(out["payload"]["cert"]["S1"]) == [5, 105]

    def test_verify_with_oracle(self, capsys):
        code, out = run(capsys, [
            "verify", "--field", "GF:11", "--g", "2",
            "--curve", "x^5+1", "--point", "(0,1)", "--oracle"])
        assert code == 0
        assert out["payload"]["order_2g_plus_1"] is True
        assert out["payload"]["oracle_order"] == 5

    def test_verify_point_off_curve(self, capsys):
        code, out = run(capsys, [
            "verify", "--field", "GF:11", "--g", "2",
            "--curve", "x^5+1", "--point", "(0,2)"])
        assert code == 1 and out["status"] == "error"

    def test_verify_takes_the_printed_extension_field_points(self, capsys):
        # a GF(p^m) coordinate prints as a JSON list, with commas inside
        def verify(field, g, curve, pt):
            point = "(%s,%s)" % (json.dumps(pt["x"]), json.dumps(pt["y"]))
            code, out = run(capsys, ["verify", "--field", field, "--g", str(g),
                                     "--curve", json.dumps(curve), "--point", point,
                                     "--oracle"])
            assert code == 0, out
            assert out["payload"]["order_2g_plus_1"] is True
            assert out["payload"]["oracle_order"] == 2 * g + 1

        _, out = run(capsys, ["construct-single", "--field", "GF:3,2", "--g", "1",
                              "--a", "[0,1]", "--v", "[[1,0],[1,0]]"])
        verify("GF:3,2", 1, out["payload"]["curve"]["f"], out["payload"]["point"])
        _, out = run(capsys, ["find-mu", "--field", "GF:29,2", "--g", "2",
                              "--index", "1"])
        for name in ("P", "Q"):
            verify("GF:29,2", 2, out["payload"]["curve"]["f"], out["payload"][name])

    def test_construct_single(self, capsys):
        code, out = run(capsys, [
            "construct-single", "--field", "GF:5", "--g", "2",
            "--a", "0", "--v", "x+1"])
        assert code == 0
        assert out["payload"]["curve"]["f"] == [1, 2, 1, 0, 0, 1]
        assert out["payload"]["point"] == {"x": 0, "y": 1}

    def test_construct_single_rejects_non_squarefree(self, capsys):
        code, out = run(capsys, [
            "construct-single", "--field", "GF:5", "--g", "2",
            "--a", "0", "--v", "1"])
        assert code == 1 and out["status"] == "error"

    def test_census(self, capsys):
        code, out = run(capsys, [
            "census", "--p", "5", "--g", "2",
            "--curve", "x^5+(x+1)^2", "--n", "5"])
        assert code == 0
        assert out["payload"]["count"] == 2
        assert out["payload"]["points"] == [{"x": 0, "y": 1}, {"x": 0, "y": 4}]

    def test_enumerate_families(self, capsys):
        code, out = run(capsys, [
            "enumerate-families", "--field", "GF:11", "--g", "2"])
        assert code == 0
        assert out["payload"]["count"] == 6
        assert out["payload"]["symmetry_classes"] == 3

    def test_find_mu(self, capsys):
        code, out = run(capsys, [
            "find-mu", "--field", "GF:11", "--g", "2", "--index", "0"])
        assert code == 0
        assert out["payload"]["family"]["regime"] == "coprime"
        assert out["payload"]["family"]["I"] == [0, 1]
        assert "mu" in out["payload"]["family"]

    def test_enumerate_families_char_regime(self, capsys):
        code, out = run(capsys, [
            "enumerate-families", "--field", "GF:3,4", "--g", "7", "--regime",
            "char", "--p", "3", "--k", "1", "--l", "2"])
        assert code == 0 and out["payload"]["count"] == 6
        for j in out["payload"]["families"]:
            assert j["regime"] == "char" and sorted(j["upsilon"]) == [1, 1, 2, 2]

    def test_find_mu_char_regime_at_k_zero_is_the_coprime_walk(self, capsys):
        # q = 11^0 = 1: upsilon is the indicator of I, the curve the same
        find_mu = ["find-mu", "--field", "GF:11", "--g", "2", "--index", "3"]
        _, coprime = run(capsys, find_mu)
        _, char = run(capsys, find_mu + ["--regime", "char", "--p", "11",
                                         "--k", "0", "--l", "2"])
        assert coprime["payload"]["family"] == {"regime": "coprime", "I": [1, 2],
                                                "mu": 3}
        assert char["payload"]["family"] == {"regime": "char",
                                             "upsilon": [0, 1, 1, 0], "mu": 3}
        for key in ("curve", "P", "Q"):
            assert char["payload"][key] == coprime["payload"][key]

    def test_weil(self, capsys):
        code, out = run(capsys, [
            "weil", "--field", "GF:11", "--g", "2", "--I", "0,1"])
        assert code == 0
        assert out["payload"]["match"] is True
        assert out["payload"]["explicit"] == 9

    def test_insufficient_field_reports_degree(self, capsys):
        code, out = run(capsys, [
            "enumerate-families", "--field", "GF:29", "--g", "2"])
        assert code == 1
        assert out["extension_degree"] == 2

    def test_envelope_names_backend(self, capsys):
        for argv in (["hyperelliptic", "--max", "20"],
                     ["hyperelliptic", "--n", "4"]):
            code, out = run(capsys, argv)
            assert out["backend"] == hyptorsion.BACKEND
        assert code == 1 and out["status"] == "error"

    def test_json_out(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run(capsys, [
            "hyperelliptic", "--max", "120", "--json-out", str(path)])
        assert code == 0
        assert json.loads(path.read_text()) == out

    def test_unwritable_json_out_gives_error_envelope(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code, out = run(capsys, [
            "hyperelliptic", "--n", "5", "--json-out", str(path)])
        assert code == 1 and out["status"] == "error"
        assert out["code"] == "bad-json-out" and str(path) in out["message"]

    def test_construct_single_integer_scalar_over_extension(self, capsys):
        code, out = run(capsys, [
            "construct-single", "--field", "GF:3,2", "--g", "1",
            "--a", "1", "--v", "[[0,1],[1,0]]"])
        assert code == 0
        assert out["payload"]["point"] == {"x": [1, 0], "y": [1, 1]}

    def test_selftest_stdout_is_one_envelope(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:1])
        code = cli.main(["selftest"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 0 and out["status"] == "ok"
        [record] = out["payload"]["criteria"]
        assert record["name"] == "criterion-1-worked-examples"
        assert record["status"] == "pass"
        assert "PASS  criterion-1-worked-examples" in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "--field", "Q", "--g", "2", "--curve", "x^5+1",
         "--point", "(1/0,1)"],
        ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "0"],
        ["verify", "--curve", "missing.json", "--point", "(0,1)"],
        ["verify", "--curve", "no-field.json", "--point", "(0,1)"],
        ["find-mu", "--field", "GF:11", "--g", "2", "--index", "-1"],
        ["census", "--p", "5", "--curve", "q-curve.json", "--n", "5"],
        ["verify", "--curve", "string-field.json", "--point", "(0,1)"],
        ["verify", "--curve", "no-prime.json", "--point", "(0,1)"],
        ["verify", "--curve", "null-coeff.json", "--point", "(0,1)"],
        ["construct-single", "--field", "GF:3,2", "--g", "1", "--a", "1",
         "--v", "[[1,0]]"],
        ["verify", "--curve", "string-g.json", "--point", "(0,1)"],
        ["verify", "--curve", "bool-g.json", "--point", "(0,1)"],
        ["census", "--p", "3", "--g", "1", "--n", "3", "--curve", "[[1],1]"],
        ["verify", "--field", "GF:11", "--g", "2", "--curve", "x^5+1",
         "--point", "([0],1)"],
        ["construct-single", "--field", "GF:5", "--g", "2", "--a", "[1,2]",
         "--v", "x+1"],
        ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "[1]"],
        ["census", "--p", "3", "--g", "1", "--n", "3", "--curve", "[1.5,2,0,1]"],
        ["census", "--p", "3", "--g", "1", "--n", "3", "--curve", "[true,2,0,1]"],
        ["census", "--p", "3", "--g", "1", "--n", "3", "--curve", '["1",2,0,1]'],
        ["census", "--p", "3", "--m", "2", "--g", "1", "--n", "3",
         "--curve", "[[1.9,0],[2,0],[0,0],[1,0]]"],
        ["census", "--p", "3", "--m", "2", "--g", "1", "--n", "3",
         "--curve", '["10",[2,0],[0,0],[1,0]]'],
        ["verify", "--field", "Q", "--g", "1", "--curve", "[true,0,0,1]",
         "--point", "(0,1)"],
        ["census", "--p", "3", "--g", "1", "--n", "3", "--curve", "x^99999999999"],
        ["census", "--p", "3", "--g", "1", "--n", "3", "--curve", "(x^9999)^9999"],
        ["enumerate-families", "--field", "GF:11", "--g", "2", "--regime", "char",
         "--p", "11", "--k", "2", "--l", "2", "--all-admissible"],
        ["find-mu", "--field", "GF:7", "--g", "1", "--regime", "char", "--p", "7",
         "--k=-1", "--l", "1"],
        ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3",
         "--k", "6", "--l", "2"],
        ["find-mu", "--field", "GF:3,4", "--g", "1", "--regime", "char", "--p", "3",
         "--k", "1", "--l", "2"],
        ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3",
         "--k", "30", "--l", "2"],
        ["enumerate-families", "--field", "GF:3,4", "--g", "7", "--regime", "char",
         "--p", "3", "--k", "30", "--l", "2"],
        ["enumerate-families", "--field", "GF:11", "--g", "302", "--regime", "char",
         "--p", "11", "--k", "2", "--l", "2", "--all-admissible"],
        ["construct-single", "--field", "GF:3,5000", "--g", "1", "--a", "1",
         "--v", "x"],
        ["census", "--p", "3", "--m", "3000", "--g", "1", "--n", "3",
         "--curve", "x^3+1"],
        ["verify", "--curve", "huge-extension.json", "--point", "(0,1)"],
        ["census", "--p", "3", "--m", "14", "--g", "1", "--n", "3",
         "--curve", "x^3+2*x+1"],
        ["census", "--p", "5", "--m", "0", "--g", "1", "--n", "3",
         "--curve", "x^3+2*x+1"],
        ["census", "--p", "5", "--m", "-3", "--g", "1", "--n", "3",
         "--curve", "x^3+2*x+1"],
        ["census", "--p", "1000003", "--g", "1", "--n", "3",
         "--curve", "x^3+2*x+1"],
        ["construct-single", "--field", "GF:2147483659,24", "--g", "1",
         "--a", "[0]", "--v", "[[1]]"],
        ["census", "--p", "3"],
        ["census", "--p", "x", "--g", "1", "--n", "3", "--curve", "x^3+1"],
        ["no-such-command"],
        [],
    ])
    def test_malformed_input_gives_error_envelope(self, capsys, tmp_path,
                                                  monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        for name, text in (
                ("no-field.json", '{"g": 2, "f": [1]}'),
                ("q-curve.json",
                 '{"field": {"kind": "Q"}, "g": 2, "f": [1, 0, 0, 0, 0, 1]}'),
                ("string-field.json",
                 '{"field": "GF:11", "g": 2, "f": [1, 0, 0, 0, 0, 1]}'),
                ("no-prime.json",
                 '{"field": {"kind": "GF"}, "g": 2, "f": [1, 0, 0, 0, 0, 1]}'),
                ("null-coeff.json",
                 '{"field": {"kind": "GF", "p": 11}, "g": 2,'
                 ' "f": [null, 0, 0, 0, 0, 1]}'),
                ("string-g.json",
                 '{"field": {"kind": "GF", "p": 11}, "g": "2",'
                 ' "f": [1, 0, 0, 0, 0, 1]}'),
                ("bool-g.json",
                 '{"field": {"kind": "GF", "p": 11}, "g": true,'
                 ' "f": [1, 0, 1, 1]}'),
                ("huge-extension.json",
                 '{"field": {"kind": "GF", "p": 3, "m": 5000}, "g": 1,'
                 ' "f": [1, 0, 0, 1]}')):
            (tmp_path / name).write_text(text)
        code, out = run(capsys, argv)
        assert code == 1 and out["status"] == "error"

    @pytest.mark.parametrize("k, l, g, refused", [
        (1, 2, 7, False), (1, 2, 1, True), (1, 2, 8, True), (6, 2, 7, True),
        (6, 2, 1822, True), (30, 2, 7, True), (10 ** 12, 2, 7, True)])
    def test_char_regime_bounds(self, capsys, k, l, g, refused):
        # n = 3^k(2l+1): --g must be (n - 1)/2, and n at most MAX_POLY_DEGREE
        for command in ("find-mu", "enumerate-families"):
            code, out = run(capsys, [
                command, "--field", "GF:3,4", "--g", str(g), "--regime", "char",
                "--p", "3", "--k", str(k), "--l", str(l)])
            if refused:
                assert (code, out["code"]) == (1, "bad-args"), out
            else:
                assert (code, out["status"]) == (0, "ok"), out

    def test_extension_degree_bound(self, capsys, tmp_path):
        # 3^80 < 2^MAX_FIELD_BITS < 3^81, and an m above MAX_FIELD_BITS is
        # refused before p^m is formed
        assert cli.parse_field("GF:3,80").m == 80
        for m in (81, 10 ** 9):
            curve = tmp_path / f"curve-{m}.json"
            curve.write_text(json.dumps({"field": {"kind": "GF", "p": 3, "m": m},
                                         "g": 1, "f": [1, 0, 0, 1]}))
            for argv in (
                    ["construct-single", "--field", f"GF:3,{m}", "--g", "1",
                     "--a", "1", "--v", "x"],
                    ["census", "--p", "3", "--m", str(m), "--g", "1", "--n", "3",
                     "--curve", "x^3+1"],
                    ["verify", "--curve", str(curve), "--point", "(0,1)"]):
                start = time.perf_counter()
                code, out = run(capsys, argv)
                assert time.perf_counter() - start < 1, argv
                assert (code, out["code"]) == (1, "bad-field"), argv

    @pytest.mark.parametrize("spec, reason", [
        ({"p": 3, "m": True}, "field m must be a JSON integer"),
        ({"p": 3, "m": 2.0}, "field m must be a JSON integer"),
        ({"p": 3.0, "m": 2}, "field p must be a JSON integer"),
        ({"p": 3, "m": 2, "modulus": [True, 0, 1]}, "field modulus must be"),
        ({"p": 3, "m": 2, "modulus": [1.5, 0, 1]}, "field modulus must be"),
        ({"p": 3, "m": 2, "modulus": "x^2+1"}, "field modulus must be"),
        ({"p": 3, "m": 2, "modulus": ["1", 0, 1]}, "field modulus must be"),
        ({"p": 3, "m": 2, "modulus": None}, "field modulus must be")])
    def test_field_spec_refuses_non_integers(self, capsys, tmp_path, spec, reason):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"field": {"kind": "GF", **spec}, "g": 1,
                                     "f": [1, 0, 0, 1]}))
        code, out = run(capsys, ["verify", "--curve", str(curve), "--point", "(0,1)"])
        assert (code, out["status"], out["code"]) == (1, "error", "FieldError"), out
        assert out["message"].startswith(reason), out

    def test_field_size_bound(self, capsys):
        # the primes on either side of 2^MAX_FIELD_BITS
        top = 2 ** cli.MAX_FIELD_BITS
        below = next(p for p in range(top - 1, 0, -2) if is_prime(p))
        above = next(p for p in range(top + 1, 2 * top, 2) if is_prime(p))
        assert cli.parse_field(f"GF:{below}").order == below
        for spec in (f"GF:{above}", "GF:2147483659,24", "GF:17,32"):
            code, out = run(capsys, ["construct-single", "--field", spec,
                                     "--g", "1", "--a", "0", "--v", "1"])
            assert (code, out["code"]) == (1, "bad-field"), spec

    def test_census_field_order_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CENSUS_ORDER", 25)
        census = ["census", "--g", "1", "--n", "3", "--curve", "x^3+2*x+1"]
        code, out = run(capsys, census + ["--p", "5", "--m", "2"])
        assert (code, out["status"]) == (0, "ok"), out
        for pm in (["--p", "3", "--m", "3"], ["--p", "29"]):
            code, out = run(capsys, census + pm)
            assert (code, out["code"]) == (1, "bad-args"), pm

    def test_census_order_above_jacobian_bound(self, capsys):
        # 10^9 + 7 > (isqrt(3^8) + 2)^2 >= #J(GF(3^8)): no ladder runs
        start = time.perf_counter()
        code, out = run(capsys, ["census", "--p", "3", "--m", "8", "--g", "1",
                                 "--n", "1000000007", "--curve", "x^3+2*x+1"])
        assert time.perf_counter() - start < 1.0
        assert (code, out["payload"]["count"]) == (0, 0), out

    def test_usage_error_is_bad_args_and_help_exits_0(self, capsys):
        code, out = run(capsys, ["census", "--p", "3"])
        assert (code, out["code"]) == (1, "bad-args")
        assert "--curve" in out["message"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hyptorsion census")


# -- commands in a fresh process ----------------------------------------------
# The commands below import the modules they need when they run.  In-process
# tests cannot see a missing import, because earlier tests have already
# loaded every module.

@pytest.mark.parametrize("argv", [
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1"],
    ["find-mu", "--field", "GF:11", "--g", "2"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3",
     "--k", "1", "--l", "2"],
    ["enumerate-families", "--field", "GF:11", "--g", "2"],
    ["enumerate-families", "--field", "GF:3,4", "--g", "7", "--regime", "char",
     "--p", "3", "--k", "1", "--l", "2"],
    ["hyperelliptic", "--n", "105"],
    ["hyperelliptic", "--max", "50"],
    ["rational-g52"],
])
def test_deferred_command_in_a_fresh_process(run_fresh, argv):
    proc = run_fresh(f"""
        import sys
        from hyptorsion import cli
        sys.exit(cli.main({argv!r}))
    """)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_selftest_in_a_fresh_process(run_fresh):
    proc = run_fresh("""
        import sys
        from hyptorsion import acceptance, cli
        acceptance.CRITERIA = acceptance.CRITERIA[:1]
        sys.exit(cli.main(["selftest"]))
    """)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["status"] == "ok" and len(out["payload"]["criteria"]) == 1


# -- argv shapes -------------------------------------------------------------
# Every flag value comes from a fixed pool, and the pools keep each call
# small (p <= 13 or 367, m <= 3, g <= 3 or 30; g = 30's template walk, g =
# 100000's curve and GF:3,5000 must be refused before they are built): no
# hyperelliptic --max, rational-g52 or selftest.  Integer-typed flags get
# integers, so argparse accepts every argv.

VALUES = st.sampled_from([
    "0", "1", "-1", "2", "7", "-12", "1.5", "-0.25", "1e3", "true", "false",
    "null", "abc", '"1"', '"10"', "", "[]", "[0]", "[1,2]", "[1,0,0,0,0,1]",
    "[1.5,2,0,1]", "[true,2,0,1]", '["1",2,0,1]', "[[1]]", "[[1],1]",
    "[[1,0],[2,0],[0,0],[1,0]]", "[[1.9,0]]", '["10",[2,0]]', '["1/0",1]', "[[[1]]]",
    "1/2", "-3/4", "1/0", "x", "x^9", "x^5+1", "x^3+2*x+1", "(x+1)^2",
    "x^7+x+1", "2*x-3", "x^3-x+1", "x^", "(x+1", "x^5 + y", "x^-1",
    "x^99999999999", "(x^9999)^9999", "(x+1)^1001", "2^99999999999+x^3",
    "(0,1)", "(0, 1)", "([0],1)", "(1/2,1)", "(true,0)", "([1,0],[1,1])",
    "0,1", "missing.json"])
FIELDS = st.sampled_from([
    "Q", "GF:3", "GF:5", "GF:7", "GF:11", "GF:13", "GF:3,2", "GF:3,3",
    "GF:5,2", "GF:7,3", "GF:13,2", "GF:2", "GF:1", "GF:9", "GF:3,0", "GF(3)",
    "abc", "GF:3,5000", "GF:2147483659,24", "GF:367"])
# GF(367) holds the 61st roots of unity of genus 30
GENERA = st.sampled_from(["-1", "0", "1", "2", "3", "30", "100000"])
PRIMES = ["-1", "0", "1", "2", "3", "4", "5", "7", "11", "13"]
ORDERS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "7", "9", "15"])
# GF(p^m) with p^m up to 169: a census over GF(13^3) visits 2,197 abscissas
CENSUS_FIELDS = st.sampled_from(
    [(p, m) for p in PRIMES for m in ("-1", "0", "1", "2", "3")
     if int(p) ** max(int(m), 1) <= 169])


def flag(name, values):
    # --name=value, since argparse reads a value such as "-3/4" as a flag
    return values.map(lambda v: (f"{name}={v}",))


def maybe(part):
    return st.one_of(st.just(()), part)


def switch(name):
    return st.sampled_from([(), (name,)])


CHAR_REGIME = [flag("--regime", st.sampled_from(["coprime", "char"])),
               maybe(flag("--p", st.sampled_from(PRIMES))),
               maybe(flag("--k", st.sampled_from(["-1", "0", "1"]))),
               maybe(flag("--l", st.sampled_from(["-1", "0", "1", "2"]))),
               switch("--all-admissible")]
COMMANDS = {
    "construct-single": [maybe(flag("--field", FIELDS)), flag("--g", GENERA),
                         flag("--a", VALUES), flag("--v", VALUES)],
    "verify": [maybe(flag("--field", FIELDS)), maybe(flag("--g", GENERA)),
               flag("--curve", VALUES), flag("--point", VALUES),
               switch("--oracle")],
    "construct-pair": [maybe(flag("--field", FIELDS)), flag("--g", GENERA)]
    + [flag(name, VALUES) for name in ("--a1", "--a2", "--u1", "--u2")],
    "enumerate-families": [maybe(flag("--field", FIELDS)),
                           flag("--g", GENERA)] + CHAR_REGIME,
    "find-mu": [maybe(flag("--field", FIELDS)), flag("--g", GENERA),
                maybe(flag("--index", st.sampled_from(["-1", "0", "1", "5"])))]
    + CHAR_REGIME,
    "hyperelliptic": [flag("--n", ORDERS)],
    "census": [CENSUS_FIELDS.map(lambda pm: (f"--p={pm[0]}", f"--m={pm[1]}")),
               maybe(flag("--g", GENERA)), flag("--curve", VALUES),
               flag("--n", ORDERS)],
    "weil": [maybe(flag("--field", FIELDS)), flag("--g", GENERA),
             flag("--I", st.sampled_from(["", "0", "0,1", "1,2", "0,1,2",
                                          "0,0", "5", "-1", "a", "0,"])),
             maybe(flag("--mu", VALUES))],
}
COMMON = [maybe(flag("--seed", st.sampled_from(["-1", "0", "1", "2"]))),
          maybe(flag("--json-out",
                     st.sampled_from(["out.json", "missing/out.json"])))]
ARGVS = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.tuples(*COMMANDS[command], *COMMON).map(
        lambda parts: [command] + [arg for part in parts for arg in part]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=ARGVS)
# the pools seldom draw these together; without the bounds on --g each would
# walk C(60, 30) templates or expand a power of degree 200001
@example(argv=["enumerate-families", "--field=GF:367", "--g=30"])
@example(argv=["find-mu", "--field=GF:367", "--g=30"])
@example(argv=["weil", "--field=GF:367", "--g=30", "--I=0,1"])
@example(argv=["construct-single", "--field=GF:367", "--g=100000", "--a=1", "--v=1"])
# a rational with a zero denominator inside a JSON list, over Q
@example(argv=["construct-single", "--field=Q", "--g=2", "--a=0", '--v=["1/0",1]'])
def test_every_argv_prints_one_envelope(argv, tmp_path_factory):
    stdout = io.StringIO()
    with contextlib.chdir(tmp_path_factory.getbasetemp()), \
            contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    out = json.loads(stdout.getvalue())
    assert code in (0, 1)
    if out["status"] == "ok":
        assert set(out) == {"status", "payload", "provenance", "backend"}
    else:
        assert out["status"] == "error"
        assert {"status", "code", "message", "backend"} <= set(out)
        assert set(out) <= {"status", "code", "message", "backend",
                            "extension_degree"}


# -- the parser of one subcommand --------------------------------------------
# main builds options only for the subcommand argv[0] names.

def _subcommands(parser):
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action


def _shape(parser):
    """What a parser parses and prints: its actions, its mutually exclusive
    groups and its set_defaults values."""
    return ([(type(a), a.option_strings, a.dest, a.default, a.required, a.type,
              a.choices, a.nargs, a.const, a.metavar, a.help) for a in parser._actions],
            [(group.required, [a.dest for a in group._group_actions])
             for group in parser._mutually_exclusive_groups],
            parser._defaults)


def test_named_subcommand_gets_the_full_parsers_options():
    full = _subcommands(cli.build_parser())
    assert tuple(full.choices) == cli.COMMANDS
    for name in cli.COMMANDS:
        named = _subcommands(cli.build_parser(name))
        assert [(c.dest, c.help) for c in named._choices_actions] == \
            [(c.dest, c.help) for c in full._choices_actions]
        for other, parser in named.choices.items():
            if other == name:
                assert _shape(parser) == _shape(full.choices[name]), name
            else:
                assert parser._actions == [], (name, other)
                assert parser._defaults == full.choices[other]._defaults


def test_weil_adds_only_its_own_options(capsys, monkeypatch):
    # the top-level -h, weil's -h and its six options
    calls = []
    add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *args, **kwargs: calls.append(args)
                        or add_argument(self, *args, **kwargs))
    code, out = run(capsys, ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1"])
    assert code == 0 and out["payload"]["match"] is True
    assert len(calls) == 8, calls


def _printed(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # --help
            code = exc.code
    return stdout.getvalue(), code


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=ARGVS)
# argv[0] names no subcommand, so every subcommand gets its options
@example(argv=[])
@example(argv=["bogus"])
@example(argv=["-h"])
@example(argv=["--", "hyperelliptic", "--n", "105"])
@example(argv=["-x", "hyperelliptic", "--n", "105"])
@example(argv=["census", "--help"])
@example(argv=["construct-single", "--fie=GF:5", "--g=2", "--a=0", "--v=x+1"])
def test_named_options_print_what_the_full_parser_prints(argv, tmp_path_factory):
    full = cli.build_parser
    with contextlib.chdir(tmp_path_factory.getbasetemp()):
        named = _printed(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "build_parser", lambda command=None: full())
            assert _printed(argv) == named


# -- --seed, --max and the kernel operand contract ---------------------------

@pytest.mark.parametrize("argv", [["selftest", "--seed", "1"],
                                  ["hyperelliptic", "--n", "105", "--seed", "1"],
                                  ["rational-g52", "--seed", "1"]])
def test_seed_is_refused_where_no_field_is_built(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 1 and out["status"] == "error" and out["code"] == "bad-args"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_census_takes_a_seed(capsys, seed):
    code, out = run(capsys, ["census", "--p", "3", "--m", "4", "--g", "1",
                             "--curve", "x^3+(x+1)^2", "--n", "3", "--seed", seed])
    assert code == 0
    assert out["payload"]["points"] == [{"x": [0, 0, 0, 0], "y": [1, 0, 0, 0]},
                                        {"x": [0, 0, 0, 0], "y": [2, 0, 0, 0]}]


def test_hyperelliptic_max_bound(capsys):
    # TestCommands.test_hyperelliptic_scan pins --max 201 below the bound
    for bound in ("200001", str(cli.MAX_HYPERELLIPTIC_SCAN + 1)):
        start = time.perf_counter()
        code, out = run(capsys, ["hyperelliptic", "--max", bound])
        assert time.perf_counter() - start < 1
        assert code == 1 and out["code"] == "bad-args"


def test_hyperelliptic_n_bounds(capsys):
    # 2^61 - 1 is a prime past MAX_HYPERELLIPTIC_N
    for n in (2 ** 61 - 1, cli.MAX_HYPERELLIPTIC_N + 1):
        start = time.perf_counter()
        code, out = run(capsys, ["hyperelliptic", "--n", str(n)])
        assert time.perf_counter() - start < 1
        assert code == 1 and out["code"] == "bad-args"
    code, out = run(capsys, ["hyperelliptic", "--n", "45045"])   # 48 divisors
    assert code == 0 and out["payload"]["cert"]["n"] == 45045


@pytest.mark.parametrize("argv", [["--n", "105", "--max", "120"], []])
def test_hyperelliptic_takes_one_of_n_and_max(capsys, argv):
    code, out = run(capsys, ["hyperelliptic"] + argv)
    assert code == 1 and out["code"] == "bad-args"
    assert "--n" in out["message"] and "--max" in out["message"]


def test_rational_g52_g_bound(capsys):
    for g in (cli.MAX_RATIONAL_G + 1, 10 ** 9):
        start = time.perf_counter()
        code, out = run(capsys, ["rational-g52", "--g", str(g)])
        assert time.perf_counter() - start < 1
        assert code == 1 and out["code"] == "bad-args"
    code, out = run(capsys, ["rational-g52", "--g", "52"])
    assert code == 0 and out["payload"]["order"] == 105


def _refused_in_time(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, argv)
    assert time.perf_counter() - start < 1, argv
    assert (code, out["status"], out["code"]) == (1, "error", "bad-args"), out
    return out["message"]


@pytest.mark.parametrize("argv", [
    ["construct-single", "--field", "GF:1000003", "--g", "3000", "--a", "1",
     "--v", "1"],
    ["construct-pair", "--field", "GF:11", "--g", "500", "--a1", "0", "--a2", "1",
     "--u1", "1", "--u2", "1"],
    ["enumerate-families", "--field", "GF:367", "--g", "100000"],
    ["find-mu", "--field", "GF:367", "--g", "100000"],
    ["weil", "--field", "GF:311", "--g", "100000", "--I", "0"]])
def test_genus_past_the_degree_bound_is_refused(capsys, argv):
    # 2g+1 > MAX_POLY_DEGREE, as the char regime refuses p^k(2l+1)
    assert "2g+1" in _refused_in_time(capsys, argv)


@pytest.mark.parametrize("command", ["enumerate-families", "find-mu"])
@pytest.mark.parametrize("field, g", [("GF:47", "11"), ("GF:367", "30")])
def test_coprime_template_walk_is_bounded(capsys, command, field, g):
    # C(22, 11) = 705,432 and C(60, 30) > 10^17 exceed MAX_TEMPLATE_WALK
    message = _refused_in_time(capsys, [command, "--field", field, "--g", g])
    assert "C(2g, g)" in message


# C(40, 20) > 10^11 char templates of degree 83^0 * 41 over GF(83)
CHAR_WALK = ["--field", "GF:83", "--g", "20", "--regime", "char", "--p", "83",
             "--k", "0", "--l", "20"]


@pytest.mark.parametrize("argv", [["enumerate-families"] + CHAR_WALK,
                                  ["find-mu"] + CHAR_WALK,
                                  ["find-mu"] + CHAR_WALK + ["--index=-1"]])
def test_char_template_walk_is_bounded(capsys, argv):
    message = _refused_in_time(capsys, argv)
    assert message.startswith("the char regime would walk C(2l, l) > "), message


def test_genus_bounds_admit_their_edges(capsys):
    # 2g+1 = 999 and C(20, 10) = 184,756 templates are inside the bounds
    code, out = run(capsys, ["construct-single", "--field", "GF:1999", "--g",
                             "499", "--a", "1", "--v", "1"])
    assert (code, out["payload"]["curve"]["g"]) == (0, 499)
    code, out = run(capsys, ["find-mu", "--field", "GF:43", "--g", "10"])
    assert (code, out["payload"]["family"]["I"]) == (0, list(range(10)))


def test_weil_builds_only_the_named_template(capsys):
    # C(30, 15) = 155,117,520 templates at genus 15: none is walked
    I = ",".join(map(str, range(15)))
    start = time.perf_counter()
    code, out = run(capsys, ["weil", "--field", "GF:311", "--g", "15", "--I", I])
    assert time.perf_counter() - start < 1
    assert code == 0 and out["payload"]["I"] == list(range(15))
    for bad in ("1,0", "0,0", "0,4", "-1,0", "0", "0,1,2", "0,", "a", "0,,1"):
        message = _refused_in_time(capsys, ["weil", "--field", "GF:11", "--g",
                                            "2", f"--I={bad}"])
        assert message.startswith("no coprime template with I = ")


@pytest.mark.parametrize("I, mu", [("0,3", 3), ("1,2", 2), ("0,1", 1), ("0,1", 2)])
def test_weil_mu_refuses_what_construct_pair_refuses(capsys, I, mu):
    # weil --mu at abscissas 0, -1 takes (u1, u2) = (mu*A, B/mu) for the
    # template's (A, B); construct-pair given that pair decides the same
    from hyptorsion.families import nice_pairs_coprime
    F = PrimeField(11)
    t = next(t for t in nice_pairs_coprime(F, 2)
             if t.I == tuple(map(int, I.split(","))))
    A, B = t.factors(F)
    u1, u2 = A.scale(mu), B.scale(F.inv(mu))
    _, weil = run(capsys, ["weil", "--field", "GF:11", "--g", "2", "--I", I,
                           "--mu", str(mu)])
    _, pair = run(capsys, ["construct-pair", "--field", "GF:11", "--g", "2",
                           "--a1", "0", "--a2", "10", "--u1", json.dumps(u1.to_json()),
                           "--u2", json.dumps(u2.to_json())])
    assert weil["status"] == pair["status"]
    assert weil.get("code") == pair.get("code")


def test_find_mu_builds_the_templates_up_to_its_index(capsys, monkeypatch):
    from hyptorsion import families
    built, template = [], families.Template

    def build(*args):
        t = template(*args)
        built.append(t.I)
        return t

    monkeypatch.setattr(families, "Template", build)
    find_mu = ["find-mu", "--field", "GF:11", "--g", "2", "--index"]
    code, out = run(capsys, find_mu + ["1"])
    assert (code, out["payload"]["family"]["I"]) == (0, [0, 2])
    assert built == [(0, 1), (0, 2)]
    for index in ("-1", "6", str(10 ** 20)):        # C(4, 2) = 6 templates
        code, out = run(capsys, find_mu + [index])
        assert (code, out["message"]) == (1, "--index out of range (have 6)"), index


# The fields' polynomial arithmetic is defined on divisors and gcd operands
# without trailing zeros: [1, 0] as a divisor has a zero leading coefficient.
# The CLI passes trimmed operands to every entry point.
POLY_METHODS = ("poly_add", "poly_sub", "poly_mul", "poly_divmod", "poly_gcd",
                "poly_xgcd", "poly_eval", "poly_mulmod", "poly_powmod", "poly_invmod")


@pytest.mark.parametrize("tabled", [True, False])
def test_kernel_operands_carry_no_trailing_zeros(capsys, monkeypatch, tabled):
    from hyptorsion import fields
    calls, untrimmed = set(), []

    def checked(key, fn):
        def call(F, *args):
            calls.add(key)
            untrimmed.extend((key, a) for a in args
                             if isinstance(a, (list, tuple)) and a and a[-1] == F.zero)
            return fn(F, *args)
        return call

    # GF(p^m)'s table loops see their operands before Field's loops do
    for cls in (fields.Field, fields.ExtField):
        for name in POLY_METHODS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, checked((cls, name), getattr(cls, name)))
    fields._build_tables.cache_clear()
    if not tabled:   # GF(3^4) element arithmetic then runs on GF(3) polynomials
        monkeypatch.setattr(fields, "_TABLE_MAX", 0)
    for argv in (["census", "--p", "3", "--m", "4", "--g", "1",
                  "--curve", "x^3+(x+1)^2", "--n", "3"],
                 # genus 4: a doubling past degree 1 runs an xgcd
                 ["census", "--p", "3", "--m", "4", "--g", "4",
                  "--curve", "x^9+(x^4+1)^2", "--n", "9"],
                 ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1"],
                 ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char",
                  "--p", "3", "--k", "1", "--l", "2", "--index", "1"]):
        code, out = run(capsys, argv)
        assert code == 0, out
    assert untrimmed == []
    reached = {name for cls, name in calls if cls is fields.Field}
    assert {"poly_mul", "poly_divmod", "poly_xgcd", "poly_powmod"} <= reached
    assert {(fields.ExtField, "poly_mul"), (fields.ExtField, "poly_divmod")} <= calls
    if not tabled:
        assert {"poly_mulmod", "poly_invmod"} <= reached


# -- primality, roots of unity and the certificate search ---------------------

@pytest.mark.parametrize("p", ["318665857834031151167461",      # strong
                               "3317044064679887385961981"])    # pseudoprimes
def test_pseudoprime_field_is_refused(capsys, p):
    code, out = run(capsys, ["verify", "--field", f"GF:{p}", "--g", "2",
                             "--curve", "x^5+1", "--point", "(0,1)", "--oracle"])
    assert code == 1 and out["code"] == "FieldError"


def test_weil_over_a_large_prime_field(capsys):
    start = time.perf_counter()
    code, out = run(capsys, ["weil", "--field", "GF:1000000021", "--g", "2",
                             "--I", "0,1"])
    assert time.perf_counter() - start < 1
    assert code == 0 and out["payload"]["match"] is True


def test_hyperelliptic_n_subset_bound(capsys, monkeypatch):
    # the smallest certificates of 99645 and 201285 have 9 and 7 divisors
    for n, size in ((99645, 9), (201285, 7)):
        start = time.perf_counter()
        code, out = run(capsys, ["hyperelliptic", "--n", str(n)])
        assert time.perf_counter() - start < 1
        assert code == 0 and len(out["payload"]["cert"]["S1"]) == size
    from hyptorsion import numth
    monkeypatch.setattr(numth, "MAX_TABLE_BITS", 10 ** 5)
    code, out = run(capsys, ["hyperelliptic", "--n", "99645"])
    assert code == 1 and out["code"] == "bad-args"


# -- input that nests too deeply, and malformed elements ----------------------
# parse_poly recurses once per parenthesis and json once per bracket; each
# parse boundary refuses what exhausts the stack with its own error code.

DEEP_POLY = "(" * 300 + "x" + ")" * 300
DEEP_JSON = "[" * 5000 + "]" * 5000
GF11_VERIFY = ["verify", "--field", "GF:11", "--g", "2"]


@pytest.mark.parametrize("argv, error", [
    pytest.param(GF11_VERIFY + ["--curve", DEEP_POLY, "--point", "(0,1)"],
                 "bad-poly", id="curve-text"),
    pytest.param(GF11_VERIFY + ["--curve", DEEP_JSON, "--point", "(0,1)"],
                 "bad-poly", id="curve-json"),
    pytest.param(GF11_VERIFY + ["--curve", "x^5+1", "--point", f"({DEEP_JSON},1)"],
                 "bad-elem", id="point"),
    pytest.param(["verify", "--curve", "deep.json", "--point", "(0,1)"],
                 "bad-curve", id="curve-file"),
    pytest.param(["construct-single", "--field", "GF:5", "--g", "2",
                  "--a", DEEP_JSON, "--v", "x+1"], "bad-elem", id="a"),
    pytest.param(["construct-single", "--field", "GF:5", "--g", "2",
                  "--a", "0", "--v", DEEP_POLY], "bad-poly", id="v-text"),
    pytest.param(["construct-single", "--field", "GF:5", "--g", "2",
                  "--a", "0", "--v", DEEP_JSON], "bad-poly", id="v-json"),
    pytest.param(["weil", "--field", "GF:11", "--g", "2", "--I", "0,1",
                  "--mu", DEEP_JSON], "bad-elem", id="mu")])
def test_deep_nesting_is_refused_where_it_is_parsed(capsys, tmp_path, monkeypatch,
                                                    argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(
        f'{{"field": {DEEP_JSON}, "g": 2, "f": [1, 0, 0, 0, 0, 1]}}')
    code, out = run(capsys, argv)
    assert (code, out["status"], out["code"]) == (1, "error", error), out
    assert out["message"].endswith("nests too deeply")


@pytest.mark.parametrize("argv, error", [
    pytest.param(["construct-single", "--field", "GF:5", "--g", "2", "--a", "[1,",
                  "--v", "x+1"], "bad-elem", id="a"),
    pytest.param(GF11_VERIFY + ["--curve", "[1,0,0,0,0", "--point", "(0,1)"],
                 "bad-poly", id="curve"),
    pytest.param(GF11_VERIFY + ["--curve", "x^5+1", "--point", "([1,,1)"],
                 "bad-elem", id="point"),
    pytest.param(["verify", "--curve", "truncated.json", "--point", "(0,1)"],
                 "bad-curve", id="curve-file")])
def test_malformed_json_gets_the_code_of_its_input(capsys, tmp_path, monkeypatch,
                                                  argv, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "truncated.json").write_text('{"field": {"kind": "GF", "p": 11}, "g"')
    code, out = run(capsys, argv)
    assert (code, out["status"], out["code"]) == (1, "error", error), out
    assert "is not valid JSON" in out["message"]


@pytest.mark.parametrize("argv", [
    GF11_VERIFY + ["--curve", "x^5+1", "--point", "(0,1/2)"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "1/2"],
    ["construct-single", "--field", "GF:3,2", "--g", "1", "--a", "0.5",
     "--v", "x"],
    ["construct-single", "--field", "Q", "--g", "2", "--a", "1/2/3", "--v", "x+1"],
    # the same refusal for an element inside JSON, wherever it sits
    ["construct-single", "--field", "Q", "--g", "2", "--a", "0", "--v", '["1/2/3"]'],
    ["construct-single", "--field", "GF:3,2", "--g", "1", "--a", "[1,2,3]",
     "--v", "x"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "[1]"],
    GF11_VERIFY + ["--curve", "x^5+1", "--point", "([1],1)"],
    GF11_VERIFY + ["--curve", "[1,0,0,0,0,1.5]", "--point", "(0,1)"],
    ["construct-pair", "--field", "GF:11", "--g", "2", "--a1", "0", "--a2", "10",
     "--u1", '[7, 7, "2"]', "--u2", "[8, 10, 8]"],
    ["verify", "--curve", "bad-coefficient.json", "--point", "(0,1)"]])
def test_malformed_element_is_bad_elem(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad-coefficient.json").write_text(
        '{"field": {"kind": "Q"}, "g": 2, "f": ["1/2/3", 0, 0, 0, 0, 1]}')
    code, out = run(capsys, argv)
    assert (code, out["code"]) == (1, "bad-elem"), out
    assert "Fraction" not in out["message"]


@pytest.mark.parametrize("argv", [
    ["construct-single", "--field", "Q", "--g", "2", "--a", "0", "--v", '["1/0"]'],
    ["verify", "--field", "Q", "--g", "2", "--curve", '["1/0",0,0,0,0,1]',
     "--point", "(0,1)"],
    ["construct-pair", "--field", "Q", "--g", "2", "--a1", "0", "--a2", "-1",
     "--u1", '["1/0",1,1]', "--u2", "[1,1,1]"],
    ["verify", "--curve", "zero-denominator.json", "--point", "(0,1)"]])
def test_json_rational_with_zero_denominator_is_refused(capsys, tmp_path, monkeypatch,
                                                        argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero-denominator.json").write_text(
        '{"field": {"kind": "Q"}, "g": 2, "f": ["1/0", 0, 0, 0, 0, 1]}')
    code, out = run(capsys, argv)
    assert (code, out["status"], out["code"]) == (1, "error", "bad-elem"), out
    assert out["message"] == "zero denominator in '1/0'"


# -- success payloads of construct-pair, weil --mu and rational-g52 -----------

def test_construct_pair_payload(capsys):
    from hyptorsion.families import family_pair, nice_pairs_coprime
    F = PrimeField(11)
    t = next(t for t in nice_pairs_coprime(F, 2) if t.I == (0, 1))
    cert, enh = family_pair(2, t.factors(F), F.coerce(2))
    u1, u2 = cert.u1, cert.u2
    code, out = run(capsys, ["construct-pair", "--field", "GF:11", "--g", "2",
                             "--a1", "0", "--a2", "10",
                             "--u1", json.dumps(u1.to_json()),
                             "--u2", json.dumps(u2.to_json())])
    assert code == 0
    pl = out["payload"]
    assert pl["P"]["x"] == 0 and pl["Q"]["x"] == 10
    assert pl["curve"] == enh.C.to_json()
    for name in ("P", "Q"):
        point = f"({pl[name]['x']},{pl[name]['y']})"
        code, out = run(capsys, ["verify", "--field", "GF:11", "--g", "2",
                                 "--curve", json.dumps(pl["curve"]["f"]),
                                 "--point", point, "--oracle"])
        assert code == 0 and out["payload"]["oracle_order"] == 5


@pytest.mark.parametrize("field, g, I", [("GF:11", "2", "0,1"),
                                         ("GF:29", "3", "0,2,4")])
def test_weil_with_the_reported_mu(capsys, field, g, I):
    argv = ["weil", "--field", field, "--g", g, "--I", I]
    code, scanned = run(capsys, argv)
    assert code == 0
    code, given_mu = run(capsys, argv + ["--mu", str(scanned["payload"]["mu"])])
    assert code == 0 and given_mu == scanned


def test_rational_g52_payload(capsys):
    from hyptorsion.jacobian import AffinePoint, Curve
    from hyptorsion.torsion import verify_single
    code, out = run(capsys, ["rational-g52"])
    assert code == 0
    pl, F = out["payload"], Rationals()
    assert pl["order"] == 105
    C = Curve(F, 52, Poly.from_json(F, pl["curve"]["f"]))
    points = [AffinePoint.from_json(F, P) for P in pl["points"]]
    assert len(set(points)) == 4
    for P in points:
        assert verify_single(C, P) is not None
