import collections
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
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
        assert out["payload"]["family"]["I"] == [0, 1]
        assert "mu" in out["payload"]["family"]

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
        top = cli.MAX_EXT_DEGREE
        assert cli.parse_field(f"GF:3,{top}").m == top
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"field": {"kind": "GF", "p": 3, "m": top + 1},
                                     "g": 1, "f": [1, 0, 0, 1]}))
        for argv in (
                ["construct-single", "--field", f"GF:3,{top + 1}", "--g", "1",
                 "--a", "1", "--v", "x"],
                ["census", "--p", "3", "--m", str(top + 1), "--g", "1", "--n", "3",
                 "--curve", "x^3+1"],
                ["verify", "--curve", str(curve), "--point", "(0,1)"]):
            code, out = run(capsys, argv)
            assert (code, out["code"]) == (1, "bad-field"), argv

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
# small (p <= 13, m <= 3, g <= 3; GF:3,5000 must be refused before it is
# built): no hyperelliptic --max, rational-g52 or selftest.  Integer-typed
# flags get integers, so argparse accepts every argv.

VALUES = st.sampled_from([
    "0", "1", "-1", "2", "7", "-12", "1.5", "-0.25", "1e3", "true", "false",
    "null", "abc", '"1"', '"10"', "", "[]", "[0]", "[1,2]", "[1,0,0,0,0,1]",
    "[1.5,2,0,1]", "[true,2,0,1]", '["1",2,0,1]', "[[1]]", "[[1],1]",
    "[[1,0],[2,0],[0,0],[1,0]]", "[[1.9,0]]", '["10",[2,0]]', "[[[1]]]",
    "1/2", "-3/4", "1/0", "x", "x^9", "x^5+1", "x^3+2*x+1", "(x+1)^2",
    "x^7+x+1", "2*x-3", "x^3-x+1", "x^", "(x+1", "x^5 + y", "x^-1",
    "x^99999999999", "(x^9999)^9999", "(x+1)^1001", "2^99999999999+x^3",
    "(0,1)", "(0, 1)", "([0],1)", "(1/2,1)", "(true,0)", "([1,0],[1,1])",
    "0,1", "missing.json"])
FIELDS = st.sampled_from([
    "Q", "GF:3", "GF:5", "GF:7", "GF:11", "GF:13", "GF:3,2", "GF:3,3",
    "GF:5,2", "GF:7,3", "GF:13,2", "GF:2", "GF:1", "GF:9", "GF:3,0", "GF(3)",
    "abc", "GF:3,5000", "GF:2147483659,24"])
GENERA = st.sampled_from(["-1", "0", "1", "2", "3"])
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
    # 2^61 - 1 is a prime past MAX_HYPERELLIPTIC_N; 765765 has 96 divisors
    for n in (2 ** 61 - 1, cli.MAX_HYPERELLIPTIC_N + 1, 765765):
        start = time.perf_counter()
        code, out = run(capsys, ["hyperelliptic", "--n", str(n)])
        assert time.perf_counter() - start < 1
        assert code == 1 and out["code"] == "bad-args"
    code, out = run(capsys, ["hyperelliptic", "--n", "45045"])   # 48 divisors
    assert code == 0 and out["payload"]["cert"]["n"] == 45045


# The kernels are defined only on operands without trailing zeros: on
# [1, 0] pmul keeps a trailing zero in its product and pinvmod does not end.
KERNELS = ("padd", "psub", "pneg", "pscale", "pmul", "pdivmod", "pmonic",
           "pgcd", "pxgcd", "peval", "pmulmod", "ppowmod", "pinvmod")


@pytest.mark.parametrize("tabled", [True, False])
def test_kernel_operands_carry_no_trailing_zeros(capsys, monkeypatch, tabled):
    from hyptorsion import _kernel_py, fields
    calls, untrimmed = collections.Counter(), []

    def checked(name, fn):
        def call(*args):
            calls[name] += 1
            untrimmed.extend((name, a) for a in args
                             if isinstance(a, list) and a and a[-1] == 0)
            return fn(*args)
        return call

    for name in KERNELS:
        monkeypatch.setattr(_kernel_py, name, checked(name, getattr(_kernel_py, name)))
    monkeypatch.setattr(fields, "_TABLES", {})
    if not tabled:   # GF(3^4) element arithmetic then runs on the kernels
        monkeypatch.setattr(fields, "_TABLE_MAX", 0)
    for argv in (["census", "--p", "3", "--m", "4", "--g", "1",
                  "--curve", "x^3+(x+1)^2", "--n", "3"],
                 ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1"],
                 ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char",
                  "--p", "3", "--k", "1", "--l", "2", "--index", "1"]):
        code, out = run(capsys, argv)
        assert code == 0, out
    assert untrimmed == []
    assert {"pmul", "pdivmod", "pxgcd", "ppowmod"} <= set(calls)
    if not tabled:
        assert {"pmulmod", "pinvmod"} <= set(calls)
