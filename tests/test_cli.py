import json

import pytest

import hyptorsion
from hyptorsion import acceptance, cli
from hyptorsion.fields import PrimeField, Rationals
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
                 ' "f": [1, 0, 1, 1]}')):
            (tmp_path / name).write_text(text)
        code, out = run(capsys, argv)
        assert code == 1 and out["status"] == "error"
