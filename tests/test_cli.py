import json
import os
import sys
import time

import pytest

from qbic import moduli
from qbic.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "qbicbench")

sys.path.insert(0, BENCH)
try:
    import workloads
finally:
    sys.path.remove(BENCH)

N3_FILE = "field: 2^2 q=2 mod=[1,1,1]\nn: 3\n0 1 0\n0 0 1\n0 0 0\n"
RATIONAL_FILE = "field: 2^2(t) q=2 mod=[1,1,1]\nn: 2\nt 1\n1 0\n"
FIG5 = ("1^5,1^3+N2,1^2+N3,1+N4,N5,1+N2^2,N2+N3,0+1^4,0+1^2+N2")


def modulus_text(degree, *middle):
    """The coefficients of z^degree + z^m1 + ... + 1 over GF(2)."""
    coeffs = [0] * (degree + 1)
    for i in (0, *middle, degree):
        coeffs[i] = 1
    return ",".join(map(str, coeffs))


# z^256 + z^155 + z^2 + z + 1 and z^400 + z^245 + z^2 + z + 1 are
# irreducible over GF(2); the degree-258 one need not be, it is refused first
DEG256 = modulus_text(256, 1, 2, 155)
DEG258 = modulus_text(258, 1)
DEG400 = modulus_text(400, 1, 2, 245)
# z^70 + z^24 + z^2 + z + 1 is irreducible over GF(2); a search for a
# default modulus of degree 70 is past its guard
GF2_70_SPEC = f"2^70 q=2 mod=[{modulus_text(70, 1, 2, 24)}]"


@pytest.fixture
def n3_path(tmp_path):
    path = tmp_path / "n3.txt"
    path.write_text(N3_FILE)
    return str(path)


@pytest.fixture
def rational_path(tmp_path):
    path = tmp_path / "rational.txt"
    path.write_text(RATIONAL_FILE)
    return str(path)


def diagonal_gf4_file(tmp_path, n, entry):
    """A GF(4) matrix file of entry times the n-by-n identity."""
    rows = "\n".join(" ".join(entry if i == j else "0" for j in range(n))
                     for i in range(n))
    path = tmp_path / "diagonal.txt"
    path.write_text(f"field: 2^2 q=2 mod=[1,1,1]\nn: {n}\n{rows}\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTypeCommand:
    def test_type(self, capsys, n3_path):
        code, out, _ = run(capsys, "type", n3_path)
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "N3" and data["b"] == {"3": 1}
        assert data["nu"] == 0

    def test_deterministic_output(self, capsys, n3_path):
        _, out1, _ = run(capsys, "type", n3_path)
        _, out2, _ = run(capsys, "type", n3_path)
        assert out1 == out2

    def test_field_flag_supplies_header(self, capsys, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("n: 1\n1\n")
        code, out, _ = run(capsys, "type", str(path),
                           "--field", "2^2 q=2 mod=[1,1,1]")
        assert code == 0 and json.loads(out)["type"] == "1"

    @pytest.mark.parametrize("spec,why", [
        ("2^2 q=3", "q = 3 is not a positive power of p = 2"),
        ("", "bad field spec: ''")], ids=["q", "empty"])
    @pytest.mark.parametrize("header", ["", "field: 2^2 q=2 mod=[1,1,1]\n"],
                             ids=["bare", "header"])
    def test_bad_field_spec_is_blamed_on_the_flag(self, capsys, tmp_path,
                                                  header, spec, why):
        path = tmp_path / "form.txt"
        path.write_text(header + "n: 1\n1\n")
        code, out, err = run(capsys, "type", str(path), "--field", spec)
        assert code == 2 and out == "" and err == f"error: --field: {why}\n"

    def test_modulus_list_with_a_bad_entry(self, capsys, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text("field: 3^2 q=3 mod=[2,1 0,1]\nn: 1\n1\n")
        code, out, err = run(capsys, "type", str(path))
        assert code == 2 and out == "" and "bad field spec" in err

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "type", str(tmp_path / "nope.txt"))
        assert code == 2 and "nope.txt" in err

    @pytest.mark.parametrize("spec", ["2^1000 q=2", "3^200 q=3",
                                      "2^1000(t) q=2"])
    def test_modulus_search_guard(self, capsys, tmp_path, spec):
        path = tmp_path / "big.txt"
        path.write_text(f"field: {spec}\nn: 1\n1\n")
        start = time.process_time()
        code, out, err = run(capsys, "type", str(path))
        assert time.process_time() - start < 1.0
        assert code == 3 and out == "" and "without mod=" in err

    def test_modulus_search_admits_2_40(self, capsys, tmp_path):
        path = tmp_path / "gf2_40.txt"
        path.write_text("field: 2^40 q=2\nn: 1\n1\n")
        code, out, _ = run(capsys, "type", str(path))
        assert code == 0 and json.loads(out)["type"] == "1"

    @pytest.mark.parametrize("literal", ["t^3000000", "t^1025",
                                         "t^600*t^600", "(t+1)^600/t^600"])
    def test_literal_degree_guard(self, capsys, tmp_path, literal):
        path = tmp_path / "deep.txt"
        path.write_text(f"field: 2^2(t) q=2 mod=[1,1,1]\nn: 1\n{literal}\n")
        start = time.process_time()
        code, out, err = run(capsys, "type", str(path))
        assert time.process_time() - start < 1.0
        assert code == 3 and out == "" and "degree <= 1024" in err

    def test_literal_degree_at_the_guard(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("field: 2^2(t) q=2 mod=[1,1,1]\nn: 1\nt^1024\n")
        code, out, _ = run(capsys, "type", str(path))
        assert code == 0 and json.loads(out)["type"] == "1"

    @pytest.mark.parametrize("spec", [
        "2^400 q=2 mod=[%s]" % DEG400, "2^258 q=2 mod=[%s]" % DEG258])
    def test_modulus_test_guard(self, capsys, tmp_path, spec):
        path = tmp_path / "big.txt"
        path.write_text(f"field: {spec}\nn: 1\n1\n")
        start = time.process_time()
        code, out, err = run(capsys, "type", str(path))
        assert time.process_time() - start < 1.0
        assert code == 3 and out == ""
        assert "k^3 * log2(p) <= 16777216 with mod=" in err

    def test_modulus_test_admits_degree_256(self, capsys, tmp_path):
        path = tmp_path / "gf2_256.txt"
        path.write_text(f"field: 2^256 q=2 mod=[{DEG256}]\nn: 1\nz\n")
        code, out, _ = run(capsys, "type", str(path))
        assert code == 0 and json.loads(out)["type"] == "1"

    @pytest.mark.parametrize("p", [17592186044423, 10 ** 24 + 7])
    def test_prime_guard(self, capsys, tmp_path, p):
        path = tmp_path / "p.txt"
        path.write_text(f"field: {p}^2 q={p}\nn: 1\n1\n")
        start = time.process_time()
        code, out, err = run(capsys, "type", str(path))
        assert time.process_time() - start < 1.0
        assert code == 3 and out == "" and "guard is p < 2^44" in err

    def test_prime_guard_admits_below_2_44(self, capsys, tmp_path):
        p = 17592186044399  # the largest prime below 2^44
        path = tmp_path / "p.txt"
        path.write_text(f"field: {p}^2 q={p}\nn: 1\nz\n")
        code, out, _ = run(capsys, "type", str(path))
        assert code == 0 and json.loads(out)["type"] == "1"

    @pytest.mark.parametrize("depth,code", [(50, 0), (3000, 2)])
    def test_nested_parentheses(self, capsys, tmp_path, depth, code):
        path = tmp_path / "nested.txt"
        path.write_text("field: 2^2 q=2 mod=[1,1,1]\nn: 1\n"
                        + "(" * depth + "z+1" + ")" * depth + "\n")
        start = time.process_time()
        got, out, err = run(capsys, "type", str(path))
        assert time.process_time() - start < 1.0
        assert got == code
        if code == 0:
            assert json.loads(out)["type"] == "1"
        else:
            assert out == "" and "nest deeper than 100" in err

    @pytest.mark.parametrize("spec", ["0^2 q=2", "1^2 q=1"])
    def test_prime_below_two_is_input_error(self, capsys, tmp_path, spec):
        path = tmp_path / "p.txt"
        path.write_text(f"field: {spec}\nn: 1\n1\n")
        code, out, err = run(capsys, "type", str(path))
        assert code == 2 and out == "" and "is not prime" in err

    def test_bad_token_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("field: 2^2 q=2\nn: 1\n!\n")
        code, _, err = run(capsys, "type", str(path))
        assert code == 2 and "'!'" in err

    def test_division_by_zero_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "div.txt"
        path.write_text("field: 2^2(t) q=2\nn: 1\n1/(t-t)\n")
        code, out, err = run(capsys, "type", str(path))
        assert code == 2 and out == "" and "division by zero" in err


class TestNormalFormCommand:
    def test_round_trip_of_emitted_matrices(self, capsys, n3_path):
        code, out, _ = run(capsys, "normal-form", n3_path)
        assert code == 0
        data = json.loads(out)
        assert data["verified"] and data["type"] == "N3"
        from qbic.fields import parse_field_spec
        from qbic.linalg import parse_matrix_file, format_matrix_file, MatrixF
        field = parse_field_spec(data["field"])
        rows = [[field.parse(s) for s in row] for row in data["transform"]]
        M = MatrixF(field, rows)
        _, M2 = parse_matrix_file(format_matrix_file(M))
        assert M2 == M

    def test_needs_extension_report(self, capsys, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("field: 2^2 q=2 mod=[1,1,1]\nn: 1\nz\n")
        code, out, _ = run(capsys, "normal-form", str(path))
        assert code == 0
        assert json.loads(out) == {"verified": False, "needs_extension": 3}
        code, out, _ = run(capsys, "normal-form", str(path),
                           "--allow-extension")
        data = json.loads(out)
        assert code == 0 and data["verified"] and data["extension_degree"] == 3
        # the order of M over GF(16) with q = 4 is 5, past the old search
        path.write_text("field: 2^4 q=4\nn: 1\nz^3\n")
        code, out, _ = run(capsys, "normal-form", str(path))
        assert code == 0
        assert out == '{\n  "needs_extension": 5,\n  "verified": false\n}\n'

    def test_extension_guard(self, capsys, tmp_path):
        # M has order past 25 over GF(25): its degree-26 extension needs a
        # default modulus of degree 52, past the search guard
        path = tmp_path / "order.txt"
        path.write_text("field: 5^2 q=5\nn: 2\nz+4 2*z+3\n0 z+3\n")
        for extra in ([], ["--allow-extension"]):
            start = time.process_time()
            code, out, err = run(capsys, "normal-form", str(path), *extra)
            assert time.process_time() - start < 1.0
            assert code == 3 and out == "" and "degree 52" in err

    def test_hermitian_system_guard(self, capsys, tmp_path):
        # z times the 64x64 identity over GF(4) has M = z, of order 3; its
        # Hermitian system over the cubic extension has 384 columns
        path = diagonal_gf4_file(tmp_path, 64, "z")
        for extra in ([], ["--allow-extension"]):
            start = time.process_time()
            code, out, err = run(capsys, "normal-form", str(path), *extra)
            assert time.process_time() - start < 1.0
            assert code == 3 and out == ""
            assert "384 columns" in err and "<= 256" in err

    def test_degree_one_extension_is_the_input_field(self, capsys,
                                                      tmp_path):
        # this form needs no extension; its certificate is over GF(9) with
        # the file's modulus, not the default one
        path = tmp_path / "gf9.txt"
        path.write_text("field: 3^2 q=3 mod=[2,1,1]\nn: 2\n1 z\nz^3 1\n")
        code, out, _ = run(capsys, "normal-form", str(path))
        data = json.loads(out)
        assert code == 0 and data["extension_degree"] == 1
        assert data["field"] == "3^2 q=3 mod=[2,1,1]"
        from qbic.linalg import MatrixF, parse_matrix_file, twisted_congruence
        field, B = parse_matrix_file(path.read_text())
        U = MatrixF(field, [[field.parse(s) for s in row]
                            for row in data["transform"]])
        assert twisted_congruence(B, U) == MatrixF.identity(field, 2)

    def test_rational_function_field_is_input_error(self, capsys,
                                                     rational_path):
        code, out, err = run(capsys, "normal-form", rational_path)
        assert code == 2 and out == "" and "finite field" in err

    def test_failed_certificate_exits_4(self, capsys, monkeypatch, n3_path):
        from qbic import classify
        from qbic.linalg import MatrixF

        def broken(B, A):
            return MatrixF.zero(B.field, A.ncols, A.ncols)

        monkeypatch.setattr(classify, "twisted_congruence", broken)
        code, out, err = run(capsys, "normal-form", n3_path)
        assert code == 4 and out == "" and "verification failed" in err


class TestAutCommand:
    def test_by_type(self, capsys):
        code, out, _ = run(capsys, "aut", "--type", "1+N2^2")
        assert code == 0
        data = json.loads(out)
        assert data["group_dim"] == 4 and data["points"] is None

    def test_with_points(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("field: 2^2 q=2 mod=[1,1,1]\nn: 1\n1\n")
        code, out, _ = run(capsys, "aut", str(path), "--points")
        assert code == 0
        assert json.loads(out)["points"] == {"field": "2^2", "count": 3}

    def test_cost_guard_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("field: 2^2 q=2 mod=[1,1,1]\nn: 4\n"
                        + "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        code, _, err = run(capsys, "aut", str(path), "--points")
        assert code == 3 and "guard" in err

    def test_chain_guard_refuses_quickly(self, capsys, tmp_path):
        # a 1x1 form over GF(2^18) passes the static bounds, but its one
        # level holds 2^18 candidate columns
        path = tmp_path / "wide.txt"
        path.write_text("field: 2^18 q=2\nn: 1\n1\n")
        start = time.process_time()
        code, out, err = run(capsys, "aut", str(path), "--points")
        assert time.process_time() - start < 1.0
        assert code == 3 and out == ""
        for bound in ("n <= 3", "<= 1953125", "65536 candidate columns",
                      "262144 candidate columns"):
            assert bound in err

    def test_rational_function_field_is_input_error(self, capsys,
                                                     rational_path):
        code, out, err = run(capsys, "aut", rational_path, "--points")
        assert code == 2 and out == "" and "finite field" in err
        code, out, _ = run(capsys, "aut", rational_path)
        assert code == 0 and json.loads(out)["points"] is None

    def test_zero_exponent_is_input_error(self, capsys):
        code, out, err = run(capsys, "aut", "--type", "1^0")
        assert code == 2 and out == "" and "bad exponent" in err

    def test_report_shape(self, capsys, tmp_path):
        path = diagonal_gf4_file(tmp_path, 2, "1")
        code, out, _ = run(capsys, "aut", path, "--points")
        assert code == 0
        assert json.loads(out) == {"type": "1^2", "lie_dim": 0,
                                   "group_dim": 0,
                                   "points": {"field": "2^2", "count": 18}}

    @pytest.mark.parametrize("args", [
        ("--field", "bogus spec"), ("--field", ""), ("--points",)],
        ids=["bogus", "empty", "points"])
    def test_field_with_type_is_input_error(self, capsys, args):
        code, out, err = run(capsys, "aut", "--type", "N3", *args)
        assert code == 2 and out == ""
        assert f"{args[0]} needs a gram file, not --type" in err

    def test_needs_exactly_one_source(self, capsys, n3_path):
        code, _, _ = run(capsys, "aut")
        assert code == 2
        code, _, _ = run(capsys, "aut", n3_path, "--type", "N3")
        assert code == 2


class TestHermitianCommand:
    def test_counts(self, capsys, n3_path):
        code, out, _ = run(capsys, "hermitian", n3_path, "--ext", "2")
        assert code == 0
        data = json.loads(out)
        assert data["d"] == 2 and data["point_count"] == 16

    @pytest.mark.parametrize("ext", ["0", "-1"])
    def test_nonpositive_ext_is_input_error(self, capsys, n3_path, ext):
        code, out, err = run(capsys, "hermitian", n3_path, "--ext", ext)
        assert code == 2 and out == "" and "--ext" in err

    def test_extension_guard(self, capsys, tmp_path):
        # GF(4) extended by 128 needs a default modulus of degree 256
        path = tmp_path / "one.txt"
        path.write_text("field: 2^2 q=2 mod=[1,1,1]\nn: 1\n1\n")
        start = time.process_time()
        code, out, err = run(capsys, "hermitian", str(path), "--ext", "128")
        assert time.process_time() - start < 1.0
        assert code == 3 and out == "" and "degree 256" in err
        code, out, _ = run(capsys, "hermitian", str(path), "--ext", "32")
        assert code == 0 and json.loads(out)["r"] == 32

    def test_degree_one_needs_no_modulus_search(self, capsys, tmp_path):
        path = tmp_path / "gf2_70.txt"
        path.write_text(f"field: {GF2_70_SPEC}\nn: 1\n1\n")
        code, out, _ = run(capsys, "hermitian", str(path), "--ext", "1")
        assert code == 0
        assert json.loads(out) == {"r": 1, "d": 1, "point_count": 4,
                                   "gram": [["1"]]}
        code, out, err = run(capsys, "hermitian", str(path), "--ext", "2")
        assert code == 3 and "degree 140" in err
        code, out, _ = run(capsys, "normal-form", str(path))
        data = json.loads(out)
        assert code == 0 and data["verified"]
        assert data["field"] == GF2_70_SPEC

    def test_system_size_guard(self, capsys, tmp_path):
        # a 100x100 GF(4) form over the degree-32 extension is a GF(p)
        # system of 6,400 columns
        path = diagonal_gf4_file(tmp_path, 100, "1")
        start = time.process_time()
        code, out, err = run(capsys, "hermitian", str(path), "--ext", "32")
        assert time.process_time() - start < 1.0
        assert code == 3 and out == ""
        assert "6400 columns" in err and "<= 256" in err

    def test_rational_function_field_is_input_error(self, capsys,
                                                     rational_path):
        code, out, err = run(capsys, "hermitian", rational_path)
        assert code == 2 and out == "" and "finite field" in err


class TestModuliCommand:
    def test_figure_counts_and_dot(self, capsys, tmp_path):
        dot_path = tmp_path / "fig5.dot"
        code, out, _ = run(capsys, "moduli", "--dim", "5",
                           "--restrict", FIG5, "--dot", str(dot_path))
        assert code == 0
        assert json.loads(out) == {"n": 5, "nodes": 9, "edges": 10,
                                   "unknown": 0}
        dot = dot_path.read_text()
        assert dot.count("->") == 10 and "dim 25" in dot

    def test_cost_guard(self, capsys):
        code, _, _ = run(capsys, "moduli", "--dim", "9")
        assert code == 3

    def test_failed_f6_witness_exits_4(self, capsys, monkeypatch):
        from qbic import moduli

        # F6's claim, swapped, is one its witness cannot meet
        real = moduli._family_claim
        moduli._verify_f6_core.cache_clear()
        monkeypatch.setattr(moduli, "_family_claim", lambda family, s, t: (
            real(family, s, t)[::-1] if family == 6
            else real(family, s, t)))
        code, out, err = run(capsys, "moduli", "--dim", "3")
        assert code == 4 and out == ""
        assert "witness F6 has fiber types" in err

    def test_nonpositive_dim_is_input_error(self, capsys):
        code, out, err = run(capsys, "moduli", "--dim", "0")
        assert code == 2 and out == "" and "--dim" in err

    def test_bad_type_in_restrict(self, capsys):
        code, _, _ = run(capsys, "moduli", "--dim", "5",
                         "--restrict", "banana")
        assert code == 2

    def test_empty_restrict_is_input_error(self, capsys):
        code, out, err = run(capsys, "moduli", "--dim", "3", "--restrict", "")
        assert code == 2 and out == "" and "bad type term ''" in err

    def test_json_dump(self, capsys, tmp_path):
        json_path, dot_path = tmp_path / "poset.json", tmp_path / "poset.dot"
        code, out, _ = run(capsys, "moduli", "--dim", "4", "--json",
                           str(json_path), "--dot", str(dot_path))
        assert code == 0 and json.loads(out)["nodes"] == 12
        poset = moduli.build_poset(4)
        assert json_path.read_text() == poset.to_json()
        assert dot_path.read_text() == poset.to_dot()

    def test_unwritable_report_leaves_no_side_file(self, capsys, tmp_path):
        dot_path = tmp_path / "t.dot"
        code, out, err = run(capsys, "moduli", "--dim", "3",
                             "--dot", str(dot_path),
                             "--output", str(tmp_path / "nodir" / "x.json"))
        assert code == 2 and out == "" and "No such file" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", [False, True])
    def test_unwritable_side_file_leaves_no_file(self, capsys, tmp_path,
                                                 output):
        # the report and --dot are written before --json fails
        argv = ["moduli", "--dim", "3", "--dot", str(tmp_path / "t.dot"),
                "--json", str(tmp_path / "nodir" / "x.json")]
        if output:
            argv += ["--output", str(tmp_path / "report.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "No such file" in err
        assert list(tmp_path.iterdir()) == []

    def test_restrict_type_of_another_dimension(self, capsys):
        code, out, err = run(capsys, "moduli", "--dim", "4",
                             "--restrict", "1^3")
        assert code == 2 and out == ""
        assert "1^3 does not have dimension 4" in err

    def test_restrict_type_named_twice(self, capsys):
        code, out, err = run(capsys, "moduli", "--dim", "3",
                             "--restrict", "1^3,1^3")
        assert code == 2 and out == "" and "1^3 is named twice" in err


@pytest.mark.parametrize("argv", [
    ["aut", "--type", "N100000000"],
    ["specialize", "--from", "N1000000", "--to", "1+N999999"]])
def test_type_dimension_guard(capsys, argv):
    start = time.time()
    code, out, err = run(capsys, *argv)
    assert time.time() - start < 1.0
    assert code == 3 and out == "" and "guard is n <= 512" in err


class TestSpecializeCommand:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "specialize", "--from", "N3^2",
                           "--to", "0+N5")
        assert code == 0
        assert json.loads(out)["verdict"] == "yes"

    def test_strict_exit_codes(self, capsys):
        code, out, _ = run(capsys, "specialize", "--from", "0+1^4",
                           "--to", "1^2+N3")
        assert code == 0 and json.loads(out)["verdict"] == "no"
        code, _, _ = run(capsys, "specialize", "--from", "0+1^4",
                         "--to", "1^2+N3", "--strict")
        assert code == 1
        code, _, _ = run(capsys, "specialize", "--from", "1+N3^2+N8",
                         "--to", "0+N7^2", "--strict")
        assert code == 1

    def test_qbic_jobs_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("QBIC_JOBS", "abc")
        code, out, _ = run(capsys, "specialize", "--from", "N2",
                           "--to", "0^2")
        assert code == 0 and json.loads(out)["verdict"] == "yes"

    def test_dimension_mismatch(self, capsys):
        code, _, _ = run(capsys, "specialize", "--from", "1", "--to", "1^2")
        assert code == 2

    def test_zero_exponent_is_input_error(self, capsys):
        code, out, err = run(capsys, "specialize", "--from", "1^0",
                             "--to", "0^0")
        assert code == 2 and out == "" and "bad exponent" in err

    def test_path_budget(self, capsys):
        code, out, err = run(capsys, "specialize", "--from", "1+N3^2+N8+N100",
                             "--to", "0+N7^2+N100")
        assert code == 3 and out == "" and "budget of 2000" in err


class TestWitnessCommand:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "5",
                           "--s", "1", "--t", "1")
        assert code == 0
        data = json.loads(out)
        assert data["verified"]
        assert data["generic_type"] == "N3^2"
        assert data["special_type"] == "0+N5"

    def test_wrong_claim_exits_4(self, capsys, monkeypatch):
        from qbic import moduli
        from qbic.forms import parse_type

        monkeypatch.setattr(moduli, "_family_claim", lambda *args: (
            parse_type("0+N5"), parse_type("N3^2")))
        code, out, err = run(capsys, "witness", "--family", "5",
                             "--s", "1", "--t", "1")
        assert code == 4 and out == ""
        assert "fiber types N3^2 ~> 0+N5, not the claimed 0+N5 ~> N3^2" \
            in err

    def test_bad_family(self, capsys):
        for family in ("0", "7", "9"):
            code, out, err = run(capsys, "witness", "--family", family,
                                 "--s", "1")
            assert code == 2 and out == ""
            assert f"unknown family {family}" in err

    @pytest.mark.parametrize("args,n", [
        (("--family", "2", "--s", "20"), 40),
        (("--family", "4", "--s", "19", "--t", "19"), 40),
        (("--family", "6", "--s", "1", "--q", "256"), 3)])
    def test_witness_inside_the_guard(self, capsys, args, n):
        start = time.process_time()
        code, out, _ = run(capsys, "witness", *args)
        assert time.process_time() - start < 3.0
        data = json.loads(out)
        assert code == 0 and data["verified"] and len(data["gram"]) == n

    @pytest.mark.parametrize("args,seen", [
        (("--family", "1", "--s", "20"), "dimension 41"),
        (("--family", "5", "--s", "9", "--t", "3"), "dimension 42"),
        (("--family", "1", "--s", "1000000000000"), "dimension 2000000000001"),
        (("--family", "6", "--s", "1", "--q", "257"), "GF(257^2)(t)"),
        (("--family", "6", "--s", "1", "--q", "1000000007"),
         "GF(1000000007^2)(t)")])
    def test_witness_guard(self, capsys, args, seen):
        start = time.process_time()
        code, out, err = run(capsys, "witness", *args)
        assert time.process_time() - start < 0.5
        assert code == 3 and out == "" and seen in err
        assert "guard is n <= 40 and q <= 256" in err

    @pytest.mark.parametrize("args", [
        ("--family", "1", "--s", "1", "--t", "5"),
        ("--family", "6", "--s", "0", "--t", "-3"),
        ("--family", "3", "--s", "30", "--t", "1")])
    def test_t_outside_the_family(self, capsys, args):
        code, out, err = run(capsys, "witness", *args)
        assert code == 2 and out == ""
        assert f"family {args[1]} takes no t" in err

    # at s = 30 the dimension 61 is past its guard, but q is blamed first
    @pytest.mark.parametrize("q, s", [("6", "1"), ("1", "1"), ("6", "30")],
                             ids=["6", "1", "6-past-the-dimension-guard"])
    def test_q_not_a_prime_power(self, capsys, q, s):
        code, out, err = run(capsys, "witness", "--family", "1", "--s", s,
                             "--q", q)
        assert code == 2 and out == ""
        assert f"q = {q} is not a prime power" in err

    def test_bad_witness_parameters_before_the_guard(self, capsys):
        code, out, err = run(capsys, "witness", "--family", "4",
                             "--s", "50", "--t", "60")
        assert code == 2 and out == "" and "s >= t >= 1" in err


with open(os.path.join(BENCH, "cli", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

TABLE = {cid: (workloads.cli_argv(argv), code, nf)
         for cid, argv, code, nf in workloads.cli_table()}


class TestOutputFlag:
    @pytest.mark.parametrize("cid", [
        "type:gf4:N3", "normal-form:gf4:N3", "aut:gf4:1+N2^2",
        "aut-type:1+N2^2", "hermitian:gf4:N3:r2", "moduli:--dim 4",
        "specialize:0+1^4:1^2+N3:strict", "witness:5:1:1"])
    def test_report_goes_to_the_file(self, capsys, tmp_path, cid):
        argv, code, nf = TABLE[cid]
        path = tmp_path / "report.json"
        got, out, err = run(capsys, *argv, "--output", str(path))
        assert got == code == GOLDEN[cid]["exit"]
        assert out == "" and err == ""
        text = path.read_text()
        if nf is None:
            assert text == GOLDEN[cid]["stdout"]
        else:
            # a normal-form transform is a certificate, checked, not matched
            case = workloads.Case("cli", cid, argv, nf, (code, GOLDEN[cid]))
            assert workloads.check(case, (got, text))
            assert text == run(capsys, *argv)[1]

    @pytest.mark.parametrize("cid", [
        "refused:type bad_token.txt", "refused:moduli --dim 9",
        "refused:aut gf4_N3.txt --type N3"])
    def test_refusal_writes_no_file(self, capsys, tmp_path, cid):
        argv, code, _ = TABLE[cid]
        path = tmp_path / "report.json"
        got, out, err = run(capsys, *argv, "--output", str(path))
        assert got == code and code > 0
        assert out == "" and err != "" and not path.exists()
