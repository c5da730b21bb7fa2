import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from simplexopt.cli import main

EXAMPLE_QUADRATIC = "2*x1^2 + x2^2 - 5*x1*x2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestGridMin:
    def test_example_text(self, capsys):
        code, out, _ = run(capsys, "grid-min", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2")
        assert code == 0
        assert "-1/2" in out
        assert "alpha=(1, 1)" in out
        assert "wall time" in out

    def test_example_json(self, capsys):
        code, payload, _ = run_json(capsys, "grid-min", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2")
        assert code == 0
        assert payload["value"] == "-1/2"
        assert payload["argmin"]["alpha"] == [1, 1]
        assert payload["argmin"]["point"] == ["1/2", "1/2"]
        assert payload["evaluations"] == 3

    def test_cubic_even_order(self, capsys):
        code, payload, _ = run_json(capsys, "grid-min", "x1^3 + x2^3", "--n", "2", "--r", "4")
        assert code == 0 and payload["value"] == "1/4"

    def test_zero_polynomial(self, capsys):
        code, payload, _ = run_json(capsys, "grid-min", "x1 - x1", "--n", "2", "--r", "2")
        assert code == 0
        assert payload["value"] == "0/1"
        assert payload["argmin"]["alpha"] == [0, 2]

    def test_max_flag(self, capsys):
        code, payload, _ = run_json(
            capsys, "grid-min", "x1^2 + x2^2", "--n", "2", "--r", "3", "--max"
        )
        assert code == 0 and payload["value"] == "1/1" and payload["mode"] == "max"

    def test_values_past_the_int_string_digit_limit(self, capsys):
        # the grid value's denominator has about 4,400 digits, past the
        # 4,300 that str(int) writes by default; the printed value is still
        # exact, read back through Decimal, which has no such limit
        b1, b3 = 10**2200 + 1, 10**2200 + 3
        text = f"1/{b1}*x1^2 + 1/{b3}*x2^2"
        exact = min(Fraction(1, b1), (Fraction(1, b1) + Fraction(1, b3)) / 4, Fraction(1, b3))
        parse = lambda value: Fraction(*(Fraction(Decimal(part)) for part in value.split("/")))
        code, payload, _ = run_json(capsys, "grid-min", text, "--n", "2", "--r", "2")
        assert code == 0 and parse(payload["value"]) == exact
        code, out, _ = run(capsys, "grid-min", text, "--n", "2", "--r", "2")
        value = next(line.split()[1] for line in out.splitlines() if line.startswith("value:"))
        assert code == 0 and parse(value) == exact
        assert run_json(capsys, "bound", text, "--n", "2", "--r", "2")[0] == 0

    def test_json_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "grid-min", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2", "--json")
        _, second, _ = run(capsys, "grid-min", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2", "--json")
        assert first == second
        assert "wall" not in first

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "grid-min", "x1^3 + x1*x2", "--n", "2", "--r", "2")
        assert code == 2 and "mixed degrees" in err

    def test_precondition_exit_code(self, capsys):
        code, _, err = run(capsys, "grid-min", "x1^2", "--n", "1", "--r", "0")
        assert code == 3 and "order" in err

    def test_overlong_integer_literal_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "grid-min", "1" * 5000 + "*x1", "--n", "1", "--r", "2")
        assert code == 2 and "integer literal" in err and "position 0" in err

    @pytest.mark.parametrize("n, r", [("200", "200"), ("2", "1000000000"), ("300000", "300000")])
    def test_oversized_grid_is_refused_at_once(self, capsys, n, r):
        start = perf_counter()
        code, out, err = run(capsys, "grid-min", "x1^2 + x2^2", "--n", n, "--r", r)
        assert code == 3 and out == "" and "points" in err
        assert perf_counter() - start < 1.0


class TestBernstein:
    def test_closed_route_example(self, capsys):
        code, payload, _ = run_json(
            capsys, "bernstein", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2", "--route", "closed"
        )
        assert code == 0
        terms = {tuple(t["exponents"]): Fraction(t["coefficient"]) for t in payload["reduced_terms"]}
        assert terms == {
            (1, 0): Fraction(1),
            (0, 1): Fraction(1, 2),
            (2, 0): Fraction(1),
            (0, 2): Fraction(1, 2),
            (1, 1): Fraction(-5, 2),
        }

    def test_definitional_route(self, capsys):
        code, payload, _ = run_json(
            capsys, "bernstein", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2", "--route", "def"
        )
        assert code == 0
        terms = {
            tuple(t["exponents"]): Fraction(t["coefficient"])
            for t in payload["homogeneous_terms"]
        }
        assert terms == {(2, 0): Fraction(2), (0, 2): Fraction(1), (1, 1): Fraction(-1)}

    def test_eval_point(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "bernstein",
            "x1^3 + x2^3",
            "--n",
            "2",
            "--r",
            "2",
            "--eval",
            "1/2,1/2",
        )
        assert code == 0
        assert payload["eval"]["value"] == "5/8"

    @pytest.mark.parametrize("route", ["def", "closed", "auto"])
    def test_eval_off_simplex_rejected(self, capsys, route):
        # off the simplex the definitional form reads 8/3 and the reduced one 1
        code, out, err = run(capsys, "bernstein", "x1^2", "--n", "2", "--r", "3", "--eval", "1,1", "--route", route)
        assert code == 3 and out == ""
        assert err == "error: point (1, 1) is not on the standard simplex\n"

    def test_auto_route_agreement(self, capsys):
        code, payload, _ = run_json(
            capsys, "bernstein", "x1^2 + x2^2 + x3^2", "--n", "3", "--r", "4"
        )
        assert code == 0
        assert "homogeneous_terms" in payload and "reduced_terms" in payload


class TestBound:
    def test_squarefree_example(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "bound",
            " -x1*x2",
            "--n",
            "2",
            "--r",
            "3",
            "--theorem",
            "sqfree",
            "--range=-1/4,0",
        )
        assert code == 0
        cert = payload["certificates"][0]
        assert cert["theorem"] == "squarefree"
        assert Fraction(cert["gap"]) == Fraction(1, 36)
        assert Fraction(cert["bound_value"]) == Fraction(1, 12)
        assert cert["satisfied"] is True
        assert Fraction(cert["ratio"]) == Fraction(1, 9)

    def test_quadratic_auto_range(self, capsys):
        code, payload, _ = run_json(
            capsys, "bound", "x1^2 + x2^2", "--n", "2", "--r", "3", "--theorem", "quad"
        )
        assert code == 0
        cert = payload["certificates"][0]
        assert cert["range"] == {"lower": "0/1", "upper": "1/1", "provenance": "bernstein_coefficient_range"}
        assert cert["satisfied"] is True

    def test_general_emits_two_certificates(self, capsys):
        code, payload, _ = run_json(
            capsys, "bound", "x1^4 + x2^4", "--n", "2", "--r", "4", "--theorem", "general"
        )
        assert code == 0
        theorems = [c["theorem"] for c in payload["certificates"]]
        assert theorems == ["general", "general_coefficient_range"]

    def test_contradicted_exact_range_exit_code(self, capsys):
        # min f = 1/2 on the simplex, and the order-3 grid value 5/9 refutes 5
        code, out, err = run(
            capsys, "bound", "x1^2 + x2^2", "--n", "2", "--r", "3",
            "--theorem", "quad", "--range", "5,7", "--json",
        )
        assert code == 3 and out == "" and "refuted" in err

    def test_constant_polynomial(self, capsys):
        code, payload, _ = run_json(capsys, "bound", "5", "--n", "2", "--r", "3")
        assert code == 0
        cert = payload["certificates"][0]
        assert cert["range"]["lower"] == cert["range"]["upper"] == cert["grid_value"] == "5/1"
        assert cert["gap"] == "0/1" and cert["satisfied"] is True

    def test_text_prints_the_ratio_of_an_exact_range(self, capsys):
        code, out, _ = run(capsys, "bound", "x1^2 + x2^2", "--n", "2", "--r", "3", "--range", "1/2,1")
        assert code == 0 and "ratio:       1/9 (0.111111)" in out.splitlines()

    def test_text_separates_two_certificates_by_one_blank_line(self, capsys):
        code, out, _ = run(capsys, "bound", "x1^4 + x2^4", "--n", "2", "--r", "3")
        first, second = out.split("\n\n")
        assert code == 0 and first.startswith("theorem:     general\n")
        assert second.startswith("theorem:     general_coefficient_range\n") and second.endswith("True\n")

    def test_inapplicable_theorem_exit_code(self, capsys):
        code, _, err = run(
            capsys, "bound", "x1^3 + x2^3", "--n", "2", "--r", "3", "--theorem", "quad"
        )
        assert code == 3 and "degree" in err


class TestPtas:
    def test_example(self, capsys):
        code, payload, _ = run_json(
            capsys, "ptas", "x1^2 + x2^2", "--n", "2", "--epsilon", "1/3"
        )
        assert code == 0
        assert payload["theorem"] == "quadratic"
        assert payload["r"] == 3
        assert payload["value"] == "5/9"
        assert payload["point"]["alpha"] == [1, 2]

    def test_squarefree_example(self, capsys):
        code, payload, _ = run_json(
            capsys, "ptas", " -x1*x2", "--n", "2", "--epsilon", "1/2"
        )
        assert code == 0
        assert payload["theorem"] == "squarefree"
        assert payload["value"] == "-1/4"

    def test_epsilon_validation(self, capsys):
        code, _, err = run(capsys, "ptas", "x1^2", "--n", "1", "--epsilon", "2")
        assert code == 3

    def test_epsilon_parse_error(self, capsys):
        code, _, err = run(capsys, "ptas", "x1^2", "--n", "1", "--epsilon", "a/b")
        assert code == 2

    def test_accuracy_demanding_an_oversized_grid_exits_three(self, capsys):
        # 1/r <= 10^-9 needs the order-10^9 grid: refused before the scan
        code, out, err = run(capsys, "ptas", "x1^2 + x2^2", "--n", "2", "--epsilon", "1/1000000000")
        assert code == 3 and out == "" and "points" in err


class TestMoments:
    def test_example(self, capsys):
        code, payload, _ = run_json(
            capsys, "moments", "--n", "2", "--r", "3", "--beta", "2,0", "--x", "1/3,2/3"
        )
        assert code == 0
        assert payload["direct"] == payload["stirling"] == "5/3"
        assert payload["equal"] is True

    def test_text_names_both_routes(self, capsys):
        code, out, _ = run(capsys, "moments", "--n", "2", "--r", "3", "--beta", "2,0", "--x", "1/3,2/3")
        assert code == 0
        assert out.splitlines()[1:] == ["binomial chain:     5/3 (1.66667)", "Stirling form:      5/3 (1.66667)", "routes agree exactly"]

    def test_off_simplex_rejected(self, capsys):
        code, _, err = run(
            capsys, "moments", "--n", "2", "--r", "3", "--beta", "1,0", "--x", "1/3,1/3"
        )
        assert code == 3 and "simplex" in err

    @pytest.mark.parametrize("x, shown", [("1,1", "1, 1"), ("3/2,-1/2", "3/2, -1/2")])
    def test_off_simplex_names_the_point(self, capsys, x, shown):
        code, out, err = run(capsys, "moments", "--n", "2", "--r", "3", "--beta", "1,0", "--x", x)
        assert code == 3 and out == ""
        assert err == f"error: point ({shown}) is not on the standard simplex\n"

    def test_no_variables_rejected(self, capsys):
        code, out, err = run(capsys, "moments", "--n", "0", "--r", "2", "--beta", "1", "--x", "1")
        assert (code, out, err) == (3, "", "error: dimension must be >= 1, got 0\n")


class TestStableSet:
    def test_five_cycle(self, capsys, tmp_path):
        lines = ["p 5 5"] + [f"e {i + 1} {(i + 1) % 5 + 1}" for i in range(5)]
        graph = tmp_path / "c5.dimacs"
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, payload, _ = run_json(capsys, "stable-set", str(graph), "--r", "2", "--brute")
        assert code == 0
        assert payload["grid_value"] == "1/2"
        assert payload["alpha_lower"] == 2
        assert payload["alpha_exact"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "stable-set", "no-such-file.dimacs", "--r", "2")
        assert code == 2

    def test_bad_graph(self, capsys, tmp_path):
        graph = tmp_path / "bad.dimacs"
        graph.write_text("p 2 1\ne 1 3\n", encoding="utf-8")
        code, _, err = run(capsys, "stable-set", str(graph), "--r", "2")
        assert code == 2 and "out of range" in err

    def test_header_number_too_long_for_int(self, capsys, tmp_path):
        graph = tmp_path / "huge.dimacs"
        graph.write_text("p 1" + "0" * 5000 + " 0\n", encoding="utf-8")
        code, _, err = run(capsys, "stable-set", str(graph), "--r", "2")
        assert code == 2 and "unreadable number" in err

    @pytest.mark.parametrize("header", ["p 1" + "0" * 100 + " 0", "p 200000 0", "p 1001 0"])
    def test_vertex_count_above_cap(self, capsys, tmp_path, header):
        graph = tmp_path / "wide.dimacs"
        graph.write_text(header + "\n", encoding="utf-8")
        code, _, err = run(capsys, "stable-set", str(graph), "--r", "2")
        assert code == 2 and "terms times variables" in err

    def test_complete_graph_on_200_vertices_is_refused_at_once(self, capsys, tmp_path):
        # its stable-set form has 200 + 19,900 terms of 200 entries each
        edges = [f"e {i} {j}" for i in range(1, 201) for j in range(i + 1, 201)]
        graph = tmp_path / "k200.dimacs"
        graph.write_text("\n".join([f"p 200 {len(edges)}", *edges]) + "\n", encoding="utf-8")
        start = perf_counter()
        code, out, err = run(capsys, "stable-set", str(graph), "--r", "2")
        assert code == 2 and out == "" and "terms times variables" in err
        assert perf_counter() - start < 1.0

    def test_brute_search_is_refused_before_the_scan(self, capsys, tmp_path, monkeypatch):
        import simplexopt.bounds as bounds_module

        scans, grid_minimize = [], bounds_module.grid_minimize

        def spy(*args):
            scans.append(args)
            return grid_minimize(*args)

        monkeypatch.setattr(bounds_module, "grid_minimize", spy)
        graph = tmp_path / "path21.dimacs"
        graph.write_text("p 21 20\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 21)), encoding="utf-8")
        start = perf_counter()
        code, out, err = run(capsys, "stable-set", str(graph), "--r", "2", "--brute")
        assert code == 3 and out == "" and "at most 20 vertices" in err
        assert perf_counter() - start < 1.0 and scans == []
        assert run(capsys, "stable-set", str(graph), "--r", "2")[0] == 0 and len(scans) == 1

    def test_graph_file_that_is_not_utf8(self, capsys, tmp_path):
        graph = tmp_path / "latin1.dimacs"
        graph.write_bytes(b"p 2 1\ne 1 2\n\xff\n")
        code, _, err = run(capsys, "stable-set", str(graph), "--r", "2")
        assert code == 2 and str(graph) in err

    def test_edge_field_with_non_ascii_digit(self, capsys, tmp_path):
        graph = tmp_path / "superscript.dimacs"
        graph.write_text("p 2 1\ne 1 ²\n", encoding="utf-8")
        code, _, err = run(capsys, "stable-set", str(graph), "--r", "2")
        assert code == 2 and "unreadable vertex number" in err


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv, graph, fragment",
        [
            (["moments", "--n", "2", "--r", "3", "--beta", "1,a", "--x", "1/3,2/3"], None, "cannot parse moment order"),
            (["bound", "x1^2 + x2^2", "--n", "2", "--r", "3", "--range", "1,2,3"], None, "--range expects 'L,U'"),
            (["grid-min", "x1^", "--n", "2", "--r", "2"], None, "expected positive exponent"),
            (["grid-min", "2/", "--n", "2", "--r", "2"], None, "expected positive denominator"),
            (["grid-min", "x", "--n", "2", "--r", "2"], None, "expected variable index"),
            (["stable-set", "{graph}", "--r", "2"], "p 2 1\np 2 1\ne 1 2\n", "duplicate 'p' header"),
            (["stable-set", "{graph}", "--r", "2"], "p 0 0\n", "at least one vertex"),
            (["stable-set", "{graph}", "--r", "2"], "p x y\n", "header must read"),
            (["stable-set", "{graph}", "--r", "2"], "p 2 1\ne 1\n", "edge line must read"),
        ],
    )
    def test_exits_two(self, capsys, tmp_path, argv, graph, fragment):
        if graph is not None:
            (tmp_path / "g.dimacs").write_text(graph, encoding="utf-8")
        code, out, err = run(capsys, *[str(tmp_path / "g.dimacs") if a == "{graph}" else a for a in argv])
        assert code == 2 and out == "" and fragment in err


class TestTextMode:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["bound", "x1^2 + x2^2", "--n", "2", "--r", "4"], "satisfied:"),
            (["ptas", EXAMPLE_QUADRATIC, "--n", "2", "--epsilon", "1/7"], "grid order r:"),
            (["moments", "--n", "2", "--r", "3", "--beta", "2,0", "--x", "1/3,2/3"], "routes agree exactly"),
            (["stable-set", "{graph}", "--r", "2", "--brute"], "stable-set number (brute force):"),
            (["selftest"], "ok "),
            (["bernstein", "x1^3 + x2^3", "--n", "2", "--r", "3", "--eval", "1/3,2/3"], "value at ("),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_prints_its_key_line(self, capsys, tmp_path, argv, key):
        graph = tmp_path / "c5.dimacs"
        graph.write_text("p 5 5\n" + "".join(f"e {i + 1} {(i + 1) % 5 + 1}\n" for i in range(5)), encoding="utf-8")
        code, out, _ = run(capsys, *[str(graph) if a == "{graph}" else a for a in argv])
        assert code == 0 and key in out

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["moments", "--n", "1", "--r", "1000000", "--beta", "200", "--x", "1"], "/1 (1e+1200)"),
            (["grid-min", f"{10**400}*x1^2 + x2^2", "--n", "2", "--r", "1", "--max"], "/1 (1e+400)"),
            (["grid-min", f" -{2 * 10**400}/3*x1", "--n", "1", "--r", "1"], "/3 (-6.66667e+399)"),
            (["grid-min", f"1/{10**400}*x1", "--n", "1", "--r", "1"], " (1e-400)"),
            (["bound", f"{10**400}*x1^2 + x2^2", "--n", "2", "--r", "2"], "/1 (1e+400)"),
            (["bernstein", f"{10**400}*x1^2 + x2^2", "--n", "2", "--r", "2"], "/2 (5e+399)"),
            (["grid-min", EXAMPLE_QUADRATIC, "--n", "2", "--r", "2"], "-1/2 (-0.5)"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_values_beyond_float_range_print_with_their_exponent(self, capsys, argv, shown):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and shown in out


class TestSelftest:
    def test_passes(self, capsys):
        code, payload, _ = run_json(capsys, "selftest")
        assert code == 0
        assert payload["passed"] is True
        assert all(check["passed"] for check in payload["checks"])

    def test_a_failed_check_exits_four_in_both_modes(self, capsys, monkeypatch):
        import simplexopt.selftest as selftest_module
        from simplexopt.selftest import CheckResult

        failed = CheckResult("surjection count", False, ["S(3,2) = 3 but 4"])
        monkeypatch.setattr(selftest_module, "check_surjections", lambda *args: failed)
        code, out, _ = run(capsys, "selftest")
        assert code == 4 and "FAIL surjection count: S(3,2) = 3 but 4" in out.splitlines()
        code, payload, _ = run_json(capsys, "selftest")
        assert code == 4 and payload["passed"] is False
        assert {"name": "surjection count", "passed": False, "detail": "S(3,2) = 3 but 4"} in payload["checks"]


def _collect_rational_strings(node, found):
    if isinstance(node, dict):
        for value in node.values():
            _collect_rational_strings(value, found)
    elif isinstance(node, list):
        for value in node:
            _collect_rational_strings(value, found)
    elif isinstance(node, str) and "/" in node and node.lstrip("-").replace("/", "").isdigit():
        found.append(node)


class TestJsonContracts:
    def test_every_emitted_rational_reparses(self, capsys):
        invocations = [
            ("grid-min", EXAMPLE_QUADRATIC, "--n", "2", "--r", "5"),
            ("bernstein", "x1^3 + x2^3", "--n", "2", "--r", "3", "--eval", "1/3,2/3"),
            ("bound", "x1^2 + x2^2", "--n", "2", "--r", "4"),
            ("ptas", EXAMPLE_QUADRATIC, "--n", "2", "--epsilon", "1/7"),
            ("moments", "--n", "2", "--r", "4", "--beta", "2,1", "--x", "2/5,3/5"),
        ]
        for argv in invocations:
            code, payload, _ = run_json(capsys, *argv)
            assert code == 0
            rationals = []
            _collect_rational_strings(payload, rationals)
            assert rationals, f"no rationals found for {argv[0]}"
            for text in rationals:
                value = Fraction(text)
                assert f"{value.numerator}/{value.denominator}" == text

    def test_auto_route_output_is_byte_stable(self, capsys):
        args = ("bernstein", EXAMPLE_QUADRATIC, "--n", "2", "--r", "4", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestArgErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid-min", "x1^2", "--n", "1", "--r", "2", "--frobnicate"])
        assert exc.value.code == 2

    def test_threads_flag_exits_two(self, capsys):
        # scans run in one thread; there is no --threads option
        with pytest.raises(SystemExit) as exc:
            main(["grid-min", "x1^2", "--n", "1", "--r", "2", "--threads", "3"])
        assert exc.value.code == 2


class TestLimits:
    @pytest.mark.parametrize(
        "argv, code, fragment",
        [
            (["grid-min", "x1^2", "--n", "100000000", "--r", "2", "--json"], 2, "terms times variables"),
            (["grid-min", "x1^100000000 + x2^100000000", "--n", "2", "--r", "2"], 2, "term degree"),
            (["bound", "x1^100000000 + x2^100000000", "--n", "2", "--r", "2"], 2, "term degree"),
            (["moments", "--n", "6", "--r", "3", "--beta", "30,30,30,30,30,30", "--x", ",".join(["1/6"] * 6)], 3, "Stirling"),
            (["bernstein", "x1^40*x2^40*x3^40*x4^40*x5^40", "--n", "5", "--r", "3", "--route", "closed"], 3, "Stirling"),
            (["moments", "--n", "2", "--r", "3", "--beta", "1000000000,0", "--x", "1/3,2/3"], 3, "moment order"),
            (["ptas", "x1^100 + x2^100", "--n", "2", "--epsilon", "1/2"], 3, "points"),
            (["bernstein", "x1^2 + x2^2", "--n", "200", "--r", "200", "--route", "def", "--json"], 3, "points"),
            (["moments", "--n", "30", "--r", "30", "--beta", ",".join(["1"] + ["0"] * 29), "--x", ",".join(["1/30"] * 30)], 3, "points"),
            (["grid-min", "x1^200 + x2^200", "--n", "2", "--r", "100000"], 3, "points"),
            (["bernstein", "x1^10*x2^10*x3^10*x4^10*x5^10 + x1^9*x2^11*x3^10*x4^10*x5^10", "--n", "5", "--r", "3", "--route", "closed"], 3, "Stirling"),
            (["grid-min", "x1", "--n", "300000", "--r", "1", "--json"], 3, "entries"),
            (["grid-min", "x1", "--n", "1000000", "--r", "1", "--json"], 3, "entries"),
            (["bernstein", "x1^5*x2^10*x3^10", "--n", "5000", "--r", "3", "--route", "closed", "--json"], 3, "Stirling"),
            (["bernstein", "1", "--n", "8000", "--r", "1", "--route", "def", "--json"], 3, "entries"),
        ],
    )
    def test_limit_is_refused_at_once(self, capsys, argv, code, fragment):
        start = perf_counter()
        got, out, err = run(capsys, *argv)
        assert got == code and out == "" and fragment in err
        assert perf_counter() - start < 1.0

    def test_seed_belongs_to_randomized_commands_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid-min", "x1^2", "--n", "1", "--r", "2", "--seed", "1"])
        assert exc.value.code == 2
        code, _, _ = run(capsys, "bernstein", "x1^2 + x2^2", "--n", "2", "--r", "3", "--seed", "7")
        assert code == 0


class TestInternalInvariantSurfaces:
    def test_moment_mismatch_exits_four(self, capsys, monkeypatch):
        import simplexopt.cli as cli_module

        monkeypatch.setattr(cli_module, "moment_stirling", lambda *a, **k: Fraction(999))
        code, _, err = run(
            capsys, "moments", "--n", "2", "--r", "2", "--beta", "1,0", "--x", "1/2,1/2"
        )
        assert code == 4 and "mismatch" in err

    def test_route_disagreement_exits_four(self, capsys, monkeypatch):
        import simplexopt.cli as cli_module
        from simplexopt import GeneralPolynomial
        from simplexopt.bernstein import BernsteinResult

        def broken_closed_form(f, r):
            return BernsteinResult(homogeneous=None, reduced=GeneralPolynomial(f.n, {(0,) * f.n: Fraction(1234)}))

        monkeypatch.setattr(cli_module, "bernstein_closed_form", broken_closed_form)
        code, _, err = run(capsys, "bernstein", "x1^2 + x2^2", "--n", "2", "--r", "3")
        assert code == 4 and "disagreement" in err


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(GOLDEN["cases"])]
)
def test_json_output_matches_golden_capture(capsys, tmp_path, case):
    # a fixed command set whose --json stdout was captured before the theorem
    # table and the removal of --threads; every byte must stay the same
    graph = tmp_path / "graph.txt"
    graph.write_text(GOLDEN["graph"])
    argv = [str(graph) if a == "{graph}" else a for a in case["argv"]]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == case["stdout"]


TEXT_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_text_golden.json").read_text())


@pytest.mark.parametrize(
    "case", TEXT_GOLDEN["cases"], ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(TEXT_GOLDEN["cases"])]
)
def test_text_output_matches_golden_capture(capsys, tmp_path, case):
    # the text stdout of a fixed command set, captured before the handlers
    # returned their lines to main; grid-min's wall time varies, so that
    # line is dropped, and every other byte must stay the same
    graph = tmp_path / "graph.txt"
    graph.write_text(TEXT_GOLDEN["graph"])
    argv = [str(graph) if a == "{graph}" else a for a in case["argv"]]
    code, out, _ = run(capsys, *argv)
    kept = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("wall time:"))
    assert code == 0 and kept == case["stdout"]
