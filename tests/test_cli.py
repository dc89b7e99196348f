"""The command-line front end: output shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diffalg
from diffalg.cli import main
import diffalg.cli
from diffalg.sysfile import MAX_NESTING, MAX_POWER_COEFF_BITS, MAX_POWER_T_DEGREE, MAX_POWER_TERMS

from strategies import FLAGSHIP, FLAGSHIP_COMPONENT_2

CUSP = """\
field: Q
vars: x, y
ranking: elim x > y
eq g1 = y^2 - x^3
eq g2 = x'
point origin: x = 0, y = 0
"""

QT_PAIR = """\
field: Q(t)
vars: x, y
ranking: elim x > y
eq f = x' + y'''
eq g = x^2 + y''*x' + t
"""

# orders 2^60 and 2^60 + 3 are equal as doubles
HUGE_ORDERS = """\
field: Q
vars: x, y
ranking: elim x > y
eq u1 = x^(1152921504606846976) + y^(1152921504606846979)
eq u2 = x^(1152921504606846979) + y^(1152921504606846976)
"""


# structurally singular: y occurs nowhere, so the strong Jacobi number is -inf
SINGULAR = """\
field: Q
vars: x, y
ranking: elim x > y
eq u1 = x' + x
eq u2 = x'^2 + x
"""


@pytest.fixture
def flagship(tmp_path):
    p = tmp_path / "flagship.sys"
    p.write_text(FLAGSHIP)
    return str(p)


@pytest.fixture
def cusp(tmp_path):
    p = tmp_path / "cusp.sys"
    p.write_text(CUSP)
    return str(p)


@pytest.fixture
def singular(tmp_path):
    p = tmp_path / "singular.sys"
    p.write_text(SINGULAR)
    return str(p)


class TestOrderAndJacobi:
    def test_order(self, flagship, capsys):
        assert main(["order", flagship]) == 0
        out = capsys.readouterr().out
        assert "order matrix (maxplus):" in out
        assert "[2  0]" in out

    def test_jacobi(self, flagship, capsys):
        assert main(["jacobi", flagship]) == 0
        out = capsys.readouterr().out
        assert "jacobi number: 2" in out
        assert "witness: x <- u1, y <- u2" in out
        assert "ritt bound: 2" in out

    def test_jacobi_orders_beyond_double_precision(self, tmp_path, capsys):
        p = tmp_path / "huge.sys"
        p.write_text(HUGE_ORDERS)
        assert main(["jacobi", str(p)]) == 0
        out = capsys.readouterr().out
        assert "jacobi number: 2305843009213693958" in out
        assert "witness: x <- u2, y <- u1" in out

    def test_jacobi_minusinf_skips_ritt_bound(self, flagship, capsys):
        assert main(["jacobi", flagship, "--convention", "minusinf"]) == 0
        out = capsys.readouterr().out
        assert "ritt bound" not in out

    def test_jacobi_minusinf_without_admissible_assignment(self, singular, capsys):
        assert main(["jacobi", singular, "--convention", "minusinf"]) == 0
        assert capsys.readouterr().out == (
            "order matrix (minusinf):\n"
            "[   1  -inf]\n"
            "[   1  -inf]\n"
            "jacobi number: -inf\n"
            "witness: (no admissible assignment)\n"
        )


class TestReduce:
    def test_reduce_over_qt(self, tmp_path, capsys):
        p = tmp_path / "pair.sys"
        p.write_text(QT_PAIR)
        assert main(["reduce", str(p), "--target", "f"]) == 0
        out = capsys.readouterr().out
        assert "multiplier: y''" in out
        assert "remainder: y''*y''' - x^2 - t" in out
        assert "verified: yes" in out

    def test_missing_target_is_domain_error(self, flagship, capsys):
        assert main(["reduce", flagship, "--target", "nope"]) == 3
        assert capsys.readouterr().err == "diffalg: no equation named 'nope'\n"

    def test_divisors_in_any_order(self, tmp_path, capsys):
        # x + y and y^2 are pairwise reduced: autoreduced in the file's order
        p = tmp_path / "order.sys"
        p.write_text(
            "field: Q\nvars: x, y\nranking: elim x > y\n"
            "eq f = x*y\neq a = x + y\neq b = y^2\n"
        )
        assert main(["reduce", str(p), "--target", "f"]) == 0
        out = capsys.readouterr().out
        assert "remainder: 0\n" in out
        assert "verified: yes" in out

    def test_swelling_division_stops_at_the_term_cap(self, tmp_path, capsys):
        # a draw of scripts/random_audit.py --seed 0 that used to run 31
        # steps into a 10,877-term remainder
        p = tmp_path / "swell.sys"
        p.write_text(
            "field: Q\nvars: x, y, z\nranking: elim z > y > x\n"
            "eq f = -3*x''^2*x'''^3 + y'''*z'''^3 + 2/3*x'^2\n"
            "eq g = 1/2*x'^3*z^2 + 4*x^3*y'''^2 - 2*y'\n"
        )
        assert main(["reduce", str(p), "--target", "f"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the cap MAX_REDUCTION_TERMS = 10000" in captured.err


class TestLinearize:
    def test_symbolic(self, flagship, capsys):
        assert main(["linearize", flagship]) == 0
        out = capsys.readouterr().out
        assert "L[u1] = dy + dx''" in out

    def test_at_point(self, cusp, capsys):
        assert main(["linearize", cusp, "--at", "origin", "--convention", "minusinf"]) == 0
        out = capsys.readouterr().out
        assert "L[g1, origin] = 0" in out
        assert "L[g2, origin] = dx'" in out
        assert "linearized jacobi number: -inf" in out
        assert "original jacobi number: 1" in out

    def test_generic_point_of_a_component(self, flagship, tmp_path, capsys):
        comp = tmp_path / "component2.txt"
        comp.write_text(FLAGSHIP_COMPONENT_2)
        assert main(["linearize", flagship, "--generic", str(comp)]) == 0
        assert capsys.readouterr().out == (
            "L[u1, generic] = dy + dx''\n"
            "L[u2, generic] = dy + dx'\n"
            "linearized order matrix (maxplus):\n"
            "[2  0]\n"
            "[1  0]\n"
            "linearized jacobi number: 2\n"
            "original jacobi number: 2\n"
            "note: support decided modulo an unverified-prime component\n"
        )

    def test_missing_point_is_domain_error(self, flagship, capsys):
        assert main(["linearize", flagship, "--at", "q"]) == 3
        assert capsys.readouterr().err == "diffalg: no point named 'q'\n"

    def test_point_off_zero_set(self, tmp_path, capsys):
        p = tmp_path / "off.sys"
        p.write_text(
            "field: Q\nvars: x, y\nranking: elim x > y\n"
            "eq g1 = y^2 - x^3\neq g2 = y\npoint p1: x = 1, y = 2\n"
        )
        assert main(["linearize", str(p), "--at", "p1"]) == 3
        assert capsys.readouterr().err == "diffalg: point is not a zero: value 3\n"

    @pytest.mark.parametrize("field", ["Q", "Q(t)"])
    def test_point_off_zero_set_with_a_huge_value(self, field, tmp_path, capsys):
        # (3/2)^16000 - 1 has a 25,360-bit numerator, past the 4,300 digits
        # Python converts to text, so the message gives its size
        p = tmp_path / "huge.sys"
        p.write_text(f"field: {field}\nvars: x\nranking: elim x\neq u = x^16000 - 1\npoint q: x = 3/2\n")
        assert main(["linearize", str(p), "--at", "q"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "diffalg: point is not a zero: value of 25360 bits\n"


class TestDecompose:
    def test_flagship(self, flagship, capsys):
        assert main(["decompose", flagship]) == 0
        out = capsys.readouterr().out
        assert "charset: y; x'" in out
        assert "charset: y^3 + 1/4*y'^2; x'*y - 1/2*y'" in out
        assert "# complete: yes" in out

    def test_budget_exhaustion_exits_nonzero(self, flagship, capsys, monkeypatch):
        monkeypatch.setattr(diffalg.decompose, "MAX_SPLIT_STEPS", 1)
        assert main(["decompose", flagship]) == 1
        assert "# complete: no" in capsys.readouterr().out

    def test_coefficient_cap_ends_incomplete(self, flagship, tmp_path, capsys, monkeypatch):
        # remainders of this system grow to some 24,600-bit coefficients;
        # past MAX_COEFF_BITS the node is dropped and the decomposition says
        # it is incomplete, where rendering them for the sort used to fail
        # on Python's 4,300-digit limit for integer string conversion
        p = tmp_path / "swelling.sys"
        p.write_text(
            "field: Q\nvars: x, y\nranking: elim x > y\n"
            "eq u1 = -8*x'*y' + 2*x*x' + 3\neq u2 = -7/4*x*y' - x' + 2\n"
        )
        assert main(["decompose", str(p)]) == 1
        captured = capsys.readouterr()
        assert "# complete: no" in captured.out
        assert "digits" not in captured.err
        # the flagship's remainders carry 1/4: three bits
        monkeypatch.setattr(diffalg.decompose, "MAX_COEFF_BITS", 2)
        assert main(["decompose", flagship]) == 1
        assert "# complete: no" in capsys.readouterr().out

    def test_budget_flags_are_usage_errors(self, flagship, capsys):
        # the budget is a constant, not an option
        for command in ("decompose", "jbc-check"):
            for flag in ("--max-steps", "--max-components"):
                with pytest.raises(SystemExit) as exc:
                    main([command, flagship, flag, "1"])
                assert exc.value.code == 2
                assert flag in capsys.readouterr().err

    def test_system_file_with_a_component_block_is_refused(self, tmp_path, capsys):
        # components come only from a component file (jbc-check --components)
        p = tmp_path / "with_block.sys"
        p.write_text(FLAGSHIP + "\ncharset: y; x'\nineqs: (none)\nprime: no\n")
        line = len(FLAGSHIP.splitlines()) + 2
        for command in ("decompose", "jbc-check"):
            assert main([command, str(p)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"line {line}: cannot understand \"charset: y; x'\"" in captured.err

    def test_output_feeds_jbc_check(self, flagship, tmp_path, capsys):
        main(["decompose", flagship])
        comp_file = tmp_path / "comps.txt"
        comp_file.write_text(capsys.readouterr().out)
        # supplied components are re-verified, but nothing shows they cover the zero set
        assert main(["jbc-check", flagship, "--components", str(comp_file)]) == 1
        out = capsys.readouterr().out
        assert "decomposition: 2 component(s) (INCOMPLETE)" in out
        assert "verdict: INCONCLUSIVE" in out

    def test_partial_component_file_never_holds(self, flagship, tmp_path, capsys):
        # the first of the two blocks decompose prints
        comp_file = tmp_path / "one.txt"
        comp_file.write_text("ranking: elim x > y\ncharset: y; x'\nineqs: (none)\nprime: no\n")
        for extra in ([], ["--json"]):
            assert main(["jbc-check", flagship, "--components", str(comp_file)] + extra) == 1
            out = capsys.readouterr().out
            assert "HOLDS" not in out
        assert json.loads(out)["complete"] is False
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"


class TestJbcCheck:
    def test_holds(self, flagship, capsys):
        assert main(["jbc-check", flagship]) == 0
        out = capsys.readouterr().out
        assert "verdict: HOLDS" in out
        assert "dim <= J: yes (equality)" in out

    def test_json(self, flagship, capsys):
        assert main(["jbc-check", flagship, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "HOLDS"
        assert data["system"]["jacobi_weak"] == 2

    def test_inconclusive_exits_one(self, flagship, capsys, monkeypatch):
        monkeypatch.setattr(diffalg.decompose, "MAX_SPLIT_STEPS", 1)
        assert main(["jbc-check", flagship]) == 1
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_empty_decomposition_names_the_equation_count(self, tmp_path, capsys):
        p = tmp_path / "empty.sys"
        p.write_text("field: Q\nvars: x, y\nranking: elim x > y\neq u1 = x' + y\neq u2 = x' + y + 1\n")
        assert main(["jbc-check", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("system: 2 equations over x, y  [field Q]\n")
        assert "decomposition: 0 component(s) (complete)" in out

    def test_term_cap_in_the_decomposition_is_inconclusive(self, flagship, capsys, monkeypatch):
        monkeypatch.setattr(diffalg.reduction, "MAX_REDUCTION_TERMS", 2)
        assert main(["jbc-check", flagship]) == 1
        out = capsys.readouterr().out
        assert "(INCOMPLETE)" in out and "verdict: INCONCLUSIVE" in out

    def test_non_square_is_domain_error(self, tmp_path, capsys):
        p = tmp_path / "rect.sys"
        p.write_text("field: Q\nvars: x, y\nranking: elim x > y\neq u = x\n")
        assert main(["jbc-check", str(p)]) == 3

    def test_strong_number_minus_infinity(self, singular, capsys):
        assert main(["jbc-check", singular]) == 0
        assert capsys.readouterr().out == (
            "system: 2 equations over x, y  [field Q]\n"
            "jacobi weak (maxplus): 1  witness sigma = (0, 1)\n"
            "jacobi strong (minusinf): -inf  (no admissible assignment)\n"
            "decomposition: 1 component(s) (complete)\n"
            "component 1:\n"
            "  charset: x\n"
            "  ineqs: (none)\n"
            "  prime: no\n"
            "  dimension: infinite\n"
            "  membership: eq1 -> member (heuristic) [cert-1]; eq2 -> member (heuristic) [cert-2]\n"
            "  dim <= J: not applicable (infinite dimension)\n"
            "verdict: HOLDS (heuristic)\n"
            "certificates:\n"
            "  cert-1: multiplier = 1; remainder = 0\n"
            "  cert-2: multiplier = 1; remainder = 0\n"
        )
        assert main(["jbc-check", singular, "--json"]) == 0
        out = capsys.readouterr().out
        assert '"jacobi_strong": "-inf",\n' in out
        assert json.loads(out)["system"] == {
            "field": "Q",
            "jacobi_strong": "-inf",
            "jacobi_strong_witness": None,
            "jacobi_weak": 1,
            "jacobi_weak_witness": [0, 1],
            "variables": ["x", "y"],
        }


class TestMembership:
    def test_member(self, tmp_path, capsys):
        p = tmp_path / "sq.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq g1 = x^2\n")
        assert main(["member", str(p), "x'^3", "--bounds", "2,3,6,6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Member (e = 1)")

    def test_not_proven_member(self, tmp_path, capsys):
        p = tmp_path / "sq.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq g1 = x^2\n")
        assert main(["member", str(p), "x"]) == 1
        assert "Inconclusive" in capsys.readouterr().out

    def test_radical(self, cusp, capsys):
        assert main(["radical-member", cusp, "y'"]) == 0
        assert "(e = 3)" in capsys.readouterr().out

    def test_individual_bound_flags(self, tmp_path, capsys):
        # --bounds is the one way to set the truncation bounds
        p = tmp_path / "sq.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq g1 = x^2\n")
        for flag in ("--jets", "--prolong", "--deg", "--power"):
            with pytest.raises(SystemExit) as exc:
                main(["member", str(p), "x'^3", flag, "2"])
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["member", str(p), "x'^3", "--bounds", "2,3,6,6"]) == 0
        assert capsys.readouterr().out.startswith("Member (e = 1)")

    def test_negative_bound_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "sq.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq g1 = x^2\n")
        for flag in ("--bounds=-1,3,6,6", "--bounds=2,3,6,-1"):
            assert main(["member", str(p), "x'^3", flag]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--bounds" in captured.err

    def test_empty_bounds_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "sq.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq g1 = x^2\n")
        assert main(["member", str(p), "x'^3", "--bounds="]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--bounds" in captured.err

    def test_bad_expression_is_format_error(self, cusp, capsys):
        assert main(["member", cusp, "y +"]) == 2

    def test_radical_names_the_degree_bound_stop(self, cusp, capsys):
        assert main(["radical-member", cusp, "--bounds", "1,1,4,6", "--", "x*y + 1"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "Inconclusive (no power up to 2 found: the degree bound 4 stops the search "
            "at f^3 (degree 6) (last: search exhausted); bounds:"
        )


class TestErrorChannel:
    def test_missing_file(self, capsys):
        assert main(["jacobi", "no-such-file.sys"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq u = x +\n")
        assert main(["jacobi", str(p)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_point_naming_an_unknown_variable(self, tmp_path, capsys):
        p = tmp_path / "point.sys"
        p.write_text(FLAGSHIP.replace("y = 0", "z = 0"))
        assert main(["linearize", str(p), "--at", "p0"]) == 2
        assert capsys.readouterr().err == "diffalg: line 6: unknown variable 'z'\n"

    def test_power_over_the_expansion_cap(self, cusp, capsys):
        assert main(["member", cusp, "(x + y + 1)^100000"]) == 2
        err = capsys.readouterr().err
        assert "power ^100000 of a 3-term polynomial" in err
        assert f"cap of {MAX_POWER_TERMS} terms" in err

    def test_power_over_the_expansion_cap_in_a_system_file(self, tmp_path, capsys):
        p = tmp_path / "big.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq u = (x' + x + 1)^100000\n")
        assert main(["jacobi", str(p)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_power_over_the_size_caps(self, cusp, tmp_path, capsys):
        assert main(["member", cusp, "(2*x)^1000000000000000000"]) == 2
        assert f"cap of {MAX_POWER_COEFF_BITS} coefficient bits" in capsys.readouterr().err
        p = tmp_path / "tpow.sys"
        p.write_text(QT_PAIR.replace("+ t\n", "+ t^1000000000000000000\n"))
        assert main(["reduce", str(p), "--target", "f"]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and f"cap of {MAX_POWER_T_DEGREE} in t-degree" in err

    def test_over_long_integer_literal(self, cusp, tmp_path, capsys):
        long = "7" * 5000
        assert main(["member", cusp, "x + " + long]) == 2
        assert "integer literal of 5000 digits" in capsys.readouterr().err
        p = tmp_path / "long.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq u = x + " + long + "\n")
        assert main(["jacobi", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "integer literal of 5000 digits" in err

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 2000])
    def test_over_deep_nesting_is_a_parse_error(self, cusp, tmp_path, capsys, depth):
        deep = "(" * depth + "x" + ")" * depth
        at = f"parentheses nested deeper than {MAX_NESTING} (MAX_NESTING) (at position"
        assert main(["member", cusp, deep]) == 2
        assert capsys.readouterr().err.startswith(f"diffalg: expression: {at} {MAX_NESTING})")
        p = tmp_path / "deep_eq.sys"
        p.write_text(FLAGSHIP.replace("eq u1 = x''", f"eq u1 = {deep}''"))
        assert main(["order", str(p)]) == 2
        assert capsys.readouterr().err == f"diffalg: line 4: {at} {MAX_NESTING})\n"
        p = tmp_path / "deep_point.sys"
        p.write_text(FLAGSHIP.replace("x = 0", "x = " + deep.replace("x", "0")))
        assert main(["jbc-check", str(p)]) == 2
        assert capsys.readouterr().err == f"diffalg: line 6: {at} {MAX_NESTING})\n"

    def test_many_unary_minuses(self, cusp, tmp_path, capsys):
        assert main(["member", cusp, "--", "-" * 5000 + "x'"]) == 0
        capsys.readouterr()
        p = tmp_path / "minus.sys"
        p.write_text(FLAGSHIP.replace("x = 0", "x = " + "-" * 5001 + "0"))
        assert main(["linearize", str(p), "--at", "p0"]) == 0

    @pytest.mark.parametrize("value", ["y", "y*(7)^3000*(7)^3000*(7)^3000"])
    def test_nonconstant_point_value(self, tmp_path, capsys, value):
        # the second value's text has over 7,000 digits: the message must
        # not render it
        p = tmp_path / "nonconst.sys"
        p.write_text(FLAGSHIP.replace("x = 0", "x = " + value))
        start = time.perf_counter()
        assert main(["linearize", str(p), "--at", "p0"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "diffalg: line 6: the value of 'x' is not a constant\n"

    def test_point_variable_assigned_twice(self, tmp_path, capsys):
        p = tmp_path / "twice.sys"
        p.write_text(FLAGSHIP.replace("x = 0", "x = 1, x = 0"))
        assert main(["linearize", str(p), "--at", "p0"]) == 2
        assert capsys.readouterr().err == "diffalg: line 6: variable 'x' is assigned twice\n"

    def test_over_deep_nesting_prints_no_traceback(self, tmp_path):
        p = tmp_path / "deep.sys"
        p.write_text(FLAGSHIP.replace("eq u1 = x''", "eq u1 = " + "(" * 1000 + "x" + ")" * 1000))
        src = str(Path(diffalg.__file__).resolve().parents[1])
        code = "import sys; sys.path.insert(0, sys.argv[1]); from diffalg.cli import main; sys.exit(main(sys.argv[2:]))"
        run = subprocess.run([sys.executable, "-c", code, src, "order", str(p)], capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith("diffalg: line 4: parentheses nested deeper than")
        assert "Traceback" not in run.stderr

    def test_other_errors_are_not_domain_errors(self, flagship, monkeypatch):
        # a KeyError inside a command is a bug, not a domain error: it
        # propagates instead of exiting 3
        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr(diffalg.cli, "order_matrix", broken)
        with pytest.raises(KeyError):
            main(["order", flagship])

    def test_usage_error_exits_two(self, flagship):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", flagship])
        assert exc.value.code == 2


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, flagship, capsys):
        main(["jbc-check", flagship])
        first = capsys.readouterr().out
        main(["jbc-check", flagship])
        second = capsys.readouterr().out
        assert first == second


class TestParserReuse:
    def test_consecutive_calls_match_fresh_ones(self, flagship, cusp, capsys):
        # main keeps one parser per process; a call prints what it prints
        # with a parser built just for it, and a usage error in between
        # leaves nothing behind for the next call
        calls = [
            ["jacobi", flagship, "--convention", "minusinf"],
            ["member", cusp, "x'"],
            ["jbc-check", flagship, "--json"],
            ["jacobi", flagship],
        ]
        fresh = []
        for argv in calls:
            diffalg.cli._parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr().out))
        reused = []
        for argv in calls[:2]:
            reused.append((main(argv), capsys.readouterr().out))
        with pytest.raises(SystemExit) as exc:
            main(["jacobi", flagship, "--convention", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv in calls[2:]:
            reused.append((main(argv), capsys.readouterr().out))
        assert reused == fresh
        assert diffalg.cli._parser.cache_info().currsize == 1


class TestImport:
    def test_loads_no_numpy_or_scipy(self):
        src = str(Path(diffalg.__file__).resolve().parents[1])
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import diffalg.cli; "
            "print(json.dumps(list(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True).stdout
        loaded = {name.split(".")[0] for name in json.loads(out)}
        assert "diffalg" in loaded
        assert not loaded & {"numpy", "scipy"}
