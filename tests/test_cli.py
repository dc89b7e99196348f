"""The command-line front end: output shapes, exit codes, determinism."""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diffalg
from diffalg.cli import main
import diffalg.cli
from diffalg.reduction import MAX_COEFF_BITS, MAX_T_DEGREE, MAX_TERMS
from diffalg.sysfile import MAX_NESTING

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

    def test_cofactor_with_a_many_term_leading_coefficient(self, tmp_path, capsys):
        # the step clears x'^3 with the cofactor (t*y + y' - 1)*x', whose
        # leading coefficient has three terms over Q(t)
        p = tmp_path / "shift.sys"
        p.write_text(
            "field: Q(t)\nvars: x, y\nranking: elim x > y\n"
            "eq f = (t*y + y' - 1)*x'^3 + x*y\n"
            "eq g = y*x'^2 + t*x' - y'\n"
        )
        assert main(["reduce", str(p), "--target", "f"]) == 0
        assert capsys.readouterr().out == (
            "dividend: f = x'^3*y' + t*x'^3*y - x'^3 + x*y\n"
            "divisor: g = x'^2*y - y' + t*x'\n"
            "multiplier: y^2\n"
            "factors: y, y\n"
            "quotient[g]: (t*x'*y^2 + x'*y*y' - x'*y - t*y' - t^2*y + t)\n"
            "remainder: t*x'*y^2*y' + x'*y*y'^2 + x*y^3 - x'*y*y' - t*y'^2 - t^2*y*y' "
            "+ t^2*x'*y' + t^3*x'*y + t*y' - t^2*x'\n"
            "verified: yes\n"
        )

    def test_monic_linear_divisor_multiplies_by_one(self, tmp_path, capsys):
        # separant and initial of g are 1: every step's factor is 1, and the
        # certificate still lists each one
        p = tmp_path / "monic.sys"
        p.write_text(
            "field: Q\nvars: x, y\nranking: elim x > y\n"
            "eq f = x''*y + x'^2 - 3*x'*y'\n"
            "eq g = x' + y^2 - 2*y'\n"
        )
        assert main(["reduce", str(p), "--target", "f"]) == 0
        assert capsys.readouterr().out == (
            "dividend: f = x''*y + x'^2 - 3*x'*y'\n"
            "divisor: g = y^2 - 2*y' + x'\n"
            "multiplier: 1\n"
            "factors: 1, 1, 1\n"
            "quotient[g]: y*d + (-y^2 - y' + x')\n"
            "remainder: y^4 - 3*y^2*y' - 2*y'^2 + 2*y*y''\n"
            "verified: yes\n"
        )

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
        assert captured.err == (
            "diffalg: reduction stopped at step 31: the step passes the cap of 10000 terms (MAX_TERMS)\n"
        )


    def test_a_step_past_the_term_cap_stops_at_a_row(self, tmp_path, capsys, monkeypatch):
        # a 37 KB file: the cofactor of y'' has 990 terms and a' has 1,001,
        # so the one step of b's division would make some 990,000 terms in
        # 990,990 term pairs, within MAX_WORK.  It stops at the first row
        # (a term of the cofactor times a') that takes the map past
        # MAX_TERMS, and the map never holds more than that plus one row.
        terms = " + ".join(f"{k + 2}*x^({50 + k % 10})^{1 + k // 10}" for k in range(1000))
        pairs = [(i, j) for i in range(45) for j in range(i, 45)][:990]
        b = " + ".join(f"{i + j + 1}*x^({i})*x^({j})*y''" for i, j in pairs)
        p = tmp_path / "wide.sys"
        p.write_text(f"field: Q\nvars: y, x\nranking: elim y > x\neq a = y' + {terms}\neq b = {b}\n")
        sizes = []
        add = diffalg.reduction._add_product

        def row(acc, a, b):
            add(acc, a, b)
            sizes.append((len(acc), len(b)))
            return acc

        monkeypatch.setattr(diffalg.reduction, "_add_product", row)
        assert main(["reduce", str(p), "--target", "b"]) == 3
        assert capsys.readouterr() == (
            "",
            f"diffalg: reduction stopped at step 1: the step passes the cap of {MAX_TERMS} terms (MAX_TERMS)\n",
        )
        # the reader makes no product of this file; each row has the 1,001 terms of a'
        held, width = sizes[-1]
        assert width == 1001 and MAX_TERMS < held <= MAX_TERMS + width
        assert all(n <= MAX_TERMS for n, _ in sizes[:-1])

    def test_a_division_over_q_t_stops_at_the_degree_cap(self, tmp_path, capsys):
        # each step scales by the initial t^10 + 1: by step 101 the map's
        # coefficients have degree 1,010 in t, their integers still far
        # under MAX_COEFF_BITS
        xs = " + ".join(f"x^({i})*x^({j})" for i, j in [(i, j) for i in range(30) for j in range(i, 30)][:200])
        p = tmp_path / "tdeg.sys"
        p.write_text(f"field: Q(t)\nvars: y, x\nranking: elim y > x\neq a = (t^10 + 1)*y^2 + x\neq b = y^1000 + {xs}\n")
        assert main(["reduce", str(p), "--target", "b"]) == 3
        assert capsys.readouterr() == (
            "",
            "diffalg: reduction stopped at step 101: the step makes a coefficient of degree 1010 in t, "
            f"over the cap of {MAX_T_DEGREE} (MAX_T_DEGREE)\n",
        )

    @staticmethod
    def _power_of_y(tmp_path, e: int) -> str:
        # dividing y'^e by (x + z + w + v + s)*y' - 1 takes e steps of 11
        # term pairs, but its multiplier, the e-th power of the 5-term
        # initial, is C(e + 4, 4) terms
        p = tmp_path / "power.sys"
        p.write_text(
            "field: Q\nvars: y, x, z, w, v, s\nranking: elim y > x > z > w > v > s\n"
            f"eq a = (x + z + w + v + s)*y' - 1\neq b = y'^{e}\n"
        )
        assert len(p.read_text()) == 113 + len(str(e))
        return str(p)

    def test_a_certificate_past_the_budget_ends_at_exit_3(self, tmp_path, capsys):
        # the division makes 330 term pairs; its multiplier alone would make
        # 1,391,275, which once ran for 30.7 s at 315 MB before printing
        assert main(["reduce", self._power_of_y(tmp_path, 30), "--target", "b"]) == 3
        assert capsys.readouterr() == (
            "",
            "diffalg: building the certificate would bring the work to 1007205, "
            "over the budget MAX_WORK = 1000000\n",
        )

    def test_a_certificate_is_built_and_checked_within_the_budget(self, tmp_path, capsys, monkeypatch):
        # at y'^10, 25,129 units: 110 for the division, 10,005 for the
        # multiplier, 2,001 for the quotients and 13,013 for the check
        path = self._power_of_y(tmp_path, 10)
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 25_129)
        assert main(["reduce", path, "--target", "b"]) == 0
        assert capsys.readouterr().out.endswith("verified: yes\n")
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 25_128)
        assert main(["reduce", path, "--target", "b"]) == 3
        assert capsys.readouterr() == (
            "",
            "diffalg: checking the certificate would bring the work to 25129, "
            "over the budget MAX_WORK = 25128\n",
        )


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
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 1)
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
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", 2)
        assert main(["decompose", flagship]) == 1
        assert "# complete: no" in capsys.readouterr().out

    def test_order_cap_in_the_tree_ends_incomplete(self, tmp_path, capsys):
        # dividing y^(60) + x by y + x^(10) would derive x^(10) past
        # DEFAULT_ORDER_CAP: the node is dropped, as at a size cap
        p = tmp_path / "order.sys"
        p.write_text("field: Q\nvars: y, x\nranking: elim y > x\neq a = y + x^(10)\neq b = y^(60) + x\n")
        assert main(["decompose", str(p)]) == 1
        assert capsys.readouterr() == ("# no components found\n# complete: no\n", "")
        assert main(["jbc-check", str(p)]) == 1
        out = capsys.readouterr().out
        assert "(INCOMPLETE)" in out and "verdict: INCONCLUSIVE" in out

    def test_an_empty_zero_set_only_when_complete(self, tmp_path, capsys, monkeypatch):
        # x' + y and x' + y + 1 have no common zero; a tree out of work
        # before it finds that says only that it found no component
        p = tmp_path / "empty.sys"
        p.write_text("field: Q\nvars: x, y\nranking: elim x > y\neq u1 = x' + y\neq u2 = x' + y + 1\n")
        assert main(["decompose", str(p)]) == 0
        assert capsys.readouterr().out == "# no components (empty zero set)\n# complete: yes\n"
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 1)
        assert main(["decompose", str(p)]) == 1
        assert capsys.readouterr().out == "# no components found\n# complete: no\n"

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

    def test_declared_prime_is_refused(self, tmp_path, capsys):
        # the saturation of y^2, x'*y + 1 is the unit ideal, yet a block
        # that declared it prime made both memberships non-heuristic
        p = tmp_path / "unit.sys"
        p.write_text("field: Q\nvars: x, y\nranking: elim x > y\neq u1 = y^2\neq u2 = x'*y + 1\n")
        comp_file = tmp_path / "prime.txt"
        comp_file.write_text("ranking: elim x > y\ncharset: y^2; x'*y + 1\nineqs: (none)\nprime: yes\n")
        for extra in ([], ["--json"]):
            assert main(["jbc-check", str(p), "--components", str(comp_file)] + extra) == 2
            assert capsys.readouterr() == (
                "",
                "diffalg: line 4: 'prime: yes' is refused: no primality test confirms it; write 'prime: no'\n",
            )
        comp_file.write_text(comp_file.read_text().replace("prime: yes", "prime: no"))
        assert main(["jbc-check", str(p), "--components", str(comp_file)]) == 1
        out = capsys.readouterr().out
        assert "eq1 -> member (heuristic) [cert-1]; eq2 -> member (heuristic) [cert-2]" in out

    def test_repeated_component_key_is_refused(self, flagship, tmp_path, capsys):
        comp_file = tmp_path / "comp.txt"
        comp_file.write_text("charset: y; x'\ncharset: y\n")
        assert main(["jbc-check", flagship, "--components", str(comp_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "diffalg: line 2: duplicate 'charset:' line\n"

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
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 1)
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
        monkeypatch.setattr(diffalg.reduction, "MAX_TERMS", 2)
        assert main(["jbc-check", flagship]) == 1
        out = capsys.readouterr().out
        assert "(INCOMPLETE)" in out and "verdict: INCONCLUSIVE" in out

    def test_the_text_builds_the_multipliers_it_prints(self, tmp_path, capsys, monkeypatch):
        # dividing eq b by the component takes 171 units, and the multiplier
        # (x + 1)^10 that the text prints 110 more on the same meter; the
        # JSON prints no multiplier, so it builds none
        p, comp = tmp_path / "power.sys", tmp_path / "component.txt"
        p.write_text("field: Q\nvars: y, x\nranking: elim y > x\neq a = (x + 1)*y' - 1\neq b = y'^10 + x'\n")
        comp.write_text("charset: x'; (x + 1)*y' - 1\nineqs: (none)\nprime: no\n")
        args = ["jbc-check", str(p), "--components", str(comp)]
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 281)
        assert main(args) == 1
        assert "  cert-2: multiplier = x^10 + 10*x^9 + " in capsys.readouterr().out
        monkeypatch.setattr(diffalg.reduction, "MAX_WORK", 280)
        assert main(args) == 3
        assert capsys.readouterr() == (
            "",
            "diffalg: building the certificate would bring the work to 281, over the budget MAX_WORK = 280\n",
        )
        assert main(args + ["--json"]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "INCONCLUSIVE"

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
        # a zero divisor is the reader's refusal, never a ZeroDivisionError
        for expr in ("y +", "y/0", "y/(1-1)"):
            assert main(["member", cusp, expr]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == [
            "diffalg: expression: division by zero (at position 1)",
            "diffalg: expression: division by zero (at position 1)",
        ]

    def test_radical_names_the_degree_bound_stop(self, cusp, capsys):
        # the cusp is homogeneous under the weights x = 2, y = 3: the graded search answers
        assert main(["radical-member", cusp, "--bounds", "1,1,4,6", "--", "x*y + 1"]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "Inconclusive (no power up to 2 found: the degree bound 4 stops the search "
            "at f^3 (degree 6) (last: no combination exists at these bounds "
            "(graded search exhausted)); bounds:"
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

    def test_non_ascii_digit_in_a_system_file(self, tmp_path, capsys):
        # an Arabic-Indic one is not the digit 1
        p = tmp_path / "digit.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq u = x + \u0661\n", encoding="utf-8")
        assert main(["jacobi", str(p)]) == 2
        assert capsys.readouterr().err == (
            "diffalg: line 4: unexpected character '\u0661' (at position 4)\n"
        )

    def test_point_naming_an_unknown_variable(self, tmp_path, capsys):
        p = tmp_path / "point.sys"
        p.write_text(FLAGSHIP.replace("y = 0", "z = 0"))
        assert main(["linearize", str(p), "--at", "p0"]) == 2
        assert capsys.readouterr().err == "diffalg: line 6: unknown variable 'z'\n"

    def test_power_over_the_expansion_cap(self, cusp, capsys):
        # each squaring and product is charged before it is made: the
        # square of the 2,145-term p^64 would bring the work past MAX_WORK
        assert main(["member", cusp, "(x + y + 1)^100000"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "diffalg: expression: power ^100000 of a 3-term polynomial would bring the work to "
            "4941450, over the budget MAX_WORK = 1000000 (at position 12)\n"
        )

    def test_long_product_of_sums_ends_at_the_term_cap(self, cusp, capsys):
        # 100 factors, 1,189 characters, once built 176,850 terms; each
        # product is charged before it is made, and the 38th, at 404,928
        # term pairs with its own, is the first past MAX_TERMS: it stops
        # at the row that takes it there
        expr = "*".join(f"(x+y+x'+{i})" for i in range(100))
        assert len(expr) == 1189
        assert main(["member", cusp, expr]) == 2
        assert capsys.readouterr() == (
            "",
            f"diffalg: expression: product of a 9879-term and a 4-term polynomial passes the cap of "
            f"{MAX_TERMS} terms (MAX_TERMS) (at position 434)\n",
        )

    @pytest.mark.parametrize(
        "expr, cap",
        [
            # 60 written-out factors, once admitted with 120,001-bit coefficients
            ("*".join([f"({2 ** 2000}*x + 1)"] * 60), "MAX_COEFF_BITS"),
            # s*s*s for s a sum of 100 jets, once refused only after 171,700 terms
            ("*".join(["(" + " + ".join(f"x^({k})" for k in range(100)) + ")"] * 3), "MAX_TERMS"),
            # 1,000 factors 2^4000 before *x, once one 4,000,001-bit coefficient
            ("2^4000*" * 1000 + "x", "MAX_COEFF_BITS"),
        ],
        ids=["60 factors", "s*s*s", "1000 factors"],
    )
    def test_hostile_products_end_at_a_named_cap(self, cusp, capsys, expr, cap):
        start = time.perf_counter()
        assert main(["member", cusp, expr]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("diffalg: expression: ") and f"({cap})" in err

    def test_power_over_the_expansion_cap_in_a_system_file(self, tmp_path, capsys):
        p = tmp_path / "big.sys"
        p.write_text("field: Q\nvars: x\nranking: elim x\neq u = (x' + x + 1)^100000\n")
        assert main(["jacobi", str(p)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_power_over_the_size_caps(self, cusp, tmp_path, capsys):
        assert main(["member", cusp, "(2*x)^1000000000000000000"]) == 2
        assert f"over the cap of {MAX_COEFF_BITS} bits (MAX_COEFF_BITS)" in capsys.readouterr().err
        p = tmp_path / "tpow.sys"
        p.write_text(QT_PAIR.replace("+ t\n", "+ t^1000000000000000000\n"))
        assert main(["reduce", str(p), "--target", "f"]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and f"in t, over the cap of {MAX_T_DEGREE} (MAX_T_DEGREE)" in err

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

    @pytest.mark.parametrize("value", ["y", "y" + "*(7)^1300" * 7])
    def test_nonconstant_point_value(self, tmp_path, capsys, monkeypatch, value):
        # the second value's text has over 7,000 digits: the message must
        # not render it.  Its product of seven powers passes MAX_COEFF_BITS,
        # so the cap is raised for this test only.
        monkeypatch.setattr(diffalg.reduction, "MAX_COEFF_BITS", 30_000)
        p = tmp_path / "nonconst.sys"
        p.write_text(FLAGSHIP.replace("x = 0", "x = " + value))
        start = time.perf_counter()
        assert main(["linearize", str(p), "--at", "p0"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "diffalg: line 6: the value of 'x' is not a constant\n"

    @pytest.mark.parametrize(
        "argv",
        [["decompose"], ["jbc-check"], ["jbc-check", "--json"], ["linearize"], ["reduce", "--target", "u1"]],
        ids=lambda a: " ".join(a),
    )
    def test_coefficient_too_long_to_print(self, tmp_path, capsys, argv):
        # 4,300 nines plus 4,300 nines has 4,301 digits, more than Python
        # converts to text: a named refusal, exit 3 and nothing on stdout.
        # A sum is not a product, so the reader admits it.
        nines = "9" * 4300
        p = tmp_path / "big.sys"
        p.write_text(f"field: Q\nvars: x, y\nranking: elim x > y\neq u1 = ({nines} + {nines})*x' + y\neq u2 = y'\n")
        assert main([argv[0], str(p), *argv[1:]]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "diffalg: coefficient 199999...999998 has 4301 digits, more than the 4300 that can be written as text\n"

    def test_reduce_prints_nothing_before_a_coefficient_too_long_to_print(self, tmp_path, capsys):
        # the dividend and divisors print, but the multiplier, the fifth
        # power of the 1,000-digit initial, has 4,998 digits: stdout is held
        # back, so none of it is written.  Every step leaves x'^k with
        # coefficient 1, so the division's own coefficients stay far under
        # MAX_COEFF_BITS; only the certificate's products grow.
        p = tmp_path / "red.sys"
        p.write_text(
            "field: Q\nvars: x, z\nranking: elim x > z\n"
            f"eq b = x'^5\neq a = {'3' * 1000}*x' - 1\n"
        )
        assert main(["reduce", str(p), "--target", "b"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "diffalg: coefficient 411522...781893 has 4998 digits, more than the 4300 that can be written as text\n"

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

    @pytest.mark.parametrize("error", [KeyError, ZeroDivisionError], ids=lambda e: e.__name__)
    def test_other_errors_are_not_domain_errors(self, flagship, monkeypatch, error):
        # a KeyError or a ZeroDivisionError inside a command is a bug, not a
        # domain error: it propagates instead of exiting 3 (the expression
        # reader refuses a zero divisor itself, as a format error)
        def broken(*args):
            raise error("internal")

        monkeypatch.setattr(diffalg.cli, "order_matrix", broken)
        with pytest.raises(error):
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


class TestNamedCaps:
    def test_the_library_has_eight_named_caps(self):
        # every module-level integer constant of the library but the exit
        # codes is a cap; the reader and the reducer share the three in
        # reduction, and every cap's stop names it
        caps = set()
        for path in sorted(Path(diffalg.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and type(node.value.value) is int
                ):
                    caps.update(f"{path.stem}.{t.id}" for t in node.targets if isinstance(t, ast.Name) and not t.id.startswith(("_", "EXIT_")))
        assert caps == {
            "reduction.MAX_WORK",
            "reduction.MAX_TERMS",
            "reduction.MAX_COEFF_BITS",
            "sysfile.MAX_NESTING",
            "reduction.MAX_T_DEGREE",
            "oracle.MAX_CANDIDATES",
            "decompose.MAX_COMPONENTS",
            "diffpoly.DEFAULT_ORDER_CAP",
        }
