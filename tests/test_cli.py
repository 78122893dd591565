"""The command-line interface."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import symsum
from symsum import cli
from symsum.cli import main
from symsum.areas import area
from symsum.demos import GOMPF_STIPSICZ
from symsum.rewrite import RuleError, _expect
from test_areas import unlimited_str
from test_memo import chain_script

EXPRS = pathlib.Path(__file__).parent.parent / "scripts" / "exprs"


def test_demo_gompf(capsys):
    assert main(["demo", "gompf-stipsicz"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "verdict: ~ (weak deformation) chi=47 sigma=-31"
    assert out[0].startswith("step 0: start")


def test_demo_json_trace(capsys):
    assert main(["demo", "assoc-sym", "--trace", "json"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in out[:-1]]
    assert all(r["chi"] == 47 and r["sigma"] == -31 for r in records)
    assert out[-1] == "verdict: = (symplectomorphic) chi=47 sigma=-31"


def test_check_file(tmp_path, capsys):
    f = tmp_path / "proof.ssum"
    f.write_text(GOMPF_STIPSICZ, encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert "verdict: ~" in capsys.readouterr().out


def test_check_missing_file(capsys):
    assert main(["check", "does_not_exist.ssum"]) == 2
    assert "file error" in capsys.readouterr().err


def test_check_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.ssum"
    f.write_text("lhs ???", encoding="utf-8")
    assert main(["check", str(f)]) == 2


def test_zero_denominator_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.ssum"
    f.write_text("atom A E(1) { F: g=1, i=0, a=1/0 }\nlhs A\nrhs A\ntarget =\n", encoding="utf-8")
    assert main(["check", str(f)]) == 2
    assert "1:30: zero denominator in '1/0'" in capsys.readouterr().err


_LONG = "1" * 5000  # more digits than int() reads from a string


@pytest.mark.parametrize(
    "spec, col",
    [
        (f"E(1) {{ S: g=0, i=-1, a={_LONG} }}", 31),
        (f"E({_LONG}) {{ S: g=0, i=-1, a=1 }}", 10),
        (f"E(1) {{ S: g=0, i=-1, a=1/{_LONG} }}", 31),
        (f"E(1) {{ S: g=0, i=-1, a=1-{_LONG}/2e }}", 33),
        (f"E(1) {{ S: g={_LONG}, i=-1, a=1 }}", 20),
        (f"E(1) {{ S: g=0, i=-{_LONG}, a=1 }}", 26),
    ],
    ids=["area constant", "E(n)", "denominator", "eps numerator", "genus", "normal number"],
)
def test_a_number_too_long_for_int_exits_2_at_its_token(tmp_path, capsys, spec, col):
    f = tmp_path / "long.ssum"
    f.write_text(f"atom X {spec}\nlhs X rhs X target =\n", encoding="utf-8")
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr() == ("", f"1:{col}: number too long: 5000 digits\n")
    # an expression file goes through the same parser
    f.write_text(f"expr {spec}\n", encoding="utf-8")
    assert main(["invariants", str(f)]) == 2
    assert capsys.readouterr() == (
        "", f"script error: 1:{col - 2}: number too long: 5000 digits\n"
    )


# two denominators of ~2,200 digits, within what the parser reads, whose
# product a sum or a difference of their areas needs: past int()'s 4,300
_D1, _D2 = "7" * 2200, "3" * 2200 + "1"  # 1/_D2 < 1/_D1
# a sum that carries the mark P#Q of area 1/_D1 + 1/_D2
_PARTNERS = (
    f"atom X Rational(0) {{ A: g=0, i=1, a=1, perp P; P: g=0, i=0, a=1/{_D1}, perp A }}\n"
    f"atom Y Rational(0) {{ B: g=0, i=-1, a=1, perp Q; Q: g=0, i=0, a=1/{_D2}, perp B }}\n"
    "atom Z Rational(0) { C: g=0, i=0, a=1 }\n"
)
# halves of a ruled surface whose fiber N/7 doubles to a 4,301-digit
# numerator when R10 merges them, N = 5 * 10^4299; G-1's area 3/7 makes
# G1's, 3/7 plus two fibers, an integer of 4,300 digits
_N = 5 * 10**4299
_HALVES = (
    f"atom Wf W(0,1,{_N}/7) {{ G-1: g=0, i=-1, a=3/7; c1: g=0, i=1, a={_N + 3}/7; "
    f"Fa: g=0, i=0, a={_N}/7 }}\n"
    f"atom Wb W(0,1,{_N}/7) {{ c2: g=0, i=-1, a={_N + 3}/7; G1: g=0, i=1, a={(2 * _N + 3) // 7} }}\n"
)
# a sum that carries the mark P#Q whose normal number is the sum of two
# 4,300-digit literals
_NINES = "9" * 4300
_BIG_NORMALS = (
    f"atom X Rational(1) {{ A: g=0, i=1, a=1, perp P; P: g=0, i={_NINES}, a=1, perp A }}\n"
    f"atom Y Rational(1) {{ B: g=0, i=-1, a=1, perp Q; Q: g=0, i={_NINES}, a=1, perp B }}\n"
    "atom Z Rational(0) { C: g=0, i=0, a=1 }\n"
)
_BIG = {
    "ruled sections spread": (
        f"atom W1 W(0,1,0+1e) {{ A1: g=0, i=-1, a=1/{_D1}; B1: g=0, i=1, a=1/{_D2} }}\n"
        "lhs W1 rhs W1 target =\n"
    ),
    "ruled section too small": (
        f"atom W W(0,1,0+1/{_D1}e) {{ A: g=0, i=1, a=0+1/{_D2}e }}\nlhs W rhs W target =\n"
    ),
    "thinned mark not positive": (
        f"atom X Rational(0) {{ A: g=0, i=1, a=0+1/{_D2}e }}\n"
        f"lhs thin(X, A, 0+1/{_D1}e) rhs X target =\n"
    ),
    "sum area mismatch": _PARTNERS + "lhs sum(sum(X, A, Y, B), P#Q, Z, C) rhs X target =\n",
    "thicken section too small": (
        f"atom X Rational(0) {{ A: g=0, i=-3, a=0+1/{_D1}e }}\n"
        f"lhs thicken(thin(X, A, 0+1/{_D2}e), A-, 0+1e) rhs X target =\n"
    ),
    "blow-up too large": (
        _PARTNERS + "lhs blowup(sum(X, A, Y, B), at = P#Q, size = 1) rhs X target =\n"
    ),
    "blow-up size not positive": (
        f"atom X Rational(0) {{ A: g=0, i=1, a=1 }}\n"
        f"lhs blowup(X, generic, size = 0-1/{_D1}e) rhs X target =\n"
    ),
    "collar amount not infinitesimal": (
        f"atom X Rational(0) {{ A: g=0, i=1, a=1 }}\nlhs thin(X, A, 1/{_D1}) rhs X target =\n"
    ),
    "sum verifies": (
        f"atom X Rational(0) {{ A: g=0, i=1, a=1/{_D1}; C: g=0, i=0, a=1/{_D2} }}\n"
        f"atom Y Rational(0) {{ B: g=0, i=-1, a=1/{_D1} }}\n"
        "lhs sum(X, A, Y, B) rhs sum(X, A, Y, B) target =\n"
        "by R8 { eps = 0+1e } by R8 { } rev\n"
    ),
    "proof fails": (
        f"atom X Rational(0) {{ A: g=0, i=1, a=1/{_D1} }}\n"
        f"atom Y Rational(0) {{ A: g=0, i=1, a=1/{_D2} }}\nlhs X rhs Y target =\n"
    ),
    "merged fiber in mark data": (
        _HALVES + "lhs sum(Wf, c1, Wb, c2) rhs sum(Wf, c1, Wb, c2) target =\nby R10 { } rev\n"
    ),
    "sum normal number mismatch": (
        _BIG_NORMALS + "lhs sum(sum(X, A, Y, B), P#Q, Z, C) rhs X target =\n"
    ),
    # R6 on the carried mark P#Q of normal number 2 * _N, a 4,301-digit int
    "R6 normal number": (
        f"atom X Rational(1) {{ A: g=0, i=1, a=1, perp P; P: g=0, i={_N}, a=1, perp A }}\n"
        f"atom Y Rational(1) {{ B: g=0, i=-1, a=1, perp Q; Q: g=0, i={_N}, a=1, perp B }}\n"
        f"atom U Rational(1) {{ C: g=0, i=1, a=1, perp R; R: g=0, i=-{_N}, a=7/8, perp C }}\n"
        f"atom V Rational(1) {{ D: g=0, i=-1, a=1, perp T; T: g=0, i=-{_N - 1}, a=7/8, perp D }}\n"
        "lhs sum(blowup(sum(X, A, Y, B), at = P#Q, size = 1/4, transform = St), St, "
        "sum(U, C, V, D), R#T)\nrhs X target =\nby R6 { }\n"
    ),
    # E(n) with n = _NINES: chi = 12n has 4,302 digits
    "E(n) chi past the digit limit": f"atom A E({_NINES}) {{ }}\nlhs A rhs A target =\n",
    # R9 folds E(n) and E(1) into E(10^4300), whose n has 4,301 digits
    "R9 rev past the digit limit": (
        f"atom A E({_NINES}) {{ F: g=1, i=0, a=1 }}\natom B E(1) {{ F1: g=1, i=0, a=1 }}\n"
        "lhs sum(A, F, B, F1) rhs A target ~\nby R9 { } rev\n"
    ),
    # ... and its section keeps i = -n, which E(10^4300) refuses
    "R9 rev with a section past the digit limit": (
        f"atom A E({_NINES}) {{ S: g=0, i=-{_NINES}, a=1; F: g=1, i=0, a=1 }}\n"
        "atom B E(1) { F1: g=1, i=0, a=1 }\nlhs sum(A, F, B, F1) rhs A target ~\nby R9 { } rev\n"
    ),
}


@pytest.mark.parametrize("trace", ["text", "json"])
@pytest.mark.parametrize("name", list(_BIG))
def test_areas_past_the_digit_limit_keep_the_exit_code_contract(tmp_path, capsys, name, trace):
    """One input per message of core.py that prints an area, each with
    areas whose sums or differences have ~4,400-digit denominators, and
    a rule's message on a normal number of 4,301 digits."""
    f = tmp_path / "big.ssum"
    f.write_text(_BIG[name], encoding="utf-8")
    code = main(["check", str(f), "--trace", trace])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.count("\n") == 1
    if code == 1:
        assert err.count("\n") == 1


def test_every_printed_genus_and_normal_number_goes_through_exact_str():
    """A sum adds genera and normal numbers, and chi and sigma, and a rule
    such as R9 builds a kind's integers from others, so they grow past the
    digits that str() converts: src/ formats none of them with an f-string
    or str() that `areas.exact_str` does not wrap."""
    attrs = ("genus", "normal_number", "euler", "signature", "n", "blowups", "twist")
    bare = []
    for path in sorted(pathlib.Path(symsum.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FormattedValue):
                value = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str":
                value = node.args[0]
            else:
                continue
            if isinstance(value, ast.Attribute) and value.attr in attrs:
                bare.append(f"{path.name}:{value.lineno} {ast.unparse(value)}")
    assert bare == []


_EN = (unlimited_str(12 * int(_NINES)), unlimited_str(-8 * int(_NINES)))  # chi, sigma of E(_NINES)
_EN_CHI = "chi={} sigma={}".format(*_EN)


@pytest.mark.parametrize("trace", ["text", "json"])
def test_chi_and_sigma_past_the_digit_limit_are_printed_in_full(tmp_path, capsys, trace):
    f = tmp_path / "big.ssum"
    f.write_text(_BIG["E(n) chi past the digit limit"], encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert main(["check", str(f), "--trace", trace]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"verdict: = (symplectomorphic) {_EN_CHI}"
    if trace == "text":
        assert out[0] == f"step 0: start level=start {_EN_CHI}"
    else:  # the line json.dumps(..., sort_keys=True) writes without the limit
        assert out[0] == (
            f'{{"chi": {_EN[0]}, "expr": "E({_NINES}) {{ }}", "level": null, "notes": [], '
            f'"rule": "start", "sigma": {_EN[1]}, "step": 0}}'
        )


def test_invariants_prints_chi_and_sigma_past_the_digit_limit(tmp_path, capsys):
    f = tmp_path / "big.expr"
    f.write_text(f"atom A E({_NINES}) {{ }}\nexpr A\n", encoding="utf-8")
    assert main(["invariants", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == _EN_CHI


def test_kind_integers_past_the_digit_limit_are_printed_in_full(tmp_path, capsys):
    """R9's note and the trace print E(10^4300), and so does the message
    of the section that E(10^4300) refuses."""
    big = unlimited_str(10**4300)
    f = tmp_path / "big.ssum"
    f.write_text(_BIG["R9 rev past the digit limit"], encoding="utf-8")
    assert main(["check", str(f), "--trace", "text"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3:5] == [f"  E({big}) {{ }}", f"  - folded the fiber sum into E({big})"]
    f.write_text(_BIG["R9 rev with a section past the digit limit"], encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().err == (
        f"proof failed at step 1: R9: mark S: an E({big}) mark is a section "
        f"(g=0, i=-{big}) or a fiber (g=1, i=0)\n"
    )


def test_a_side_condition_prints_a_tuple_member_past_the_digit_limit():
    """A member past the limit prints in full, and any other operand as
    str() prints it."""
    with pytest.raises(RuleError) as info:
        _expect((0, 10**4300), (0, 1), "mark A keeps (g, i)")
    assert str(info.value) == (
        f"side condition failed: mark A keeps (g, i): (0, {unlimited_str(10**4300)}) vs (0, 1)"
    )
    for operand in (
        3, -2, Fraction(1, 3), area(1, 2), (0, -1), (1,), (), [], None, "x",
        (0, -1, area(Fraction(1, 3), -1)), [(0, 1, area(1)), (1, 0, area(2, 1))],
        ("a", None, (True,)),
    ):
        with pytest.raises(RuleError) as info:
            _expect(operand, object(), "claim")
        assert str(info.value).startswith(f"side condition failed: claim: {operand} vs <object")


def test_a_spread_past_the_digit_limit_is_printed_in_full(tmp_path, capsys):
    f = tmp_path / "big.ssum"
    f.write_text(_BIG["ruled sections spread"], encoding="utf-8")
    assert main(["check", str(f)]) == 2
    spread = unlimited_str(Fraction(1, int(_D1)) - Fraction(1, int(_D2)))
    want = f"1:6: sections A1, B1: areas must differ by 0 - 1*eps, got {spread} + 0*eps\n"
    assert capsys.readouterr() == ("", want)


def test_a_mark_table_prints_a_carried_area_past_the_digit_limit(tmp_path, capsys):
    """The carried mark P#Q's area, and then its normal number, past the limit."""
    f = tmp_path / "big.expr"
    carried = Fraction(1, int(_D1)) + Fraction(1, int(_D2))
    for partners, line in (
        (_PARTNERS, f"P#Q 0 0 {unlimited_str(carried)}"),
        (_BIG_NORMALS, f"P#Q 0 {unlimited_str(2 * int(_NINES))} 2"),
    ):
        f.write_text(partners + "expr sum(X, A, Y, B)\n", encoding="utf-8")
        assert main(["invariants", str(f)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["check", "-h"],
        ["check", "proof.ssum", "extra"],
        ["check", "proof.ssum", "--trace", "xml"],
        ["check", "proof.ssum", "--version"],
        ["demo"],
        ["demo", "no-such-demo"],
        ["demo", "assoc-sym", "--bogus"],
        ["demo", "assoc-sym", "--trace"],
    ],
)
def test_scoped_parser_prints_what_the_full_tree_prints(argv, capsys, monkeypatch):
    """A call naming a subcommand builds only that subparser; for a
    malformed call it prints the same usage, help and error text, to the
    same streams, and exits with the same code as the whole tree."""
    scoped_build, results = cli._build_parser, []
    for build in (scoped_build, lambda command: scoped_build(None)):
        monkeypatch.setattr(cli, "_build_parser", build)
        code = main(argv)
        results.append((capsys.readouterr(), code))
    (scoped, scoped_code), (full, full_code) = results
    assert (scoped.out, scoped.err, scoped_code) == (full.out, full.err, full_code)
    assert scoped_code == (0 if "-h" in argv else 2)
    assert "usage: symsum" in scoped.out + scoped.err


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "symsum 0.1.0" in capsys.readouterr().out


def test_invariants_file(capsys):
    assert main(["invariants", str(EXPRS / "e4_cp2.expr")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "chi=47 sigma=-31"


def test_polytope_figures(tmp_path, capsys):
    for figure, source in (
        ("triple", "fig_triple.expr"),
        ("pairsum", "fig_pairsum.expr"),
        ("foursum", "fig_foursum.expr"),
    ):
        out = tmp_path / f"{figure}.svg"
        assert (
            main(
                ["polytope", str(EXPRS / source), "--figure", figure, "-o", str(out)]
            )
            == 0
        )
        assert out.read_text(encoding="utf-8").startswith("<?xml")


def test_polytope_needs_enough_triples(tmp_path, capsys):
    out = tmp_path / "x.svg"
    code = main(
        ["polytope", str(EXPRS / "fig_triple.expr"), "--figure", "foursum", "-o", str(out)]
    )
    assert code == 2
    assert "needs 4" in capsys.readouterr().err


def test_proof_failure_exit_code(tmp_path, capsys):
    f = tmp_path / "fail.ssum"
    f.write_text(
        "atom A E(1) { F: g=1, i=0, a=1 }\n"
        "atom B E(2) { F: g=1, i=0, a=1 }\n"
        "lhs A rhs B target ~\n",
        encoding="utf-8",
    )
    assert main(["check", str(f)]) == 1
    assert "does not match" in capsys.readouterr().err


def test_invariant_drift_exits_1_through_run_and_main(tmp_path, capsys, monkeypatch):
    """A rule that changes chi is a defect of the rule: `run()` returns
    code 1 with the line the CLI prints, and the CLI exits 1 with it."""
    from symsum.core import AtomNode, EquivLevel, ProjectivePlane
    from symsum.demos import CORPUS
    from symsum.rewrite import RULES
    from symsum.script import run

    def drifting(sub, b, rev):  # a plane in place of the subtree: chi 3
        return AtomNode(ProjectivePlane(), ()), EquivLevel.SYMPLECTOMORPHIC, []

    monkeypatch.setitem(RULES, "deform", drifting)
    source = CORPUS["deform-rescale"]
    result = run(source)
    assert (result.code, result.verdict) == (1, None)
    [message] = result.messages
    assert message.startswith("error: rule deform changed invariants: ")
    assert "chi=3" in message.split(" -> ")[1]
    f = tmp_path / "drift.ssum"
    f.write_text(source, encoding="utf-8")
    assert main(["check", str(f), "--trace", "text"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", message + "\n")


def test_polytope_triple_with_unknown_mark_exits_2(tmp_path, capsys):
    f = tmp_path / "t.expr"
    f.write_text(
        "atom A E(3) { F: g=1, i=0, a=1 }\ntriple t (A, F, Nope)\nexpr A\n", encoding="utf-8"
    )
    out = tmp_path / "t.svg"
    assert main(["polytope", str(f), "--figure", "triple", "-o", str(out)]) == 2
    assert "2:8: unresolved mark 'Nope'" in capsys.readouterr().err
    assert not out.exists()


_E3 = "atom E3 E(3) { Sigma-3: g=0, i=-3, a=1, perp F3; F3: g=1, i=0, a=1, perp Sigma-3 }\n"


@pytest.mark.parametrize(
    "figure, source, message",
    [
        (
            "triple",
            "atom A E(3) { Sigma-3: g=0, i=-3, a=1; F3: g=1, i=0, a=1 }\n"
            "triple t (A, Sigma-3, F3)\nexpr A\n",
            "figure needs Sigma-3 and F3 orthogonally paired",
        ),
        (
            "pairsum",
            _E3 + "atom E1 E(1) { F1: g=1, i=0, a=2, perp Sigma-1; Sigma-1: g=0, i=-1, a=1, perp F1 }\n"
            "triple t1 (E3, Sigma-3, F3)\ntriple t2 (E1, F1, Sigma-1)\nexpr E3\n",
            "area mismatch: 1 + 0*eps vs 2 + 0*eps",
        ),
    ],
    ids=["unpaired triple", "pairsum area mismatch"],
)
def test_a_figure_the_marks_cannot_draw_exits_1(tmp_path, capsys, figure, source, message):
    """A declared triple whose marks do not meet, or two triples whose
    gluing marks differ, builds but cannot be drawn: one error line, exit 1."""
    f = tmp_path / "f.expr"
    f.write_text(source, encoding="utf-8")
    out = tmp_path / "f.svg"
    assert main(["polytope", str(f), "--figure", figure, "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_polytope_draws_a_large_negative_eps_term_inside_its_canvas(tmp_path, capsys):
    """A positive area whose eps term is large and negative draws
    positive: the figure narrows its eps to a tenth of 100 * c / |e|, here
    0.5 for e = -20, says so in its caption, and every coordinate lies in
    its viewBox.  The drawn length is worked out exactly, so an eps term
    no float holds draws the same 90 units, at a width whose float is 0
    and which the caption prints exactly."""
    for coeff, eps in ((20, "0.5"), (10**400, "1/1" + "0" * 399)):
        f = tmp_path / "cp2.expr"
        f.write_text(
            f"atom X CP2 {{ L1: g=0, i=1, a=1-{coeff}e, perp L2; "
            f"L2: g=0, i=1, a=1-{coeff}e, perp L1 }}\n"
            "triple T (X, L1, L2)\nexpr X\n",
            encoding="utf-8",
        )
        out = tmp_path / "cp2.svg"
        assert main(["polytope", str(f), "--figure", "triple", "-o", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert f"1 area unit = 100, eps = {eps}<" in svg
        # L1 runs 90 units from the origin at x = 60
        assert '<line x1="60.00" y1="190.00" x2="150.00" y2="190.00"' in svg
        width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', svg).groups())
        coordinates = re.findall(r' ([xy])\d?="([^"]*)"', svg)
        assert len(coordinates) > 20
        for axis, value in coordinates:
            assert 0 <= float(value) <= (width if axis == "x" else height), (axis, value)


@pytest.mark.parametrize("zeros", [306, 307, 400])
def test_polytope_of_an_area_beyond_float_range_is_a_mark_error(tmp_path, capsys, zeros):
    """An area whose drawn length no float holds is refused in one line,
    where `float()` of it raised OverflowError or drew at infinity; so is
    one whose length is beyond the single-precision range of SVG numbers,
    which drew a figure hundreds of digits wide."""
    f = tmp_path / "big.expr"
    big = "1" + "0" * zeros
    f.write_text(
        f"atom X W(0,1,1) {{ G: g=0, i=1, a={big}; F: g=0, i=0, a=1, perp G }}\n"
        "triple T (X, G, F)\nexpr X\n",
        encoding="utf-8",
    )
    out = tmp_path / "big.svg"
    assert main(["polytope", str(f), "--figure", "triple", "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: area {big} + 0*eps is too large to draw\n"
    assert not out.exists()


def test_check_past_the_recursion_limit_verifies(tmp_path, capsys):
    """No depth limit is left: parsing, building and printing keep explicit
    stacks, so a chain nested past the recursion limit verifies."""
    f = tmp_path / "deep.ssum"
    f.write_text(chain_script(1000, 500), encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr().out == "verdict: = (symplectomorphic) chi=4 sigma=0\n"


def _check_in_a_fresh_interpreter(path, *options):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "symsum.cli", "check", str(path), *options],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("depth, code", [(960, 0), (1000, 0), (5000, 0)])
def test_check_deep_chain_in_a_fresh_interpreter(tmp_path, depth, code):
    """Chains nested past the recursion limit verify from the command line,
    at the interpreter's default limit."""
    f = tmp_path / "deep.ssum"
    f.write_text(chain_script(depth, depth // 2), encoding="utf-8")
    proc = _check_in_a_fresh_interpreter(f)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == "verdict: = (symplectomorphic) chi=4 sigma=0\n"


@pytest.mark.parametrize("trace", ["text", "json"])
def test_depth_5000_chain_renders_its_trace(tmp_path, trace):
    f = tmp_path / "deep.ssum"
    f.write_text(chain_script(5000, 2500), encoding="utf-8")
    proc = _check_in_a_fresh_interpreter(f, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    *trace_lines, verdict = proc.stdout.splitlines()
    assert verdict == "verdict: = (symplectomorphic) chi=4 sigma=0"
    if trace == "json":
        records = [json.loads(line) for line in trace_lines]
        assert [(r["step"], r["chi"], r["sigma"]) for r in records] == [
            (step, 4, 0) for step in range(5)
        ]
        exprs = [r["expr"] for r in records]
    else:
        exprs = [line[2:] for line in trace_lines if line.startswith("  sum(")]
    # each R8 forward/reverse pair returns to the chain it started from
    assert len(exprs) == 5 and exprs[0] == exprs[2] == exprs[4]
    assert exprs[0].startswith("sum(" * 4999 + "W(0,1,0+1e) { A1:")


def test_check_a_directory_is_a_file_error(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: [Errno 21] Is a directory") and err.count("\n") == 1


def test_check_undecodable_bytes_is_a_file_error(tmp_path, capsys):
    f = tmp_path / "bad.ssum"
    f.write_bytes(b"lhs \xff")
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "file error: 'utf-8' codec can't decode byte 0xff in position 4: "
        "invalid start byte\n"
    )


def test_polytope_unwritable_output_is_a_file_error(tmp_path, capsys, monkeypatch):
    real_open = open

    def deny_writes(path, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", deny_writes, raising=False)
    out = tmp_path / "x.svg"
    args = ["polytope", str(EXPRS / "fig_triple.expr"), "--figure", "triple", "-o", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"file error: [Errno 13] Permission denied: '{out}'\n"
