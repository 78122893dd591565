"""The command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import symsum
from symsum.cli import main
from symsum.demos import GOMPF_STIPSICZ
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


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


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


def test_polytope_triple_with_unknown_mark_exits_2(tmp_path, capsys):
    f = tmp_path / "t.expr"
    f.write_text(
        "atom A E(3) { F: g=1, i=0, a=1 }\ntriple t (A, F, Nope)\nexpr A\n", encoding="utf-8"
    )
    out = tmp_path / "t.svg"
    assert main(["polytope", str(f), "--figure", "triple", "-o", str(out)]) == 2
    assert "2:8: unresolved mark 'Nope'" in capsys.readouterr().err
    assert not out.exists()


def test_check_past_the_recursion_limit_exits_2(tmp_path, capsys):
    f = tmp_path / "deep.ssum"
    f.write_text(chain_script(1000, 500), encoding="utf-8")
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.endswith(": expression nested too deeply\n") and err.count("\n") == 1


@pytest.mark.parametrize("depth, code", [(960, 0), (1000, 2)])
def test_check_deep_chain_in_a_fresh_interpreter(tmp_path, depth, code):
    """Depth 960 still verifies from the command line, where the stack
    starts shallow; depth 1000 is a one-line error."""
    f = tmp_path / "deep.ssum"
    f.write_text(chain_script(depth, depth // 2), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "symsum.cli", "check", str(f)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout == "verdict: = (symplectomorphic) chi=4 sigma=0\n"
    else:
        assert proc.stderr.endswith(": expression nested too deeply\n")
