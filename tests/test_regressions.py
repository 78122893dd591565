"""Regressions: walks deeper than the recursion limit, and R2 reversed
with a symplectomorphism-level expansion."""

import os
import pathlib
import subprocess
import sys

import symsum
from symsum.demos import CORPUS
from symsum.script import run
from symsum.sums import rescale
from test_memo import chain, chain_script


# a fresh interpreter that checks the script file argv[1] through run()
RUN_FILE = (
    "import sys\n"
    "from symsum.script import run\n"
    "r = run(open(sys.argv[1], encoding='utf-8').read())\n"
    "print(*r.messages, sep='\\n')\n"
    "sys.exit(r.code)\n"
)


def test_shift_on_a_depth_978_chain_in_a_fresh_interpreter(tmp_path):
    """The shift walk is a loop: a shift at the root of a chain nested
    978 deep verifies, where a walk recursing once per level raised
    RecursionError out of run()."""
    script = chain_script(978, 2).replace(
        "target =\n", "target ~\nby deform { at = root, shift1 = A1, by1 = 0 }\n"
    )
    f = tmp_path / "deep_shift.ssum"
    f.write_text(script, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(symsum.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_FILE, str(f)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "verdict: ~ (weak deformation) chi=4 sigma=0\n"


def test_rescale_walks_a_depth_1500_chain():
    assert sys.getrecursionlimit() <= 1000
    e = chain(1500)
    doubled = rescale(e, 2)
    assert [m.area for m in doubled.marks] == [m.area.scale(2) for m in e.marks]
    assert rescale(doubled, "1/2") == e


def test_r2_reverse_with_eps_certifies_its_own_grouping():
    """R2 forward then reverse, both with an eps expansion, returns to
    the start at the symplectomorphism level."""
    src = CORPUS["assoc-sym"]
    lhs = next(line for line in src.splitlines() if line.startswith("lhs "))
    script = (
        src[: src.index("lhs ")]
        + f"{lhs}\nrhs {lhs[4:]}\ntarget =\n"
        + "by R2 { at = root, resolve_label = T-1, eps = 0+1e }\n"
        + "by R2 { at = root, resolve_label = Q, eps = 0+1e } rev\n"
    )
    r = run(script)
    assert r.code == 0, r.messages
    assert r.messages == ["verdict: = (symplectomorphic) chi=47 sigma=-31"]


def test_r10_reverse_with_no_section_left_fails_its_step():
    """Merging two ruled copies whose only sections were glued leaves no
    section to take the least twist from: the step fails with a message,
    where `max()` of no indices raised ValueError out of run()."""
    r = run(
        "atom A W(1,1,2) { G: g=1, i=1, a=3; F: g=0, i=0, a=2 }\n"
        "atom B W(1,1,2) { H: g=1, i=-1, a=3; K: g=0, i=0, a=2 }\n"
        "lhs sum(A, G, B, H)\nrhs A\ntarget ~\nby R10 { } rev\n"
    )
    assert (r.code, r.messages) == (
        1, ["proof failed at step 1: R10: the least twist needs at least one section"]
    )


def test_r7_blow_down_along_unpaired_lines_fails_its_step():
    """A paired blow-up summed with a plane whose lines are not paired
    carries no transform, so R7 cannot undo it: the step names the lines,
    where looking up the carried mark named a label 'St#None' that no
    node has."""
    r = run(
        "atom X E(3) { Sigma-3: g=0, i=-3, a=1 }\n"
        "atom P CP2 { L1: g=0, i=1, a=1/4; L2: g=0, i=1, a=1/4 }\n"
        "lhs sum(blowup(X, at = Sigma-3, size = 1/4, transform = St, pairexc), E, P, L1)\n"
        "rhs X\ntarget =\nby R7 { }\n"
    )
    assert (r.code, r.messages) == (1, [
        "proof failed at step 1: R7: R7 expects the plane's lines to be orthogonally "
        "paired, so that the sum carries the transform"
    ])


def test_r10_round_trip_keeps_index_0_sections_on_a_genus_0_base():
    """On a genus-0 base an index-0 section is a sphere of self-intersection
    zero, like a fiber; the merge told them apart by genus and index only,
    so it gave both sections the doubled fiber area and failed its check."""
    r = run(
        "atom W W(0,2,2) { P: g=0, i=0, a=3; M: g=0, i=0, a=3 }\n"
        "lhs W rhs W target =\n"
        "by R10 { plus = P, minus = M }\nby R10 { } rev\n"
    )
    assert (r.code, r.messages) == (0, ["verdict: = (symplectomorphic) chi=4 sigma=0"])
