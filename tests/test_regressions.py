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
