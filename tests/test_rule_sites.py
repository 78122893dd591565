"""Every rule check either has an input that fails it or is a named
certificate: the side conditions and shape errors of src/symsum/rules/
that the corpus, RULE_SHAPES and RULE_MESSAGES never raise are exactly
the entries of CERTIFICATES."""

import ast
import pathlib
import sys

import symsum.rules
from symsum.demos import CORPUS
from symsum.rewrite import RuleError
from symsum.script import run
from traces import CERTIFICATES, RULE_MESSAGES, RULE_SHAPES

RULES = pathlib.Path(symsum.rules.__file__).parent
# the calls that raise a RuleError or make one for a failed side condition
RAISERS = {"RuleError", "_failed", "_expect", "_expect_same_marks"}


def _text(arg: ast.expr, strings: dict) -> str:
    """A message or claim argument as it reads in the source: a string, an
    f-string with its fields in braces, a name through its string
    assignment, any other expression as written."""
    if isinstance(arg, ast.Name):
        return strings[arg.id]
    if isinstance(arg, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{" + ast.unparse(v.value) + "}"
            for v in arg.values
        )
    if isinstance(arg, ast.Constant):
        return arg.value
    return ast.unparse(arg)


def rule_sites() -> dict:
    """(module, text) of each raising call in a rule module, mapped to
    the call's first and last lines."""
    sites = {}
    for path in sorted(RULES.glob("*.py")):
        tree = ast.parse(path.read_text())
        strings = {
            node.targets[0].id: node.value.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in RAISERS:
                key = (path.stem, _text(node.args[-1], strings))
                assert key not in sites, key
                sites[key] = (node.lineno, node.end_lineno)
    return sites


def test_each_rule_check_has_an_input_or_is_a_certificate(monkeypatch):
    raised = set()  # (module, line) of the innermost rule frame of each RuleError

    def init(self, *args):
        frame = sys._getframe(1)
        while frame is not None and pathlib.Path(frame.f_code.co_filename).parent != RULES:
            frame = frame.f_back
        if frame is not None:
            raised.add((pathlib.Path(frame.f_code.co_filename).stem, frame.f_lineno))
        Exception.__init__(self, *args)

    monkeypatch.setattr(RuleError, "__init__", init)
    for table in (CORPUS, RULE_SHAPES, RULE_MESSAGES):
        for source in table.values():
            run(source)
    sites = rule_sites()
    unreached = {
        (module, text)
        for (module, text), (first, last) in sites.items()
        if not any(m == module and first <= line <= last for m, line in raised)
    }
    assert all(reason for _, _, reason in CERTIFICATES)
    assert sorted(unreached) == sorted((module, text) for module, text, _ in CERTIFICATES)
