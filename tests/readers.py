"""The two readers of a script, compared, and a timed read.  A child
process that times a read imports this module, which imports symsum and
the standard library alone, so the child starts without loading pytest
and hypothesis."""

import time

from symsum.script import ScriptAst, ScriptError, _Parser, parse, print_script


def _outcome(read, text: str):
    """What a reader gives for `text`: its tree, and a script's printed
    form, or its message."""
    try:
        tree = read(text)
    except ScriptError as exc:
        return str(exc)
    return tree, print_script(tree) if isinstance(tree, ScriptAst) else None


def _token_reader(text: str) -> ScriptAst:
    return _Parser(text).parse_script()


_RUN = ("  \t# ; } # # perp\n \r\n" * 6000)[:100_000]  # blanks and comments
_SPACE_RUN = (" \t\r\n" * 25_000)[:100_000]  # blanks only, which the spec and side runs read


def _timed(before: str, after: str, run: str = _RUN) -> tuple[bool, bool, float]:
    """Whether both readers agree on a 10^5-character `run` between
    `before` and `after`; whether the text fails; and the CPU seconds of
    `parse`."""
    text = f"{before}{run}{after}"
    start = time.process_time()
    outcome = _outcome(parse, text)
    seconds = time.process_time() - start
    return outcome == _outcome(_token_reader, text), isinstance(outcome, str), seconds
