"""Shared corpus-trace rendering for the trace golden test and regeneration."""

from symsum.demos import CORPUS
from symsum.script import render_trace_json, render_trace_text, run


def corpus_traces() -> str:
    """The text and JSON traces of every corpus script, with its exit code,
    in corpus order."""
    parts = []
    for name, source in CORPUS.items():
        result = run(source)
        parts.append(f"=== {name} exit={result.code} text")
        parts.append(render_trace_text(result.verdict))
        parts.append(f"=== {name} exit={result.code} json")
        parts.append(render_trace_json(result.verdict))
    return "\n".join(parts) + "\n"
