"""Tests of the benchmark itself: generated inputs, known answers, failure
accounting and the tracer.  Run with `PYTHONPATH=src python -m pytest perfbench`."""

import json
from pathlib import Path

import pytest

import symsum.core
import symsum.script
from perfbench.reference import Reference
from perfbench.run import Record, is_wrong, measure
from perfbench.tracer import Tracer
from perfbench.workloads import (
    CORPUS,
    CRASH_DEPTH,
    DEEP_MAX,
    DEEP_CRASH,
    DEEP_MIN,
    DEEP_STRATA,
    Answer,
    Input,
    Workload,
    check_cli,
    check_run,
    corpus_answer,
    deep_answer,
    deep_inputs,
    deep_script,
    run_script,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("depth,path_len", [(3, 1), (4, 2), (6, 1), (6, 4), (9, 5)])
def test_deep_chain_verifies_with_formula_answer(depth, path_len):
    answer = deep_answer(depth)
    assert answer == Answer(0, "=", 4, 0)
    code, result = run_script(deep_script(depth, path_len))
    assert code == 0
    assert result.verdict.level.symbol == "="
    assert len(result.verdict.trace) == 5
    for rec in result.verdict.trace:
        assert (rec.invariants.euler, rec.invariants.signature) == (4, 0)
    assert check_run(Input("d", "", answer), result) is None


def test_deep_inputs_are_seeded_and_stratified():
    first, crash = deep_inputs(7)
    assert (first, crash) == deep_inputs(7)
    assert first != deep_inputs(8)[0]
    assert len(first) == DEEP_STRATA
    # the seed draws the order and the areas, never the work
    assert sorted(i.name for i in first) == sorted(i.name for i in deep_inputs(8)[0])
    assert crash.name == deep_inputs(8)[1].name
    depths = sorted(int(i.name.split("-")[1][1:]) for i in first)
    assert DEEP_MIN <= depths[0] and depths[-1] <= DEEP_MAX < CRASH_DEPTH
    assert crash.depth == DEEP_CRASH >= CRASH_DEPTH
    for inp in first + [crash]:
        depth, path_len = (int(part[1:]) for part in inp.name.split("-")[1:])
        assert depth / 4 <= path_len <= 3 * depth / 4
        assert inp.depth == depth
        assert f"at = {'.'.join(['left'] * path_len)} }}" in inp.text


def test_corpus_answers_come_from_target_lines_and_readme():
    answers = {name: corpus_answer(name, text) for name, text in CORPUS.items()}
    assert len(answers) == 13
    assert answers["blowup-trade-eq"] == Answer(1)
    assert answers["gompf-stipsicz"] == Answer(0, "~", 47, -31)
    assert answers["assoc-sym"] == Answer(0, "=", 47, -31)
    for name, text in CORPUS.items():
        code, result = run_script(text)
        assert check_run(Input(name, text, answers[name]), result) is None, name


def test_wrong_answers_are_reported():
    code, result = run_script(CORPUS["assoc-sym"])
    assert check_run(Input("x", "", Answer(0, "~")), result) == "level =, expected ~"
    assert "chi/sigma" in check_run(Input("x", "", Answer(0, "=", 48, -31)), result)
    assert check_run(Input("x", "", Answer(1)), result) == "exit 0, expected 1"
    good = "step 0: start level=start chi=4 sigma=0\nverdict: = (symplectomorphic) chi=4 sigma=0\n"
    assert check_cli(Input("x", "", Answer(0, "=", 4, 0)), good, 0) is None
    assert check_cli(Input("x", "", Answer(0, "~")), good, 0) == "level =, expected ~"
    assert check_cli(Input("x", "", Answer(1)), good, 1) == "verdict line printed for a failing proof"


class _Raising(Workload):
    name = "raising"

    def execute(self, inp):
        if inp.name == "broken":
            raise TypeError("unexpected")
        if inp.name != "ok":
            raise RecursionError("maximum recursion depth exceeded")
        return 0, None

    def check(self, inp, payload, code):
        return None


def test_raising_op_is_counted_not_propagated(tmp_path):
    wl = _Raising(ROOT, 0, tmp_path)
    wl.once = [Input("ok", "", Answer(0))]
    wl.inputs = [
        Input("deep", "", Answer(0), depth=CRASH_DEPTH),
        Input("broken", "", Answer(0)),
        Input("shallow", "", Answer(0), depth=CRASH_DEPTH - 1),
        Input("corpus", "", Answer(0)),
    ]
    records, wall = measure(wl, 0)
    assert wall > 0
    assert [(r.name, r.code, r.cause) for r in records] == [
        ("ok", 0, None),
        ("deep", None, "RecursionError"),
        ("broken", None, "TypeError"),
        ("shallow", None, "RecursionError"),
        ("corpus", None, "RecursionError"),
    ]
    # only the known depth limit fails an op without making the run wrong;
    # a RecursionError below that depth or off `deep` is a defect
    assert [is_wrong(r) for r in records] == [False, False, True, True, True]
    assert is_wrong(Record("x", 0.0, 1, "exit 1, expected 0"))


def test_reference_runs_after_the_pass_ops_for_its_share_of_their_time(tmp_path):
    ref = Reference(0.25)
    ref.after(0.0)
    assert ref.times == []
    ref.after(0.004)
    assert sum(ref.times) >= 0.001 and ref.debt <= 0

    class Spy:
        def __init__(self):
            self.seen = []

        def after(self, seconds):
            self.seen.append(seconds)

    wl = _Raising(ROOT, 0, tmp_path)
    wl.once = [Input("once", "", Answer(0))]
    wl.inputs = [Input("ok", "", Answer(0)), Input("deep", "", Answer(0), depth=CRASH_DEPTH)]
    spy = Spy()
    records, _ = measure(wl, 0, ref=spy)
    assert [r.name for r in records] == ["once", "ok", "deep"]
    assert spy.seen == [r.seconds for r in records[1:]]


def test_tracer_records_layers_and_restores_originals():
    originals = (
        symsum.script.tokenize,
        symsum.script.parse,
        symsum.core.label_pool,
        symsum.core.PairSum.__init__,
    )
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 1
        run_script(CORPUS["assoc-sym"])
    finally:
        tracer.uninstall()
    assert originals == (
        symsum.script.tokenize,
        symsum.script.parse,
        symsum.core.label_pool,
        symsum.core.PairSum.__init__,
    )
    total, own, calls = tracer.layer_times()
    for layer in ("script.tokenize", "script.parse", "script.build_script",
                  "rewrite.check_equiv", "rewrite.apply_rule", "script.render",
                  "core.label_pool", "invariants.expr_invariants"):
        assert calls[layer] >= 1, layer
        assert 0 <= own[layer] <= total[layer]
    assert calls["script.render"] == 2
    assert own["script.parse"] < total["script.parse"]  # tokenize is its child
    assert tracer.counts["script.tokenize.tokens"] > 0
    assert tracer.counts["core.nodes_created"] >= tracer.counts["script.build_script.nodes"] > 0
    assert tracer.counts["core.label_pool.visits"] >= calls["core.label_pool"]
    assert tracer.counts["areas.AreaValue.created"] > 0
    assert all(span[4] == 1 for span in tracer.spans)


def test_layer_notes_cover_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    assert set(notes["moves"]) == {m["name"] for m in spec["per_layer"]}
