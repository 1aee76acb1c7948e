"""Tests of the benchmark's own arithmetic: percentiles, spans, ledger, ties.

Run with ``python3 -m pytest spqbench/tests -q`` from the repository root.
"""

import json
import os

import pytest

from spqbench import spans
from spqbench.common import (
    Ledger,
    Op,
    highest_supported_percentile,
    percentile,
    reported_percentile,
)
from spqbench.reference import answers_match
from spqbench.spans import Span, covered, group_under, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# --------------------------------------------------------------------- #
# percentile rule


@pytest.mark.parametrize("count, expected", [
    (0, None), (12, None), (99, None), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported_percentile(count) == expected


def test_percentile_below_ten_tail_samples_is_not_reported():
    values = [float(i) for i in range(1, 100)]
    assert reported_percentile(values, 90) is None
    assert reported_percentile(values + [100.0], 90) == 90.0
    assert reported_percentile(values[:19], 50) is None
    assert reported_percentile(values[:20], 50) == 10.0


def test_nearest_rank_percentile():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([7.0], 90) == 7.0


# --------------------------------------------------------------------- #
# self time


def _span(sid, parent, start, end, name="x"):
    return Span(sid, parent, None, name, start, end)


def test_self_time_of_nested_spans():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0),
    ]
    own = self_times(tree)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == tree[0].duration


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 6.0),
        _span(3, 1, 4.0, 8.0),
    ]
    assert self_times(tree)[1] == pytest.approx(3.0)


def test_child_running_past_its_parent_is_clipped():
    tree = [_span(1, None, 0.0, 5.0), _span(2, 1, 3.0, 9.0)]
    assert self_times(tree)[1] == pytest.approx(3.0)
    assert covered([(6.0, 9.0)], 0.0, 5.0) == 0.0


def test_groups_go_to_the_latest_enclosing_parent():
    first = _span(1, None, 0.0, 10.0)
    second = _span(2, None, 2.0, 9.0)
    matched = group_under([(1.0, 5.0, "a"), (3.0, 8.0, "b")], [first, second])
    assert matched == {1: "a", 2: "b"}


def test_recorder_links_parents_and_dumps(tmp_path):
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = spans.Recorder()
    recorder.wrap(Layer, "outer", "outer", front_door=True)
    recorder.wrap(Layer, "inner", "inner", attrs=lambda a, k, r: {"value": r})
    assert Layer().outer() == 2
    recorder.enabled = False
    Layer().outer()
    recorder.unpatch()
    inner, outer = recorder.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.rid == outer.rid is not None
    assert inner.attrs == {"value": 1}
    path = tmp_path / "spans.jsonl"
    recorder.dump(str(path), {"pool": {"requests": 1}})
    loaded, extra = spans.load_dump(str(path))
    assert [s.as_dict() for s in loaded] == [s.as_dict() for s in recorder.spans]
    assert extra == {"pool": {"requests": 1}}


# --------------------------------------------------------------------- #
# ledger


def test_ledger_reconciles_and_breaks_failures_down_by_kind():
    ledger = Ledger()
    outcomes = ["ok"] * 5 + ["error", "timeout", "shed", "wrong", "wrong", ""]
    ledger.add(Op("read", {}, outcome=outcome) for outcome in outcomes)
    summary = ledger.summary()
    assert summary["attempted"] == 11
    assert summary["ok"] == 5
    assert summary["failed"] == 6
    assert summary["attempted"] == summary["ok"] + summary["failed"]
    # An op that never finished counts as an error.
    assert summary["failed_by_kind"] == {"error": 2, "timeout": 1, "shed": 1, "wrong": 2}
    assert summary["failed_share"] == pytest.approx(6 / 11)


def test_empty_ledger():
    assert Ledger().summary()["failed_share"] == 0.0


# --------------------------------------------------------------------- #
# reference comparator

WANT = [("a", 0.9), ("b", 0.8), ("c", 0.5), ("d", 0.5)]


def test_exact_answers_always_match():
    assert answers_match(WANT, WANT, allow_ties=False)


def test_ties_at_the_kth_score_only_where_allowed():
    other_tie = [("a", 0.9), ("b", 0.8), ("c", 0.5), ("e", 0.5)]
    assert answers_match(other_tie, WANT, allow_ties=True)
    assert not answers_match(other_tie, WANT, allow_ties=False)


def test_ties_never_excuse_a_missing_higher_score_or_other_scores():
    missing_above = [("a", 0.9), ("x", 0.8), ("c", 0.5), ("d", 0.5)]
    other_scores = [("a", 0.9), ("b", 0.8), ("c", 0.5), ("e", 0.4)]
    duplicate = [("a", 0.9), ("b", 0.8), ("c", 0.5), ("c", 0.5)]
    shorter = WANT[:3]
    for got in (missing_above, other_scores, duplicate, shorter):
        assert not answers_match(got, WANT, allow_ties=True)


# --------------------------------------------------------------------- #
# the metric catalogue in BENCHMARK.json matches the code


def test_benchmark_json_lists_the_metrics_the_run_prints():
    from spqbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
