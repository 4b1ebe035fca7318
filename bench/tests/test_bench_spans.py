"""Span bookkeeping and the small statistics the ledger is built from."""

import threading
import time

import harness


def test_disabled_tracer_records_nothing():
    tracer = harness.Tracer(False)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.spans == []


def test_nested_spans_sit_inside_parents_with_non_negative_self_time():
    tracer = harness.Tracer(True)
    with tracer.span("op", job="a#0"):
        with tracer.span("build"):
            time.sleep(0.002)
        with tracer.span("run"):
            with tracer.span("inner"):
                time.sleep(0.002)
    by_id = {span["id"]: span for span in tracer.spans}
    for span in tracer.spans:
        assert span["end"] >= span["start"]
        assert span["job"] == "a#0"  # inherited from the operation
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    own = harness.self_times(tracer.spans)
    assert all(value >= 0.0 for value in own.values())
    (top,) = harness.top_level(tracer.spans)
    assert abs(sum(own.values()) - (top["end"] - top["start"])) < 1e-9


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 0, "name": "phase", "parent": None, "job": "p", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "submit", "parent": 0, "job": "x", "start": 1.0, "end": 6.0},
        {"id": 2, "name": "submit", "parent": 0, "job": "y", "start": 4.0, "end": 9.0},
    ]
    own = harness.self_times(spans)
    assert own[0] == 2.0  # 10 - |[1, 9]|, not 10 - 5 - 5
    assert own[1] == 5.0 and own[2] == 5.0


def test_spans_opened_on_other_threads_attach_to_the_given_parent():
    tracer = harness.Tracer(True)

    def client(parent):
        with tracer.span("submit", job="spec", parent=parent):
            time.sleep(0.001)

    with tracer.span("phase", job="hit") as phase:
        threads = [threading.Thread(target=client, args=(phase,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    children = harness.span_children(tracer.spans)
    assert len(children[phase]) == 2
    assert len({span["id"] for span in tracer.spans}) == 3


def test_percentile_is_nearest_rank_and_summarize_matches_statistics():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.90) == 90  # ten samples beyond it
    assert harness.percentile(values, 0.98) == 98
    assert harness.percentile([5.0], 0.9) == 5.0
    stats = harness.summarize([3.0, 1.0, 2.0, 4.0])
    assert stats["median"] == 2.5 and stats["n"] == 4
    assert stats["q1"] < stats["median"] < stats["q3"]
    assert harness.summarize([7.0]) == {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1, "values": [7.0],
    }
