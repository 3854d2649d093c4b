"""Span recording semantics: nesting, status, null recorder, capture."""

from repro.obs import NULL_RECORDER, ObsRecorder, capture
from repro.simcore import SimContext


def _recorder_with_clock():
    clock = {"t": 0.0}
    rec = ObsRecorder(label="t", clock=lambda: clock["t"])
    return rec, clock


def test_span_records_interval_on_its_track():
    rec, clock = _recorder_with_clock()
    s = rec.start("work", track="a", tag=1)
    clock["t"] = 5.0
    rec.finish(s)
    assert (s.start, s.end, s.status) == (0.0, 5.0, "ok")
    assert s.attrs == {"tag": 1}


def test_same_track_spans_nest_parent_child():
    rec, clock = _recorder_with_clock()
    outer = rec.start("outer", track="a")
    inner = rec.start("inner", track="a")
    other = rec.start("elsewhere", track="b")
    assert inner.parent_id == outer.id
    assert other.parent_id is None
    rec.finish(inner)
    sibling = rec.start("sibling", track="a")
    assert sibling.parent_id == outer.id


def test_track_none_gets_a_unique_single_use_track():
    rec, _ = _recorder_with_clock()
    a = rec.start("x")
    b = rec.start("x")
    assert a.track != b.track
    assert b.parent_id is None


def test_finish_is_idempotent():
    rec, clock = _recorder_with_clock()
    s = rec.start("w", track="a")
    rec.finish(s)
    clock["t"] = 9.0
    rec.finish(s, status="error")
    assert s.end == 0.0
    assert s.status == "ok"


def test_finish_open_closes_innermost_first():
    rec, clock = _recorder_with_clock()
    outer = rec.start("outer", track="a")
    inner = rec.start("inner", track="a")
    clock["t"] = 3.0
    closed = rec.finish_open("a", status="error", error="died")
    assert closed == 2
    assert inner.status == outer.status == "error"
    assert inner.end == outer.end == 3.0
    # fresh spans on the track start a new stack
    assert rec.start("again", track="a").parent_id is None


def test_null_recorder_is_inert_and_shared():
    s = NULL_RECORDER.start("anything", track="x", a=1)
    assert s is NULL_RECORDER.start("other")
    assert s.set(x=2) is s
    assert NULL_RECORDER.finish(s, status="error") is s
    NULL_RECORDER.instant("i")
    NULL_RECORDER.series("q").record(1.0)
    assert NULL_RECORDER.enabled is False
    assert NULL_RECORDER.spans == []
    assert NULL_RECORDER.to_dict()["spans"] == []


def test_obs_doc_holds_spans_instants_annotations_and_series_only():
    keys = {"label", "spans", "instants", "annotations", "series"}
    rec, _ = _recorder_with_clock()
    assert set(rec.to_dict()) == keys
    assert set(NULL_RECORDER.to_dict()) == keys


def test_simcontext_defaults_to_null_recorder():
    ctx = SimContext(seed=0)
    assert ctx.obs is NULL_RECORDER
    assert ctx.sim.obs is NULL_RECORDER


def test_simcontext_obs_true_records_on_sim_clock():
    ctx = SimContext(seed=0, obs=True)
    assert ctx.obs.enabled
    s = ctx.obs.start("w", track="a")
    ctx.sim.call_in(4.0, lambda: None)
    ctx.sim.run()
    ctx.obs.finish(s)
    assert s.end == 4.0


def test_capture_collects_every_context_built_inside():
    with capture() as cap:
        a = SimContext(seed=0)
        b = SimContext(seed=1)
        assert a.obs.enabled and b.obs.enabled
        assert a.obs is not b.obs
    assert cap.recorders == [a.obs, b.obs]
    assert [d["label"] for d in cap.to_docs()] == ["sim-0", "sim-1"]
    # outside the block, contexts are quiet again
    assert SimContext(seed=2).obs is NULL_RECORDER


def test_capture_nesting_restores_outer_capture():
    with capture() as outer:
        SimContext(seed=0)
        with capture() as inner:
            SimContext(seed=1)
        after_inner = SimContext(seed=2)
    assert len(inner.recorders) == 1
    assert len(outer.recorders) == 2
    assert outer.recorders[-1] is after_inner.obs
    # leaving the outermost block ends capture altogether
    assert SimContext(seed=3).obs is NULL_RECORDER


def test_explicit_recorder_wins_over_capture():
    mine = ObsRecorder(label="mine")
    with capture() as cap:
        ctx = SimContext(seed=0, obs=mine)
    assert ctx.obs is mine
    assert cap.recorders == []
