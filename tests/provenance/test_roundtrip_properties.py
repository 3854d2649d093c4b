"""Property tests: bundles round-trip losslessly and replay byte-identically.

Two layers: a cheap serialization property over arbitrary JSON-shaped
sections, with obs docs in the spans section (many examples), and an
end-to-end property that actually runs a random tiny scenario through
the harness, bundles it, and replays it (few examples — each one is two
full simulations).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_suite
from repro.provenance import ProvenanceBundle, build_bundle, replay, verify_bundle
from repro.provenance.bundle import calibration_section

from .conftest import tiny_suite

pytestmark = pytest.mark.bench

# JSON-safe leaves: ints, finite floats that survive a round trip, strings
_leaves = (
    st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12)
    | st.booleans()
    | st.none()
)
_json_docs = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

_num = st.integers(min_value=-(10**9), max_value=10**9) | st.floats(
    allow_nan=False, allow_infinity=False, width=32
)
_ids = st.integers(min_value=0, max_value=10**6)
_attrs = st.dictionaries(st.text(max_size=8), _json_docs, max_size=3)


def _recorded(span):
    """A span as the recorder closes it: never before it started."""
    if span["end"] is not None and span["end"] < span["start"]:
        span["start"], span["end"] = span["end"], span["start"]
    return span


def obs_docs(time=_num, names=st.text(max_size=12), min_spans=0):
    """Obs docs in the recorder's form (verify_bundle checks their
    schema), with JSON-shaped attrs: times drawn from ``time``, names
    from ``names``, spans ending no earlier than they start, and each
    series' points in the order of their times."""
    return st.fixed_dictionaries(
        {
            "label": names,
            "spans": st.lists(
                st.fixed_dictionaries(
                    {
                        "id": _ids, "name": names, "track": names, "start": time,
                        "end": st.none() | time, "parent_id": st.none() | _ids,
                        "cause_id": st.none() | _ids, "status": names,
                        "error": st.none() | names, "attrs": _attrs,
                    }
                ).map(_recorded),
                min_size=min_spans,
                max_size=3,
            ),
            "instants": st.lists(
                st.fixed_dictionaries(
                    {"name": names, "track": names, "time": time, "attrs": _attrs}
                ),
                max_size=2,
            ),
            "annotations": st.lists(
                st.fixed_dictionaries({"kind": names, "time": time, "attrs": _attrs}),
                max_size=2,
            ),
            "series": st.dictionaries(
                names,
                st.lists(st.tuples(time, _num).map(list), max_size=3).map(sorted),
                max_size=2,
            ),
        }
    )


@given(
    scenario=st.dictionaries(st.text(max_size=8), _json_docs, max_size=3),
    seeds=st.dictionaries(st.text(max_size=8), st.integers(0, 2**31), max_size=3),
    topology=st.lists(_json_docs, max_size=3),
    spans=st.lists(obs_docs(), max_size=3),
    sim=st.dictionaries(st.text(max_size=8), _json_docs, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip_is_lossless(scenario, seeds, topology, spans, sim):
    bundle = ProvenanceBundle(
        calibration=calibration_section(),
        scenario=json.loads(json.dumps(scenario)),
        seeds=json.loads(json.dumps(seeds)),
        topology=json.loads(json.dumps(topology)),
        spans=json.loads(json.dumps(spans)),
        sim=json.loads(json.dumps(sim)),
    )
    loaded = ProvenanceBundle.from_dict(json.loads(bundle.to_json()))
    assert loaded == bundle
    assert loaded.to_json() == bundle.to_json()
    assert loaded.digest() == bundle.digest()
    verify_bundle(loaded)  # honest round-tripped bundles always verify


@given(
    workers=st.integers(1, 3),
    transfers=st.integers(1, 3),
    jobs=st.integers(1, 6),
    seed=st.integers(0, 3),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_tiny_scenarios_replay_byte_identically(workers, transfers, jobs, seed):
    suite = tiny_suite(workers=workers, transfers=transfers, jobs=jobs, seed=seed)
    result = run_suite(suite, obs=True)
    assert result.ok
    bundle = build_bundle(result)
    loaded = ProvenanceBundle.from_dict(json.loads(bundle.to_json()))
    assert loaded == bundle
    report = replay(loaded)
    assert report.verified is True, (
        f"replay diverged for {workers=} {transfers=} {jobs=} {seed=}:"
        f" {report.divergence}"
    )
