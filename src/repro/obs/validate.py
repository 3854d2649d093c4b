"""Schema checks ``gp-replay`` runs over a bundle's obs docs and a run
directory's views.

* :func:`check_obs_docs` — a bundle's ``spans`` section: a list of
  :meth:`~repro.obs.recorder.ObsRecorder.to_dict` docs, every field the
  recorder writes present and of the type the exporters read (extra
  keys are ignored), so a malformed doc is a named error, never a crash
  while the views are derived;
* :func:`check_chrome_trace` — Chrome ``trace_event`` JSON: object with
  a ``traceEvents`` list, known phases (``X``/``i``/``M``), integer
  ``pid``/``tid``, finite non-negative ``ts``/``dur``, per (pid, tid)
  track monotone ``ts`` — the ordering Perfetto relies on;
* :func:`check_critpath` — critical-path documents: version/suite/
  contexts present, per-context segments contiguous and non-negative,
  segment durations summing to the makespan, layer totals matching the
  segments;
* :func:`check_timeseries` — gauge sample logs: one JSON object per line
  with ``context``/``series``/``t``/``value``, finite non-negative times,
  per-series times monotone non-decreasing.

Each returns a list of violations; empty means valid.
"""

from __future__ import annotations

import math

__all__ = ["check_chrome_trace", "check_critpath", "check_obs_docs", "check_timeseries"]

#: tolerance for "segment durations sum to the makespan" (sim-seconds)
_SUM_TOL = 1e-6

_PHASES = {"X", "i", "M"}


def _is_num(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


#: field types of obs doc records: (test, what a value must be)
_STR = (lambda v: isinstance(v, str), "a string")
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_NUM = (_is_num, "a finite number")
_OBJ = (lambda v: isinstance(v, dict), "an object")


def _or_null(kind: tuple) -> tuple:
    test, what = kind
    return (lambda v: v is None or test(v), f"{what} or null")


#: the fields the recorder writes in each record list of a doc
_RECORDS = {
    "spans": (
        ("id", _INT), ("name", _STR), ("track", _STR), ("start", _NUM),
        ("end", _or_null(_NUM)), ("parent_id", _or_null(_INT)),
        ("cause_id", _or_null(_INT)), ("status", _STR),
        ("error", _or_null(_STR)), ("attrs", _OBJ),
    ),
    "instants": (("name", _STR), ("track", _STR), ("time", _NUM), ("attrs", _OBJ)),
    "annotations": (("kind", _STR), ("time", _NUM), ("attrs", _OBJ)),
}

_MISSING = object()


def check_obs_docs(docs) -> list[str]:
    """Schema check for a list of obs docs (a bundle's ``spans`` section)."""
    if not isinstance(docs, list):
        return [f"obs docs must be a list, got {type(docs).__name__}"]
    errors: list[str] = []
    for i, doc in enumerate(docs):
        where = f"docs[{i}]"
        if not isinstance(doc, dict):
            errors.append(f"{where}: not an object")
            continue
        if not isinstance(doc.get("label"), str):
            errors.append(f"{where}: label must be a string")
        for key, fields in _RECORDS.items():
            records = doc.get(key)
            if not isinstance(records, list):
                errors.append(f"{where}: {key} must be a list")
                continue
            for k, record in enumerate(records):
                if not isinstance(record, dict):
                    errors.append(f"{where}.{key}[{k}]: not an object")
                    continue
                for name, (test, what) in fields:
                    value = record.get(name, _MISSING)
                    if not test(value):
                        got = "nothing" if value is _MISSING else repr(value)[:60]
                        errors.append(f"{where}.{key}[{k}]: {name} must be {what}, got {got}")
        series = doc.get("series")
        if not isinstance(series, dict):
            errors.append(f"{where}: series must be an object")
            continue
        for name, points in series.items():
            if not isinstance(points, list):
                errors.append(f"{where}.series[{name!r}]: not a list")
                continue
            for k, point in enumerate(points):
                if not (
                    isinstance(point, list)
                    and len(point) == 2
                    and _is_num(point[0])
                    and _is_num(point[1])
                ):
                    errors.append(
                        f"{where}.series[{name!r}][{k}]: must be a [t, value] pair"
                        " of finite numbers"
                    )
    return errors


def check_chrome_trace(doc) -> list[str]:
    """Return a list of schema violations (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    last_ts: dict[tuple, float] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int) or isinstance(ev.get(key), bool):
                errors.append(f"{where}: {key} must be an integer")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not _is_num(ts) or ts < 0:
            errors.append(f"{where}: ts must be a finite number >= 0, got {ts!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not _is_num(dur) or dur < 0:
                errors.append(f"{where}: dur must be a finite number >= 0, got {dur!r}")
        track = (ev.get("pid"), ev.get("tid"))
        prev = last_ts.get(track)
        if prev is not None and ts < prev:
            errors.append(
                f"{where}: ts went backwards on track pid={track[0]} "
                f"tid={track[1]} ({ts} < {prev})"
            )
        last_ts[track] = ts
    if not any(ev.get("ph") == "X" for ev in events if isinstance(ev, dict)):
        errors.append("trace contains no complete ('X') span events")
    return errors


def check_critpath(doc) -> list[str]:
    """Schema + invariant check for one ``.critpath.json`` document."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("version") != 1:
        errors.append(f"unknown critpath version {doc.get('version')!r}")
    contexts = doc.get("contexts")
    if not isinstance(contexts, list):
        return errors + ["missing 'contexts' list"]
    if not isinstance(doc.get("layers"), dict):
        errors.append("missing 'layers' object")
    for i, ctx in enumerate(contexts):
        where = f"contexts[{i}]"
        if not isinstance(ctx, dict):
            errors.append(f"{where}: not an object")
            continue
        segments = ctx.get("segments")
        if not isinstance(segments, list):
            errors.append(f"{where}: missing 'segments' list")
            continue
        makespan = ctx.get("makespan_s")
        if not _is_num(makespan) or makespan < 0:
            errors.append(f"{where}: makespan_s must be a finite number >= 0")
            continue
        total = 0.0
        layer_sums: dict[str, float] = {}
        prev_end = None
        for k, seg in enumerate(segments):
            sw = f"{where}.segments[{k}]"
            if not isinstance(seg, dict):
                errors.append(f"{sw}: not an object")
                continue
            start, end = seg.get("start"), seg.get("end")
            dur = seg.get("duration_s")
            if not (_is_num(start) and _is_num(end) and _is_num(dur)):
                errors.append(f"{sw}: start/end/duration_s must be finite numbers")
                continue
            if end < start or dur < 0:
                errors.append(f"{sw}: negative interval ({start} .. {end})")
            if abs((end - start) - dur) > _SUM_TOL:
                errors.append(f"{sw}: duration_s {dur} != end - start {end - start}")
            if prev_end is not None and abs(start - prev_end) > _SUM_TOL:
                errors.append(
                    f"{sw}: gap in coverage (starts at {start}, previous ended {prev_end})"
                )
            prev_end = end
            total += dur
            layer = seg.get("layer")
            if not isinstance(layer, str) or not layer:
                errors.append(f"{sw}: missing 'layer'")
            else:
                layer_sums[layer] = layer_sums.get(layer, 0.0) + dur
        if segments and abs(total - makespan) > _SUM_TOL:
            errors.append(
                f"{where}: segment durations sum to {total}, makespan_s is {makespan}"
            )
        declared = ctx.get("layers")
        if isinstance(declared, dict):
            for layer, seconds in layer_sums.items():
                if abs(declared.get(layer, 0.0) - seconds) > _SUM_TOL:
                    errors.append(
                        f"{where}: layers[{layer!r}] is {declared.get(layer)}, "
                        f"segments sum to {seconds}"
                    )
    return errors


def check_timeseries(lines: list[tuple[int, dict]]) -> list[str]:
    """Schema check over parsed ``.timeseries.jsonl`` lines.

    ``lines`` pairs each 1-based line number with its parsed object; the
    caller handles file-level empty/truncated errors.
    """
    errors: list[str] = []
    last_t: dict[tuple, float] = {}
    for lineno, point in lines:
        where = f"line {lineno}"
        if not isinstance(point, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("context", "series"):
            if not isinstance(point.get(key), str) or not point[key]:
                errors.append(f"{where}: {key} must be a non-empty string")
        t = point.get("t")
        if not _is_num(t) or t < 0:
            errors.append(f"{where}: t must be a finite number >= 0, got {t!r}")
            continue
        if not _is_num(point.get("value")):
            errors.append(f"{where}: value must be a finite number")
        key = (point.get("context"), point.get("series"))
        prev = last_t.get(key)
        if prev is not None and t < prev:
            errors.append(
                f"{where}: t went backwards for series {key[1]!r} ({t} < {prev})"
            )
        last_t[key] = t
    return errors
