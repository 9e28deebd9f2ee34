"""Line-delimited episode trace files (schema version 2).

One JSON object per line.  Event kinds and their required fields:

  header          schema, task_id, k, mode, cap, query, seed
  step            team, step, label, vt_start, vt_end,
                  agent_input, step_summary, agent_output
  decision        team, step, action, prob_yes, log_prob, fail_closed, mem_size
  admit           seq, entry_id, team, step, t_ns          (exactly these)
  retrieve        seq, entry_id, team, step, t_ns          (exactly these)
  failed_retrieve team, entry_id, vt
  team_end        team, step, status, answer, vt
  aggregate       answer, first_team, first_answer, vt
  score           agg_score, first_score   (appended by evaluation and training)

The events are the whole episode: ``EpisodeTrace.from_events`` rebuilds
its trace from them.  A step's ``decision`` and ``admit`` lines come
before its ``step`` line; ``mem_size`` is the size of the memory snapshot
the decision saw.  Every team ends with one ``team_end`` whose ``status``
is ``final``, ``failed``, ``cap_exhausted`` or ``move_limit``; its
``answer`` is the team's candidate answer (``""`` for ``failed``), or
null when the team leaves no candidate.  A file fails on a header whose
``schema`` is not 2; a schema-1 header also lacks ``query`` and ``seed``.

``admit``/``retrieve`` lines are emitted by the memory bank itself and
carry only the six fields above, so external tools can recompute memory
statistics bit-exactly from the file alone.

A file is written one line per event, each equal to
``json.dumps(event, sort_keys=True)``.  ``step``, ``decision``, ``admit``
and ``retrieve`` lines, about 96% of a trace, are formatted directly when
the event holds exactly its kind's fields with the types the runtime
writes; any other event is encoded by the JSON encoder.  An existing file
is overwritten in place and then cut to the new length, since truncating
it first makes the filesystem free its blocks and allocate them again (a
temporary file renamed over it costs as much: the old blocks are still
freed).  So a write cut short leaves the new lines followed by the old
file's bytes from that offset on, where truncation left a prefix of the
new lines; nothing is fsynced either way.  Such a file fails to read when
the old bytes start inside a line, and fails ``metrics_from_event_streams``
when they bring a second ``aggregate`` or ``score``.  A file is read as
bytes, one line at a time: orjson parses each line, and ``json.loads``
reads the lines orjson rejects (NaN or Infinity, a lone surrogate, a float
that overflows, invalid UTF-8, bad JSON) or parses to no object.  Two
whole-file guards send every line to ``json.loads``: a line holding 500 or
more ``[`` and ``{``, and a run of 19 digits not after a point.  So each
line gives what ``json.loads`` gives it, and the first bad line, invalid
UTF-8 and values nested too deep included, raises a ``SchemaError`` naming
that line.
"""

from __future__ import annotations

import json
import os
import stat
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Iterable

import orjson

from .errors import SchemaError

SCHEMA_VERSION = 2

_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "header": ("schema", "task_id", "k", "mode", "cap", "query", "seed"),
    "step": (
        "team", "step", "label", "vt_start", "vt_end", "agent_input", "step_summary",
        "agent_output",
    ),
    "decision": ("team", "step", "action", "prob_yes", "log_prob", "fail_closed", "mem_size"),
    "admit": ("seq", "entry_id", "team", "step", "t_ns"),
    "retrieve": ("seq", "entry_id", "team", "step", "t_ns"),
    "failed_retrieve": ("team", "entry_id", "vt"),
    "team_end": ("team", "step", "status", "answer", "vt"),
    "aggregate": ("answer", "first_team", "first_answer", "vt"),
    "score": ("agg_score", "first_score"),
}
_REQUIRED_SETS = {kind: frozenset(fields) for kind, fields in _REQUIRED_FIELDS.items()}

# json.dumps(event, sort_keys=True) builds a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True)
_INF = float("inf")
_STEP_KEYS = frozenset(("kind", *_REQUIRED_FIELDS["step"]))
_DECISION_KEYS = frozenset(("kind", *_REQUIRED_FIELDS["decision"]))
_BANK_KEYS = frozenset(("kind", *_REQUIRED_FIELDS["admit"]))


# Each returns the event's json.dumps(event, sort_keys=True) line, or None
# when the event is not exactly its kind's fields with the runtime's types
# (exact int, float, str or bool; -_INF < x < _INF keeps floats finite).
def _step_line(e: dict) -> str | None:
    if e.keys() != _STEP_KEYS:
        return None
    team, step, start, end = e["team"], e["step"], e["vt_start"], e["vt_end"]
    label, given = e["label"], e["agent_input"]
    summary, output = e["step_summary"], e["agent_output"]
    if not (type(team) is type(step) is int and type(start) is type(end) is float
            and -_INF < start < _INF and -_INF < end < _INF
            and type(label) is type(given) is type(summary) is type(output) is str):
        return None
    return (f'{{"agent_input": {_string(given)}, "agent_output": {_string(output)}, '
            f'"kind": "step", "label": {_string(label)}, "step": {step}, '
            f'"step_summary": {_string(summary)}, "team": {team}, "vt_end": {end!r}, '
            f'"vt_start": {start!r}}}')


def _decision_line(e: dict) -> str | None:
    if e.keys() != _DECISION_KEYS:
        return None
    team, step, size, action = e["team"], e["step"], e["mem_size"], e["action"]
    p_yes, log_prob, closed = e["prob_yes"], e["log_prob"], e["fail_closed"]
    if not (type(team) is type(step) is type(size) is int and type(action) is str
            and type(p_yes) is type(log_prob) is float
            and -_INF < p_yes < _INF and -_INF < log_prob < _INF and type(closed) is bool):
        return None
    return (f'{{"action": {_string(action)}, "fail_closed": {"true" if closed else "false"}, '
            f'"kind": "decision", "log_prob": {log_prob!r}, "mem_size": {size}, '
            f'"prob_yes": {p_yes!r}, "step": {step}, "team": {team}}}')


def _bank_line(e: dict) -> str | None:
    if e.keys() != _BANK_KEYS:
        return None
    kind, seq, entry_id = e["kind"], e["seq"], e["entry_id"]
    team, step, t_ns = e["team"], e["step"], e["t_ns"]
    if not type(seq) is type(entry_id) is type(team) is type(step) is type(t_ns) is int:
        return None
    return (f'{{"entry_id": {entry_id}, "kind": "{kind}", "seq": {seq}, "step": {step}, '
            f'"t_ns": {t_ns}, "team": {team}}}')


_DIRECT_LINES = {"step": _step_line, "decision": _decision_line, "admit": _bank_line,
                 "retrieve": _bank_line}


def validate_event(event: dict, line_number: int | None = None) -> dict:
    kind = event.get("kind")
    required = _REQUIRED_SETS.get(kind) if isinstance(kind, str) else None
    if required is None:
        raise SchemaError(f"unknown event kind {kind!r}", line_number)
    if not event.keys() >= required:
        missing = [f for f in _REQUIRED_FIELDS[kind] if f not in event]
        raise SchemaError(f"{kind} event missing fields {missing}", line_number)
    if kind == "header" and event["schema"] != SCHEMA_VERSION:
        raise SchemaError(f"header schema {event['schema']!r} is not {SCHEMA_VERSION}", line_number)
    return event


def write_events(path: str | Path, events: Iterable[dict]) -> None:
    """Write one ``json.dumps(event, sort_keys=True)`` line per event.

    ``step``, ``decision``, ``admit`` and ``retrieve`` events whose key set
    is exactly ``kind`` plus their required fields are formatted directly:
    keys sorted, strings through ``encode_basestring_ascii``, finite floats
    through ``float.__repr__``, ints and bools as JSON prints them.  Any
    other event, or one whose values are not of exactly those types (an int
    ``vt_start``, a NaN ``log_prob``, a str subclass), is encoded by the
    module's sort-keys encoder alone, so every line is byte-identical to
    ``json.dumps``.

    The file is created with mode ``0o666`` less the umask, as ``open(path,
    "w")`` creates it.  An existing one is overwritten in place and then
    truncated to the new length, so no old byte outlives a completed
    write; a write cut short leaves the new lines followed by the old
    bytes from that offset on.  A target that is not a regular file, such
    as ``/dev/null`` or a FIFO, is written and never truncated.  Nothing
    is fsynced.
    """
    lines = []
    for event in events:
        kind = event.get("kind")
        direct = _DIRECT_LINES.get(kind) if type(kind) is str else None
        line = direct(event) if direct is not None else None
        lines.append(_ENCODER.encode(event) if line is None else line)
    data = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    # Truncating to zero first makes the filesystem free the old blocks and
    # allocate new ones, an order of magnitude more than the write itself.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# orjson reads an integer outside [-2**63, 2**64) as a float; such an
# integer is a run of 19 or more digits.  A float as repr writes it holds
# such a run only after its point (1/7000 is 0.00014285714285714287).
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_LONG_RUN = b"0" * 19
# json.loads raises RecursionError on values nested about 1000 deep, which
# orjson 3.8.3 accepts; it crashed the process on 100,000 nested objects and
# 2,000,000 nested arrays.  Fewer "[" and "{" on a line bound its nesting.
_MAX_BRACKETS = 500


def _no_long_integer(data: bytes) -> bool:
    """False when ``data`` holds a run of 19 or more digits that does not
    follow a ``.``.

    With every digit mapped to ``0``, a run after a ``.`` shorter than 38
    digits holds 19 zeros once and ``.`` plus 19 zeros once; any other
    run of 19 or more adds to the first count alone.
    """
    zeros = data.translate(_ZERO_DIGITS)
    return zeros.count(_LONG_RUN) == zeros.count(b"." + _LONG_RUN)


def _shallow(data: bytes) -> bool:
    """Whether every line of ``data`` holds fewer than ``_MAX_BRACKETS``
    ``[`` and ``{`` together."""
    return data.count(b"[") + data.count(b"{") < _MAX_BRACKETS or all(
        line.count(b"[") + line.count(b"{") < _MAX_BRACKETS for line in data.split(b"\n"))


def _parse_line(line: str, line_number: int) -> dict:
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON ({exc.msg})", line_number) from exc
    except RecursionError as exc:  # arrays or objects nested about 1000 deep
        raise SchemaError("invalid JSON (nested too deep)", line_number) from exc
    if not isinstance(event, dict):
        raise SchemaError("event is not an object", line_number)
    return validate_event(event, line_number)


def read_events(path: str | Path) -> list[dict]:
    """Validated events of a trace file; raises SchemaError naming the bad line.

    orjson parses each line; a line it rejects or that parses to no object,
    or every line of a file the guards refuse, is stripped and parsed by
    ``json.loads``, so each gives what ``json.loads`` gives it.  Lines end
    at ``\\n``, ``\\r\\n`` or ``\\r``; blank lines are skipped, and line
    numbers count them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    use_orjson = _shallow(data) and _no_long_integer(data)
    events = []
    # keepends: a bad byte before a line end is reported as a whole-file
    # decode reports it ("invalid continuation byte", not "end of data")
    for i, raw in enumerate(data.splitlines(keepends=True), start=1):
        if use_orjson:
            try:
                event = orjson.loads(raw)
            except orjson.JSONDecodeError:
                pass  # json.loads reads what orjson rejects, or names the error
            else:
                if isinstance(event, dict):
                    events.append(validate_event(event, i))
                    continue
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"invalid UTF-8 ({exc.reason})", i) from exc
        if line:
            events.append(_parse_line(line, i))
    return events
