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

A file is written one line per event, each equal to ``orjson.dumps(event,
option=OPT_SORT_KEYS)``: keys sorted, compact separators, strings as raw
UTF-8.  An event orjson refuses (an int outside 64 bits, a lone surrogate,
a non-str key) or whose line holds ``null`` (orjson's NaN and Infinity) is
written as ``json.dumps(event, sort_keys=True)`` instead.  An existing file
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

# The writer's fallback: json.dumps(event, sort_keys=True) without building
# a new encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True)
_ORJSON_OPTIONS = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


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
    """Write one ``orjson.dumps(event, option=OPT_SORT_KEYS)`` line per event.

    That is the event with its keys sorted, compact separators and strings
    as raw UTF-8.  The module's sort-keys JSON encoder, which writes
    ``json.dumps(event, sort_keys=True)``, encodes two kinds of event
    instead: one orjson refuses with a ``TypeError`` (an int outside 64
    bits, a lone surrogate, a non-str key, a numpy scalar or a float
    subclass), and one whose orjson line holds ``null``, since orjson
    writes NaN and ±Infinity as ``null`` where the JSON encoder keeps them.
    A ``None`` or a string holding ``null`` takes that path too.  So every
    event reads back as ``json.loads`` reads its line, and an event the
    JSON encoder cannot write raises as it does, before the file is opened.
    orjson also writes dataclasses, datetimes, enums and UUIDs, which the
    JSON encoder refuses; the runtime writes none of them.

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
        try:
            line = orjson.dumps(event, option=_ORJSON_OPTIONS)
        except TypeError:
            line = None
        if line is None or b"null" in line:
            line = (_ENCODER.encode(event) + "\n").encode("utf-8")
        lines.append(line)
    data = b"".join(lines)
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
