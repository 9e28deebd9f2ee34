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

A file is written with one encode of the whole event list and one write:
the encoded list is split into lines at the ``"}, {"`` between events when
that string occurs nowhere else, and is otherwise encoded one event at a
time.  It is read with one parse of its non-blank lines joined into a
JSON array when every such line starts with ``{``, ends with ``}`` and
holds no other brace, as written files do; that parse then gives each
line's own object.  Any other file, or one that parse rejects, is read
line by line, which names the first bad line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

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

    The encoded list joins the events, each as it encodes alone, with
    ``"}, {"``, a string that cannot overlap itself: when it occurs just
    n - 1 times, those joins are the line breaks; else each event is
    encoded alone (the empty list too).
    """
    events = list(events)
    text = _ENCODER.encode(events)[1:-1]
    if text.count("}, {") == len(events) - 1:
        text = text.replace("}, {", "}\n{") + "\n"
    else:
        text = "".join([_ENCODER.encode(event) + "\n" for event in events])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _one_object_per_line(body: str, lines: int) -> bool:
    """Whether each of the ``lines`` lines that ``body`` joins with a comma and
    a newline starts with ``{``, ends with ``}`` and holds no other brace.

    Then a successful parse of ``"[" + body + "]"`` gives exactly the objects
    each line parses to alone: a string cannot run past its line (JSON
    strings hold no raw newline), so each line's final brace closes its
    first, and no value can span two lines.
    """
    return (
        body.count("{") == body.count("}") == lines
        and body.count("},\n{") == lines - 1
        and body[:1] == "{"
        and body[-1:] == "}"
    )


def _parse_line(line: str, line_number: int) -> dict:
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON ({exc.msg})", line_number) from exc
    if not isinstance(event, dict):
        raise SchemaError("event is not an object", line_number)
    return validate_event(event, line_number)


def read_events(path: str | Path) -> list[dict]:
    """Validated events of a trace file; raises SchemaError naming the bad line.

    Blank lines are skipped; line numbers count them.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = map(str.strip, text.split("\n"))
    numbered = [(i, line) for i, line in enumerate(stripped, start=1) if line]
    body = ",\n".join([line for _, line in numbered])
    if _one_object_per_line(body, len(numbered)):
        try:
            events = json.loads("[" + body + "]")
        except (json.JSONDecodeError, RecursionError):
            pass  # line by line names the bad line, and nests one level less
        else:
            return [validate_event(e, i) for (i, _), e in zip(numbered, events)]
    return [_parse_line(line, i) for i, line in numbered]
