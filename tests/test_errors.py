"""Every count, size, seed and rate an entry point takes is checked by
``require_int`` or ``require_real``: a bool, a string, None or a value of
the wrong kind is a ValidationError naming the argument, and a numpy
number is handed on as the plain value it equals."""

import json
import math
import re
from dataclasses import asdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hivemem.bank import MemoryBank
from hivemem.cli import task_family
from hivemem.controller import AdmissionPolicy
from hivemem.embeddings import HashingEmbedder
from hivemem.endpoint import EndpointConfig
from hivemem.errors import ValidationError, require_int, require_real
from hivemem.runtime import FinalMove, LearnedAdmission, MajorityAggregator, TaskSpec, run_episode
from hivemem.sim import SimTask
from hivemem.training import TrainConfig

_FAMILY = {"depth": 1, "width": 1, "overlap_count": 2}


class _Finisher:
    """A backend whose every team answers at once."""

    def next_move(self, team, query, history, visible_keys, rng):
        return FinalMove("done")


def _header(task=TaskSpec("t", "q"), k=2, seed=0) -> dict:
    trace = run_episode(task, k, _Finisher(), None, HashingEmbedder(8), MajorityAggregator(),
                        seed=seed)
    return trace.events[0]


def _sim_task(field, value):
    return getattr(SimTask(**{"seed": 1, **_FAMILY, field: value}), field)


def _train_config(field, value):
    return getattr(TrainConfig(**{field: value}), field)


def _endpoint(field, value):
    return getattr(EndpointConfig("http://localhost:1/v1", "m", **{field: value}), field)


# (entry point, argument as the error names it, a valid value, the entry
# point given a value, returning what it keeps or hands on of it)
INTS = [
    ("TaskSpec", "step_cap", 3, lambda v: TaskSpec("t", "q", step_cap=v).step_cap),
    ("run_episode", "k", 2, lambda v: _header(k=v)["k"]),
    ("run_episode", "seed", 3, lambda v: _header(seed=v)["seed"]),
    # run_episode reads the cap of any task, not only a TaskSpec's
    ("run_episode", "step_cap", 3,
     lambda v: _header(SimpleNamespace(task_id="t", query="q", step_cap=v))["cap"]),
    *[("SimTask", field, valid, lambda v, field=field: _sim_task(field, v))
      for field, valid in (("seed", 3), ("depth", 2), ("width", 2), ("overlap_count", 3),
                           ("distractor_count", 1), ("step_cap", 9),
                           ("pollution_recovery_steps", 2))],
    *[("TrainConfig", field, valid, lambda v, field=field: _train_config(field, v))
      for field, valid in (("group_size", 3), ("epochs", 2), ("replay_factor", 2),
                           ("seed", 3), ("k", 2))],
    ("task_family", "tasks.seed0", 3,
     lambda v: task_family({"seed0": v, "count": 1, "family": _FAMILY})[0].seed),
    ("task_family", "tasks.count", 2,
     lambda v: len(task_family({"seed0": 0, "count": v, "family": _FAMILY}))),
    ("AdmissionPolicy", "embed_dim", 3, lambda v: AdmissionPolicy(v, 2).embed_dim),
    ("AdmissionPolicy", "controller_dim", 2, lambda v: AdmissionPolicy(3, v).controller_dim),
    ("AdmissionPolicy", "seed", 3,
     lambda v: AdmissionPolicy(3, 2, seed=v).params["w_query"].tobytes()),
    ("HashingEmbedder", "dimension", 8, lambda v: HashingEmbedder(v).dimension),
    ("MemoryBank", "embedding_dim", 8, lambda v: MemoryBank(v).embedding_dim),
    ("EndpointConfig", "max_retries", 2, lambda v: _endpoint("max_retries", v)),
]
REALS = [
    ("LearnedAdmission", "temperature", 0.5,
     lambda v: LearnedAdmission(AdmissionPolicy(3, 2), mode="sampled", temperature=v).temperature),
    *[("SimTask", field, valid, lambda v, field=field: _sim_task(field, v))
      for field, valid in (("p_fail", 0.5), ("solve_cost", 2.0), ("retrieve_cost", 0.5),
                           ("pollution_step_surcharge", 2.0), ("pollution_fail_boost", 0.5),
                           ("pollution_corrupt_rate", 0.5))],
    *[("TrainConfig", field, valid, lambda v, field=field: _train_config(field, v))
      for field, valid in (("beta", 0.5), ("lambda_sparse", 0.5), ("sample_temperature", 0.5),
                           ("lr", 0.5), ("weight_decay", 0.5))],
    *[("EndpointConfig", field, valid, lambda v, field=field: _endpoint(field, v))
      for field, valid in (("timeout", 2.0), ("backoff_base", 0.5), ("temperature", 0.5))],
]


def _ids(table):
    return [f"{entry}.{name}" for entry, name, _, _ in table]


@pytest.mark.parametrize("bad", [True, 2.5, "3", None], ids=repr)
@pytest.mark.parametrize("entry, name, valid, call", INTS, ids=_ids(INTS))
def test_an_integer_argument_refuses_anything_but_an_integer(entry, name, valid, call, bad):
    # unchecked, TaskSpec(step_cap=2.5) headed a trace "cap": 2 whose teams
    # took 3 steps, and EndpointConfig(max_retries=1.5) failed every live team
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be"):
        call(bad)


@pytest.mark.parametrize("bad", [True, "3", None, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("entry, name, valid, call", REALS, ids=_ids(REALS))
def test_a_real_argument_refuses_anything_but_a_finite_real(entry, name, valid, call, bad):
    with pytest.raises(ValidationError, match=rf"^{re.escape(name)} must be finite"):
        call(bad)


@pytest.mark.parametrize("entry, name, valid, call, number",
                         [(*row, np.int64) for row in INTS] + [(*row, np.float32) for row in REALS],
                         ids=_ids(INTS) + _ids(REALS))
def test_a_numpy_number_is_handed_on_as_the_plain_value(entry, name, valid, call, number):
    plain, numpy = call(valid), call(number(valid))
    assert type(numpy) is type(plain) and numpy == plain


def test_a_train_config_of_numpy_ints_is_plain_json():
    config = TrainConfig(group_size=np.int32(3), seed=np.int64(3), k=np.uint8(2))
    assert json.loads(json.dumps(asdict(config)))["seed"] == 3


@pytest.mark.parametrize("value", [-1, -(10**400), np.bool_(True), 1.0, np.float64(1.0)])
def test_require_int_refuses(value):
    with pytest.raises(ValidationError, match="n must be an integer >= 0"):
        require_int("n", value, 0)


@pytest.mark.parametrize("value, above", [(0, True), (-0.5, False), (10**400, False),
                                          (np.bool_(False), False), (-math.inf, False)])
def test_require_real_refuses(value, above):
    with pytest.raises(ValidationError, match=f"x must be finite and {'>' if above else '>='} 0"):
        require_real("x", value, 0, above)


def test_the_checks_return_plain_values():
    assert require_int("n", np.uint64(2**63), 1) == 2**63
    assert type(require_real("x", Fraction(1, 4), 0)) is float
    assert require_real("x", 0, 0) == 0.0 and require_real("x", -1e300, -math.inf) == -1e300
