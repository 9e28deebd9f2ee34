"""Regenerate or verify the pinned files under hivebench/pinned/.

    python3 hivebench/pin.py checkpoint  # retrain policy.npz from train_config.json
    python3 hivebench/pin.py expected    # record the default seed's outputs of every workload
    python3 hivebench/pin.py check       # retrain and compare with policy.npz, bit for bit

Run from the root of a hivemem checkout.  ``expected`` must follow any
``checkpoint`` rewrite, since eval-learned runs the pinned policy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import workloads


def train_checkpoint(hm):
    """The policy ``train_config.json`` describes, trained from scratch."""
    cfg = json.loads(workloads.CHECKPOINT_CONFIG.read_text(encoding="utf-8"))
    tasks_cfg = cfg["tasks"]
    seeds = range(tasks_cfg["seed0"], tasks_cfg["seed0"] + tasks_cfg["count"])
    tasks = [hm.sim.generate_task(seed=s, **tasks_cfg["family"]) for s in seeds]
    policy = hm.controller.AdmissionPolicy(**cfg["policy"])
    provider = hm.embeddings.HashingEmbedder(cfg["policy"]["embed_dim"])
    hm.training.train(policy, tasks, provider, hm.training.TrainConfig(**cfg["train"]))
    return policy, provider


def checkpoint_matches(hm) -> list[str]:
    """Parameters that differ between a retrained policy and the stored checkpoint."""
    policy, _ = train_checkpoint(hm)
    stored, _ = hm.controller.AdmissionPolicy.load(str(workloads.CHECKPOINT))
    return [
        key for key in hm.controller.PARAM_KEYS
        if not np.array_equal(policy.params[key], stored.params[key])
    ]


def record_expected(hm) -> None:
    out_dir = Path(".bench_build") / "hivebench" / "pin"
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = {
        "seed": workloads.PINNED_SEED,
        "tolerances": {
            "decision_atol": workloads.DECISION_ATOL,
            "param_atol": workloads.PARAM_ATOL,
            "epoch_row_rtol": workloads.EPOCH_ROW_RTOL,
        },
        "workloads": {},
    }
    arrays = {}
    rollouts = workloads.RolloutLog(hm)
    for name in workloads.WORKLOADS:
        inputs = workloads.build_inputs(hm, name, workloads.PINNED_SEED)
        result = workloads.run_pass(hm, name, inputs, out_dir, rollouts, lambda: None)
        if result.problems or workloads.count_failed(result.traces):
            raise SystemExit(f"{name}: refusing to pin a failing pass: {result.problems}")
        expected["workloads"][name] = {
            "episodes": len(result.traces), **result.outputs, "quality": result.quality,
        }
        arrays.update({f"{name}.{key}": value for key, value in result.arrays.items()})
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    np.savez_compressed(workloads.EXPECTED_ARRAYS, **arrays)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ("checkpoint", "expected", "check"):
        sys.stderr.write(__doc__)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    import hivemem as hm

    if argv[0] == "checkpoint":
        policy, provider = train_checkpoint(hm)
        policy.save(str(workloads.CHECKPOINT), provider_name=provider.name)
    elif argv[0] == "expected":
        record_expected(hm)
    else:
        differing = checkpoint_matches(hm)
        if differing:
            sys.stderr.write(f"retrained checkpoint differs in {differing}\n")
            return 1
        print("pinned checkpoint regenerates bit for bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
