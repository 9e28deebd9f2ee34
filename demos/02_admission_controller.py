"""The admission controller: context assembly and YES/NO decisions.

The policy sees embeddings of the task query, the mean of the current
memory keys, and the mean of the step triplet (instruction, summary,
output), then emits a binary decision.  Untrained, it admits with probability exactly 0.5; sampling
temperature trades off exploration against determinism.
"""

import numpy as np

from hivemem import (
    AdmissionPolicy,
    HashingEmbedder,
    MemoryBank,
    StepTriplet,
    build_context,
)
from hivemem.controller import sample_binary_decision

provider = HashingEmbedder(dimension=32)
bank = MemoryBank(embedding_dim=32)
policy = AdmissionPolicy(embed_dim=32, controller_dim=16, seed=0)
print(f"policy has {policy.param_count} trainable parameters")

for i in range(3):
    summary = f"partial result {i} pinned down"
    bank.admit(summary, f"details of result {i}", provider.embed(summary), 1, i + 1)

triplet = StepTriplet(
    agent_input="verify the header row of the shared table",
    step_summary="header row verified against the schema",
    agent_output="all twelve columns match the documented layout",
)
context = build_context("reconcile the two data files", bank, triplet, provider)
print(f"context: query, step and the mean of {context.memory_sizes[0]} memory keys")

logits = policy.forward(context)[0][0]
greedy = sample_binary_decision(logits, "greedy")
print(f"greedy decision: {greedy.action} (prob_yes={greedy.prob_yes:.3f})")

rng = np.random.default_rng(7)
draws = [sample_binary_decision(logits, "sampled", rng, 1.2) for _ in range(2000)]
rate = sum(d.action == "YES" for d in draws) / len(draws)
print(f"sampled at T=1.2: empirical admit rate {rate:.3f} (untrained policy: ~0.5)")

# Decisions are pure functions of (parameters, context): rerunning greedy
# always reproduces the same answer.
assert sample_binary_decision(policy.forward(context)[0][0], "greedy") == greedy
print("greedy decisions are deterministic and order-invariant over memory keys")
