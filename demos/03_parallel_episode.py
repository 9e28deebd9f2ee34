"""One parallel episode, three ways: no memory, admit-everything, and the
difference sharing makes on a task with overlapping subtasks.

Three teams race the same derivation task under a deterministic
virtual-time scheduler, so runtimes are exact and reproducible.  The
episode runs the ``SimTask`` itself: its ``query`` and ``step_cap`` are
what every team works to.
"""

from hivemem import HashingEmbedder, MajorityAggregator, run_episode
from hivemem.sim import ScriptedBackend, generate_task, solve_counts, variant_policy

provider = HashingEmbedder(dimension=32)
task = generate_task(seed=11, depth=2, width=1, overlap_count=6, distractor_count=0, p_fail=0.1)
print(f"task {task.task_id}: shared chains {task.shared_chains}")

for name, rule in [("no memory", None), ("admit everything", variant_policy("add-all"))]:
    backend = ScriptedBackend(task, k=3)
    trace = run_episode(task, 3, backend, rule, provider, MajorityAggregator(), seed=5)
    score = task.scorer().score(trace.aggregate_answer)
    computations = sum(solve_counts(trace.events).values())
    kinds = [e["kind"] for e in trace.events]
    print(
        f"\n[{name}] score={score:.2f} virtual_runtime={trace.end_time:.0f} "
        f"steps={kinds.count('step')}"
    )
    print(f"  shared-subtask computations across teams: {computations}")
    print(f"  bank: {kinds.count('admit')} entries, {kinds.count('retrieve')} retrievals")
    print(f"  first finisher: team {trace.first_team} at t={min(c.finish_time for c in trace.candidates):.0f}")

print(
    "\nWith sharing, each overlapping subtask is computed once globally and the\n"
    "other teams retrieve it for a fraction of the cost; without it, every team\n"
    "re-derives everything."
)
