"""Observability tour: one traced query, its metrics, EXPLAIN ANALYZE.

Builds the paper's Example 1 knowledge base on a 4-shard backend
(forked worker processes where the platform supports them), answers one
query with tracing on, and prints:

* the query's span tree — parse → reformulate (cover search) →
  execute (per-shard, including spans shipped home from the forked
  workers) → decode;
* the `EXPLAIN ANALYZE` rendering of the chosen SQL (measured rows and
  per-node times next to the optimizer's estimates), and of a second
  query whose existential atom (``supervisedBy(y, z)``: ``z`` occurs
  nowhere else) the engine runs as a ``SemiJoin``;
* the unified metrics snapshot in Prometheus text format.

CI runs this after the benchmark smoke and uploads the output as a
build artifact, so every change ships one full example trace.

Run:  PYTHONPATH=src python examples/observability.py
"""

from repro.obda.system import OBDASystem
from repro.storage.process_workers import process_substrate_available

TBOX = """
role worksWith
role supervisedBy
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
"""

ABOX = """
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
"""

QUERY = "q(x) <- Researcher(x)"
EXISTENTIAL_QUERY = "q(x, y) <- worksWith(x, y), supervisedBy(y, z)"


def main() -> None:
    executor = "process" if process_substrate_available() else "serial"
    with OBDASystem.from_text(
        TBOX, ABOX, shards=4, executor=executor, trace=True
    ) as system:
        report = system.answer(QUERY)
        print(f"{QUERY}  ->  {sorted(report.answers)}")
        print(f"(4 shards, {executor} substrate, tracing on)\n")

        print("=== query trace " + "=" * 47)
        print(report.trace.render())

        print("\n=== EXPLAIN ANALYZE " + "=" * 43)
        print(system.backend.explain_text(report.choice.sql, analyze=True))

        existential = system.answer(EXISTENTIAL_QUERY)
        print(f"\n{EXISTENTIAL_QUERY}  ->  {sorted(existential.answers)}")
        print(system.backend.explain_text(existential.choice.sql, analyze=True))

        print("\n=== metrics (Prometheus exposition format) " + "=" * 20)
        print(system.metrics_prometheus(), end="")


if __name__ == "__main__":
    main()
