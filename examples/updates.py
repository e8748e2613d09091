"""Writes, materialized saturation and epoch-based cache invalidation.

A walkthrough of the update workload: load a university KB with
``materialize=True`` (the TBox is chased into the backend as extra stored
tuples), answer the same query with a reformulation strategy and with the
``sat``/``auto`` strategies, then insert and delete facts and watch

* answers stay exactly the certain answers (no stale state, including
  existential witnesses re-created when a real fact disappears),
* the data epoch advance on every effective write,
* cost-based plans get invalidated while ``sat`` plans survive.

Run:  python examples/updates.py
"""

from repro.obda.system import OBDASystem

TBOX = """
role advisor
role worksFor
GraduateStudent <= Student
Student <= Person
Professor <= Person
GraduateStudent <= exists advisor        # every grad student has an advisor
exists advisor- <= Professor             # advisors are professors
exists worksFor <= Person
"""

ABOX = """
GraduateStudent(zoe)
GraduateStudent(max)
advisor(max, ines)
Professor(ines)
worksFor(ines, cs_dept)
"""

QUERY = "q(x) <- GraduateStudent(x), advisor(x, y)"


def show(system: OBDASystem, label: str) -> None:
    print(f"\n-- {label} (epoch {system.data_epoch}) --")
    for strategy in ("gdl", "sat", "auto"):
        report = system.answer(QUERY, strategy=strategy)
        hit = "warm" if report.plan_cache_hit else "cold"
        extra = ""
        if report.choice.routing is not None:
            extra = f", routed to {report.choice.routing.routed_to}"
        print(f"  {strategy:>4} ({hit}{extra}): {sorted(report.answers)}")


def main() -> None:
    with OBDASystem.from_text(TBOX, ABOX, materialize=True) as system:
        # Zoe has no asserted advisor, but GraduateStudent <= exists
        # advisor materializes a labeled-null witness: she is a certain
        # answer of the advisor join anyway.
        show(system, "initial load (saturation materialized)")

        # --- insert: the delta chase derives only the consequences -----
        system.insert_facts(
            [
                ("GraduateStudent", "ada"),
                ("advisor", "ada", "grace"),
            ]
        )
        # grace is now entailed to be a Professor (range of advisor).
        report = system.answer("q(x) <- Professor(x)", strategy="sat")
        print(f"\nafter insert: professors = {sorted(report.answers)}")
        show(system, "after inserting ada and her advisor")

        # --- delete: over-delete + re-derive ----------------------------
        # Removing max's real advisor does NOT remove him from the
        # answers: he is still a GraduateStudent, so the existential
        # axiom re-fires with a fresh null witness.
        system.delete_facts([("advisor", "max", "ines")])
        show(system, "after deleting max's advisor edge")

        # --- epoch bookkeeping ------------------------------------------
        stats = system.plan_cache.stats()
        print(
            f"\nplan cache: {stats['entries']} entries, "
            f"{stats['stale']} stale plans dropped by writes"
        )
        # A write that changes nothing advances nothing.
        before = system.data_epoch
        system.insert_facts([("Professor", "ines")])  # already present
        print(
            f"no-op write: epoch {before} -> {system.data_epoch} "
            "(caches untouched)"
        )


if __name__ == "__main__":
    main()
