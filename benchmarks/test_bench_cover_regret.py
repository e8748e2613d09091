"""Cover regret — does the cost search pick a cover SQLite runs fast?

For each of the 16 ledger queries (``benchmarks/e2e``: S1-S3, Q1-Q13)
over the ledger's 100k-fact tier on SQLite, this executes the statement
of the cover GDL chose, of the plain UCQ, and of *every* cover the search
priced, and reports chosen ÷ best. It is the first, reduced regret table
of ROADMAP's cost-search item: one backend, one scale, the ``ext`` model.

Each statement is cut off after :data:`CAP_SECONDS` by a SQLite progress
handler and recorded as ``capped`` (the root cover of Q8 runs 8 s).
The chosen cover and the UCQ are timed best-of-three, the alternatives
once. Everything lands in ``BENCH_regret.json`` with the machine
fingerprint; only what is wide enough to hold on any machine is gated:
GDL's pick for Q10 runs in at most half its UCQ's time, and no query's
pick takes more than 1.5 × its UCQ. Both sides are the classical
reformulations, told of no empty predicate: pruned, the one-fragment
picks of S1–S3, Q3 and Q11 run their UCQ inside a ``WITH`` that costs
SQLite 1.2–1.5 × the bare UCQ, too close to the gate to hold.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from pathlib import Path
from time import perf_counter

from repro.cost.estimators import ExternalCoverCost
from repro.dllite.parser import parse_query
from repro.obda.system import OBDASystem
from repro.optimizer.gdl import gdl_search

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from run import fingerprint  # noqa: E402
from workloads import QUERIES, build_abox  # noqa: E402

SCALE, SEED = 100_000, 2016
CAP_SECONDS = 2.0
REGRET_JSON = "BENCH_regret.json"
#: Below this many milliseconds a ratio measures the clock, not the cover.
NOISE_FLOOR_MS = 5.0


def timed(connection: sqlite3.Connection, sql: str, repeats: int = 1):
    """Best wall time of *sql* in ms over *repeats*, fetch included, and
    whether the cap cut it off."""
    best = CAP_SECONDS * 1e3
    for _ in range(repeats):
        started = perf_counter()
        deadline = started + CAP_SECONDS
        connection.set_progress_handler(lambda: perf_counter() > deadline, 10_000)
        try:
            connection.execute(sql).fetchall()
        except sqlite3.OperationalError:  # interrupted by the handler
            return CAP_SECONDS * 1e3, True
        finally:
            connection.set_progress_handler(None, 0)
        best = min(best, (perf_counter() - started) * 1e3)
    return best, False


def test_cover_regret(tbox):
    started = perf_counter()
    rows = {}
    with OBDASystem(tbox, build_abox(SCALE, SEED), backend="sqlite") as system:
        # The backend keeps its one in-memory connection to itself; the
        # progress handler has to be installed on that very connection.
        connection = system.backend._connection
        translate = system.translator.translate
        for name, text in QUERIES.items():
            query = parse_query(text)
            estimator = ExternalCoverCost(
                tbox, system.cost_model, fragment_cache=system.reformulation_cache
            )
            estimator.priced = []
            chosen = gdl_search(query, tbox, estimator).cover
            # The search above is told of no empty predicate, so the UCQ
            # it is held against is the classical one too.
            ucq_sql = system.reformulate(query, strategy="ucq", prune=False).sql
            ucq_ms, _ = timed(connection, ucq_sql, repeats=3)
            covers = []
            for cover, estimate in estimator.priced:
                sql = translate(estimator.reformulate(cover))
                is_chosen = cover.key() == chosen.key()
                ms, capped = timed(connection, sql, repeats=3 if is_chosen else 1)
                covers.append(
                    {
                        "cover": str(cover),
                        "estimate": estimate,
                        "ms": round(ms, 3),
                        "capped": capped,
                        "sql_chars": len(sql),
                        "chosen": is_chosen,
                    }
                )
            gdl = next(row for row in covers if row["chosen"])
            best_ms = min([ucq_ms] + [row["ms"] for row in covers])
            rows[name] = {
                "cover": gdl["cover"],
                "gdl_ms": gdl["ms"],
                "ucq_ms": round(ucq_ms, 3),
                "ucq_sql_chars": len(ucq_sql),
                "best_ms": round(best_ms, 3),
                "chosen_over_best": round(gdl["ms"] / best_ms, 3),
                "covers_priced": len(covers),
                "capped": sum(row["capped"] for row in covers),
                "covers": covers,
            }
    elapsed = perf_counter() - started

    print()
    print(f"{'query':<5} {'gdl ms':>9} {'ucq ms':>9} {'best ms':>9} "
          f"{'chosen/best':>11} {'priced':>6} {'capped':>6}  chosen cover")
    for name, row in rows.items():
        print(f"{name:<5} {row['gdl_ms']:>9.1f} {row['ucq_ms']:>9.1f} "
              f"{row['best_ms']:>9.1f} {row['chosen_over_best']:>11.2f} "
              f"{row['covers_priced']:>6} {row['capped']:>6}  {row['cover']}")
    print(f"({elapsed:.1f} s; statements capped at {CAP_SECONDS:.0f} s)")
    Path(REGRET_JSON).write_text(
        json.dumps(
            {
                "scale": SCALE,
                "seed": SEED,
                "backend": "sqlite",
                "cost": "ext",
                "cap_seconds": CAP_SECONDS,
                "elapsed_s": round(elapsed, 2),
                "fingerprint": fingerprint({}),
                "queries": rows,
            },
            indent=1,
        )
    )

    assert rows["Q10"]["gdl_ms"] <= 0.5 * rows["Q10"]["ucq_ms"]
    for name, row in rows.items():
        assert row["gdl_ms"] <= max(1.5 * row["ucq_ms"], NOISE_FLOOR_MS), name
