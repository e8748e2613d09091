"""The four workloads of the end-to-end ledger.

Every workload drives :class:`repro.obda.system.OBDASystem` through its
public API only, builds its data from
``repro.bench.datagen.stream_facts(scale, seed)``, and has the same life
cycle (see :func:`run_workload`): set up (several times, for a median
``setup_s``), measure for the given budget, sample memory, close, check
for leaks, then verify every answer against :mod:`oracle`.

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README; the class docstrings say what one run does.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import threading
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.datagen import stream_facts
from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.abox import ABox
from repro.dllite.parser import parse_query
from repro.obda.system import OBDASystem
from repro.reformulation.perfectref import perfectref_invocations
from repro.serving.http import ServingEndpoint

import oracle
from spans import Recorder

#: The benchmark owns its inputs: S1-S3 are the superclass queries of
#: ``benchmarks/test_bench_scale.py::SCALE_QUERIES``, Q1-Q13 the texts of
#: ``repro.bench.queries`` — copied, so that editing either cannot
#: silently change what this ledger measures.
QUERIES: Dict[str, str] = {
    "S1": "q(x) <- Student(x), takesCourse(x, y)",
    "S2": "q(x) <- Professor(x), worksFor(x, y)",
    "S3": "q(x, y) <- Article(x), publicationAuthor(x, y)",
    "Q1": (
        "q(x) <- GraduateStudent(x), advisor(x, a), receivedAward(x, w), "
        "attends(x, e), organizes(x, v), collaboratesWith(x, f)"
    ),
    "Q2": (
        "q(x) <- Professor(x), worksFor(x, y), Department(y), "
        "subOrganizationOf(y, u)"
    ),
    "Q3": "q(x) <- Publication(x), publicationAuthor(x, y)",
    "Q4": (
        "q(x, y) <- Professor(x), teacherOf(x, y), GraduateCourse(y), "
        "offersCourse(d, y)"
    ),
    "Q5": (
        "q(x) <- Article(x), publicationAuthor(x, y), FullProfessor(y), "
        "worksFor(y, d), Department(d)"
    ),
    "Q6": (
        "q(x, y) <- Student(x), advisor(x, y), FullProfessor(y), "
        "enrolledIn(x, p), worksFor(y, d)"
    ),
    "Q7": (
        "q(x) <- Department(x), orgPublication(x, p), JournalArticle(p), "
        "publicationResearch(p, r), Research(r), subOrganizationOf(x, u)"
    ),
    "Q8": (
        "q(x, y) <- Department(x), subOrganizationOf(x, u), University(u), "
        "worksFor(y, x), Professor(y), teacherOf(y, c), GraduateCourse(c)"
    ),
    "Q9": "q(x) <- Person(x), worksFor(x, o), Department(o)",
    "Q10": (
        "q(s, p) <- GraduateStudent(s), takesCourse(s, c), GraduateCourse(c), "
        "teacherOf(p, c), FullProfessor(p), worksFor(p, d), Department(d), "
        "subOrganizationOf(d, u), University(u), advisor(s, p)"
    ),
    "Q11": "q(x, y) <- Employee(x), worksFor(x, y)",
    "Q12": (
        "q(x) <- Chair(x), worksFor(x, y), Department(y), "
        "subOrganizationOf(y, u), University(u)"
    ),
    "Q13": (
        "q(x, y) <- Article(p), publicationAuthor(p, x), FullProfessor(x), "
        "publicationAuthor(p, y), DoctoralStudent(y), advisor(y, x)"
    ),
}
QSET_ALL: Tuple[str, ...] = tuple(QUERIES)
#: Q1, Q6 and Q13 return no answer on the streamed generator's
#: vocabulary; timing them times dispatch, not work.
QSET_NONEMPTY: Tuple[str, ...] = tuple(
    name for name in QUERIES if name not in ("Q1", "Q6", "Q13")
)

#: ``--quick``: the 1k tier, fixed step counts, and only the queries
#: whose reformulation takes a few ms — a whole ledger in seconds.
QUICK_SCALE = 1_000
QUICK_QUERIES = ("S1", "S2", "S3", "Q3", "Q4", "Q11")
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Counts a traced ``answer`` span carries; reported as means per
#: operation under the same names.
ANSWER_COUNTS = (
    "perfectref_invocations",
    "ucq_disjuncts",
    "covers_explored",
    "cost_estimations",
    "sql_chars",
    "rows_out",
    "batches",
)
WRITE_KINDS = ("insert", "delete")


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0 for an empty sample."""
    return sum(values) / len(values) if values else 0.0


def typical_rate(grouped: Dict[str, List[float]]) -> float:
    """Operations per second had every operation taken the median
    latency of its kind: operations / sum over kinds of (count x
    median). Unlike operations / elapsed, one stalled operation does
    not move it."""
    operations = sum(len(values) for values in grouped.values())
    typical_ms = sum(
        len(values) * statistics.median(values) for values in grouped.values()
    )
    return operations / (typical_ms / 1e3)


def build_abox(
    scale: int, seed: int, extra: Iterable[Tuple[str, ...]] = ()
) -> ABox:
    """The ABox of ``stream_facts(scale, seed)`` plus *extra* assertion
    tuples (``(concept, individual)`` / ``(role, subject, object)``)."""
    abox = ABox()
    for fact in stream_facts(scale, seed):
        if fact[0] == "c":
            abox.add_concept(fact[1], fact[2])
        else:
            abox.add_role(fact[1], fact[2], fact[3])
    for assertion in extra:
        if len(assertion) == 2:
            abox.add_concept(*assertion)
        else:
            abox.add_role(*assertion)
    return abox


def settle() -> None:
    """Collect garbage now, outside the timed section, so the full
    collection that set-up made due does not land on the first timed
    operations. The collector is otherwise left alone: at the 1M tier
    most of the slow queries' time is full collections walking the
    loaded data (``gc_ms``), and that is a cost callers do pay."""
    gc.collect()


def current_rss_mb() -> float:
    """Resident set size right now (not the high-water mark)."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """This process's resident high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_rss_mb() -> float:
    """Summed resident high-water marks of this process's live children
    (the forked shard workers)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # exited between listing and reading
    return total_kb / 1024.0


def disjunct_count(reformulation: object) -> int:
    """Size of a chosen reformulation: union arms summed over the join
    components of a JUCQ, arms of a UCQ, 1 for a plain CQ."""
    if hasattr(reformulation, "total_disjuncts"):
        return reformulation.total_disjuncts()
    if hasattr(reformulation, "disjuncts"):
        return len(reformulation.disjuncts)
    return 1


class Budget:
    """How long a timed section runs: wall seconds, or — in ``--quick``
    mode, so that counts repeat exactly — a fixed number of steps."""

    def __init__(self, seconds: float, steps: Optional[int] = None) -> None:
        self.seconds = seconds
        self.steps = steps
        self.started = perf_counter()

    def start(self) -> None:
        """(Re)start the clock."""
        self.started = perf_counter()

    def more(self, done: int, minimum: int = 1) -> bool:
        """Whether to begin step number *done* (0-based)."""
        if done < minimum:
            return True
        if self.steps is not None:
            return done < self.steps
        return perf_counter() - self.started < self.seconds


# ---------------------------------------------------------------------------
# The workload life cycle
# ---------------------------------------------------------------------------
class Workload:
    """State and steps shared by the four workloads."""

    name = ""
    scale = 100_000
    #: Constructor arguments of the system under test. Every knob a
    #: ``REPRO_*`` variable could set is passed here explicitly.
    system_kwargs: Dict = {}
    strategy = "gdl"
    queries: Tuple[str, ...] = QSET_ALL
    #: Steps of the timed section in ``--quick`` mode.
    quick_steps = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, quick: bool, recorder: Optional[Recorder]) -> None:
        self.seed = seed
        self.quick = quick
        if quick:
            self.scale = QUICK_SCALE
            self.queries = tuple(q for q in self.queries if q in QUICK_QUERIES)
        self.rec = recorder
        self.system: Optional[OBDASystem] = None
        self.abox: Optional[ABox] = None
        self.facts = 0
        self.setups: List[Dict[str, float]] = []
        self.attempted = 0
        self.problems: List[str] = []
        #: ``(kind, ms, key)`` per completed operation; *key* identifies
        #: the output, :meth:`verify` decides which keys were right.
        self.untraced: List[Tuple[str, float, Optional[str]]] = []
        self.traced: List[Tuple[str, float, Optional[str]]] = []
        self.errors = 0
        self.wrong = 0
        self.good_keys: Dict[str, set] = {}
        self.answer_counts: Dict[str, int] = {}
        self.detail: Dict[str, Dict] = {}

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Generate the facts, build the ABox, construct the system up
        to ready-to-serve. Appends one record to ``self.setups``."""
        rss_before = current_rss_mb()
        started = perf_counter()
        self.abox = build_abox(self.scale, self.seed)
        generated = perf_counter()
        self.facts = len(self.abox)
        record = {"generate_s": generated - started}
        self.construct(record)
        record["setup_s"] = perf_counter() - started
        record["construct_s"] = record["setup_s"] - record["generate_s"]
        record["rss_delta_mb"] = current_rss_mb() - rss_before
        self.setups.append(record)
        if self.rec is not None:
            self.instrument()

    def construct(self, record: Dict[str, float]) -> None:
        """Build ``self.system`` from ``self.abox`` (a fresh TBox each
        time, so no TBox-keyed cache survives from an earlier build)."""
        self.system = OBDASystem(
            lubm_exists_tbox(), self.abox, **self.system_kwargs
        )

    def instrument(self) -> None:
        """Install the traced pass's instance-level timing wrappers.
        They record only inside an open operation of the recorder."""
        rec, system = self.rec, self.system
        rec.wrap(system.translator, "translate", "translate")
        rec.wrap(
            system.backend,
            "execute",
            "execute",
            lambda span, rows: span.update(rows_out=len(rows)),
        )
        rec.wrap(system.backend, "apply_changes", "apply_changes")
        rec.wrap(system.statistics, "refresh_predicate", "stats_refresh")
        # The one reach past the public API: the saturator has no
        # accessor, and its insert/delete are the materialize layer.
        saturator = getattr(system, "_saturator", None)
        if saturator is not None:
            rec.wrap(saturator, "insert", "sat_insert")
            rec.wrap(saturator, "delete", "sat_delete")

    def close(self) -> None:
        """Close what :meth:`setup` opened and let it be collected."""
        if self.system is not None:
            self.system.close()
            self.system = None
        self.abox = None
        gc.collect()

    # -- operations ----------------------------------------------------
    def answer_once(
        self, kind: str, text: str, traced: bool, check: bool = True
    ) -> Optional[Tuple[float, Optional[str]]]:
        """Answer one query, timed: ``(wall ms, answer key)``, or None
        when it raised (counted as failed). The answer digest is taken
        outside the timed interval."""
        self.attempted += 1
        try:
            if traced:
                answers, ms = self.staged_answer(kind, text)
            else:
                started = perf_counter()
                report = self.system.answer(text, strategy=self.strategy)
                ms = (perf_counter() - started) * 1e3
                answers = report.answers
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        if not check:
            return ms, None
        found = oracle.digest(answers)
        self.answer_counts[kind] = found["answers"]
        return ms, found["sha256"]

    def read(self, kind: str, text: str, traced: bool, check: bool = True) -> None:
        """:meth:`answer_once`, recorded as a sample."""
        result = self.answer_once(kind, text, traced, check)
        if result is not None:
            (self.traced if traced else self.untraced).append((kind, *result))

    def fail(self, problem: str) -> None:
        """Count one failed operation; keep the first few reasons."""
        self.errors += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def staged_answer(self, kind: str, text: str):
        """``answer()`` replayed stage by stage through the public API,
        one span per stage: parse -> reformulate (translate inside, by
        wrapper) -> execute (by wrapper, inside ``execute_choice``) ->
        decode (from the end of execute to the end of
        ``execute_choice``)."""
        rec = self.rec
        invocations = perfectref_invocations()
        with rec.span("answer", query=kind) as root:
            with rec.span("parse"):
                query = parse_query(text)
            with rec.span("reformulate"):
                choice = self.system.reformulate(query, strategy=self.strategy)
            answers = self.system.execute_choice(query, choice)
            done = perf_counter()
            executed = rec.last("execute", root["op"])
            rec.add("decode", executed["end"], done, root)
        search = choice.search
        execution = getattr(self.system.backend, "last_execution", None)
        root.update(
            plan_cache_hit=choice.plan_cache_hit,
            perfectref_invocations=perfectref_invocations() - invocations,
            ucq_disjuncts=disjunct_count(choice.reformulation),
            covers_explored=search.total_covers_explored if search else 0,
            cost_estimations=search.cost_estimations if search else 0,
            sql_chars=len(choice.sql),
            rows_out=executed["rows_out"],
            batches=getattr(execution, "batches", 0) or 0,
        )
        self.last_root = root
        return answers, (root["end"] - root["start"]) * 1e3

    # -- the steps subclasses fill in -----------------------------------
    def measure(self, budget: Budget) -> None:
        """The timed section."""
        raise NotImplementedError

    def verify(self) -> None:
        """Decide, per operation kind, which output keys were right
        (``self.good_keys``). Runs after memory was sampled and the
        system closed, so the oracle's own memory is not measured."""
        expected = self.base_oracle_digests(self.queries)
        for name in self.queries:
            self.good_keys[name] = {expected[name]["sha256"]}

    def base_oracle_digests(self, names: Sequence[str]) -> Dict[str, Dict]:
        """Oracle digests of named queries over the generated data (a
        fresh ABox, not the one the system held): pinned ones when this
        (scale, seed) is pinned."""
        pinned = oracle.load_expected(self.scale, self.seed)
        if pinned is not None and all(name in pinned for name in names):
            return pinned
        truth = oracle.Oracle(lubm_exists_tbox(), build_abox(self.scale, self.seed))
        return {
            name: oracle.digest(truth.answers(parse_query(QUERIES[name])))
            for name in names
        }

    def end_to_end(self, good: List[Tuple[str, float]]) -> Dict[str, float]:
        """``latency_ms``, ``tail_ms``, ``ops_per_s`` from the verified
        untraced samples; also fills ``self.detail``."""
        raise NotImplementedError

    # -- shared metric assembly ----------------------------------------
    def good_samples(self, samples) -> List[Tuple[str, float]]:
        """Samples whose output verified; counts the rest as wrong."""
        good = []
        for kind, ms, key in samples:
            if key is None or key in self.good_keys.get(kind, ()):
                good.append((kind, ms))
            else:
                self.wrong += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{kind}: wrong answer")
        return good

    def per_kind(self, samples: List[Tuple[str, float]]) -> Dict[str, List[float]]:
        """Group ``(kind, ms)`` samples by kind, keeping order."""
        grouped: Dict[str, List[float]] = {}
        for kind, ms in samples:
            grouped.setdefault(kind, []).append(ms)
        return grouped

    def query_rows(self, grouped: Dict[str, List[float]]) -> Dict[str, Dict]:
        """The per-query detail rows (median, max, n, answers)."""
        return {
            name: {
                "median_ms": statistics.median(values),
                "max_ms": max(values),
                "n": len(values),
                "answers": self.answer_counts.get(name),
            }
            for name, values in grouped.items()
            if name not in WRITE_KINDS
        }

    def pairs(self, good_untraced, good_traced) -> List[Tuple[str, float, float]]:
        """``(kind, traced ms, untraced ms)`` per operation kind measured
        both ways, each side a median."""
        untraced = self.per_kind(good_untraced)
        traced = self.per_kind(good_traced)
        return [
            (kind, statistics.median(traced[kind]), statistics.median(values))
            for kind, values in untraced.items()
            if kind in traced
        ]

    def shard_layer(self) -> Dict[str, float]:
        """The sharded-storage metrics; all 0 on an unsharded system."""
        return {
            "route_pruned_ratio": 0.0,
            "shm_bytes_per_request": 0.0,
            "worker_rss_mb": 0.0,
        }

    def per_layer(self, pairs) -> Dict[str, float]:
        """The ``--trace 1`` metrics, from the recorder's spans. Times
        and counts are means per traced ``answer`` operation, so layer
        times add up to the mean operation wall time."""
        rec = self.rec
        layers = rec.per_operation()
        roots = [span for span in rec.spans if span["parent"] is None]
        answers = [span for span in roots if span["name"] == "answer"]
        writes = [span for span in roots if span["name"] in WRITE_KINDS]

        def layer_mean(operations, layer: str) -> float:
            return mean([layers[op["id"]].get(layer, 0.0) for op in operations])

        metrics = {
            "parse_ms": layer_mean(answers, "parse"),
            "reformulate_ms": layer_mean(answers, "reformulate"),
            "execute_ms": layer_mean(answers, "execute"),
            "decode_ms": layer_mean(answers, "decode"),
        }
        metrics["gc_ms"] = mean([span.get("gc_ms", 0.0) for span in answers])
        for count in ANSWER_COUNTS:
            metrics[count] = mean([span[count] for span in answers])
        metrics["plan_cache_hit_ratio"] = mean(
            [1.0 if span["plan_cache_hit"] else 0.0 for span in answers]
        )
        reads = [pair for pair in pairs if pair[0] not in WRITE_KINDS]
        metrics["facade_self_ms"] = mean(
            [untraced - traced for _, traced, untraced in reads]
        )
        metrics["trace_overhead_ratio"] = sum(p[1] for p in pairs) / sum(
            p[2] for p in pairs
        )
        first = self.setups[0]
        metrics["load_rows_per_s"] = self.facts / first["construct_s"]
        metrics["bytes_per_fact"] = first["rss_delta_mb"] * 2**20 / self.facts
        metrics.update(self.shard_layer())

        # Workload-specific layer times and the share table (detail).
        named = self.detail["named"]
        named["translate_ms"] = [layer_mean(answers, "translate"), "ms"]
        if writes:
            inserts = [op for op in writes if op["name"] == "insert"]
            deletes = [op for op in writes if op["name"] == "delete"]
            named.update(
                apply_changes_ms=[layer_mean(writes, "apply_changes"), "ms"],
                stats_refresh_ms=[layer_mean(writes, "stats_refresh"), "ms"],
                sat_insert_ms=[layer_mean(inserts, "sat_insert"), "ms"],
                sat_delete_ms=[layer_mean(deletes, "sat_delete"), "ms"],
                write_self_ms=[layer_mean(writes, "self"), "ms"],
            )
        walls: Dict[str, float] = {}
        tables: Dict[str, Dict[str, float]] = {}
        for op in roots:
            table = tables.setdefault(op["name"], {})
            spent = dict(layers[op["id"]])
            spent["(gc, inside the layers)"] = op.get("gc_ms", 0.0)
            for layer, ms in spent.items():
                table[layer] = table.get(layer, 0.0) + ms
            walls[op["name"]] = walls.get(op["name"], 0.0) + 1e3 * (
                op["end"] - op["start"]
            )
        self.detail["self_time_share"] = {
            name: {layer: ms / walls[name] for layer, ms in table.items()}
            for name, table in tables.items()
        }
        return metrics


class RoundsWorkload(Workload):
    """Rounds over a fixed query set, every query once per round, in
    fixed order. With tracing, untraced and traced rounds alternate."""

    #: Build a fresh TBox + system before every round (plan-cache cold).
    fresh_per_round = False

    def measure(self, budget: Budget) -> None:
        if not self.fresh_per_round:
            for name in self.queries:  # warm-up round: fills the plan cache
                self.system.answer(QUERIES[name], strategy=self.strategy)
        settle()
        budget.start()
        # Three rounds at least, so a per-query median can drop an
        # outlier; traced runs alternate, two rounds each way.
        minimum = 4 if self.rec is not None else 3
        done = 0
        while budget.more(done, minimum):
            if self.fresh_per_round and done:
                self.close()
                self.setup()
                settle()
            traced = self.rec is not None and done % 2 == 1
            for name in self.queries:
                self.read(name, QUERIES[name], traced)
            done += 1
        self.rounds = done

    def end_to_end(self, good):
        grouped = self.per_kind(good)
        medians = [statistics.median(values) for values in grouped.values()]
        metrics = {
            "latency_ms": statistics.geometric_mean(medians),
            "tail_ms": max(medians),
            "ops_per_s": typical_rate(grouped),
        }
        self.detail["named"] = {
            "answer_ms_geomean": [metrics["latency_ms"], "ms"],
            "slowest_query_ms": [metrics["tail_ms"], "ms"],
            "queries_per_s": [metrics["ops_per_s"], "1/s"],
        }
        self.detail["samples"] = {"rounds": self.rounds}
        self.detail["queries"] = self.query_rows(grouped)
        return metrics


class ColdSqlite100k(RoundsWorkload):
    """~100k facts on SQLite, GDL; every round builds a fresh TBox and
    system (untimed, each build a ``setup_s`` sample) and answers
    qset-all once — every query a plan-cache miss."""

    name = "cold_sqlite_100k"
    system_kwargs = {"backend": "sqlite"}
    fresh_per_round = True


class WarmMemory1m(RoundsWorkload):
    """~1M facts on the in-repo engine, GDL; one untimed warm-up round,
    then timed rounds over qset-nonempty — every query a plan-cache hit."""

    name = "warm_memory_1m"
    scale = 1_000_000
    system_kwargs = {"backend": "memory"}
    queries = QSET_NONEMPTY
    setup_repeats = 2  # ~6 s each; a third would not fit the time cap


class ChurnSat100k(Workload):
    """~100k facts, materialized saturation, reads with ``auto``. Each
    iteration inserts a seeded 6-fact student, reads, and — once 20
    batches are live — deletes the oldest and reads again, so the data
    size is stationary. Reads go round-robin over qset-nonempty."""

    name = "churn_sat_100k"
    system_kwargs = {"backend": "memory"}
    strategy = "auto"
    queries = QSET_NONEMPTY
    quick_steps = 30
    live_batches = 20

    def construct(self, record):
        super().construct(record)
        started = perf_counter()
        self.system.enable_materialization()
        record["saturate_s"] = perf_counter() - started

    def batch(self, index: int, rng: random.Random, people) -> List[Tuple[str, ...]]:
        student = f"ChurnStudent{self.seed}_{index}"
        return [
            ("GraduateStudent", student),
            ("advisor", student, rng.choice(people["professors"])),
            *(
                ("takesCourse", student, course)
                for course in rng.sample(people["graduate_courses"], 4)
            ),
        ]

    def write(self, kind: str, batch, traced: bool) -> None:
        """One timed ``insert_facts`` / ``delete_facts``; the return
        count must equal the batch size."""
        call = (
            self.system.insert_facts
            if kind == "insert"
            else self.system.delete_facts
        )
        self.attempted += 1
        try:
            started = perf_counter()
            if traced:
                with self.rec.span(kind):
                    changed = call(batch)
            else:
                changed = call(batch)
            ms = (perf_counter() - started) * 1e3
        except Exception as exc:  # counted, not fatal
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return
        if changed != len(batch):
            self.fail(f"{kind}: changed {changed} of {len(batch)} facts")
            return
        (self.traced if traced else self.untraced).append((kind, ms, None))

    def measure(self, budget: Budget) -> None:
        people = individuals(self.scale, self.seed)
        rng = random.Random(self.seed)
        self.live: deque = deque()
        names = itertools.cycle(self.queries)
        for name in self.queries:  # warm-up: fills the fragment caches
            self.system.answer(QUERIES[name], strategy=self.strategy)
        settle()
        budget.start()
        minimum = 2 * len(self.queries) if self.rec is not None else 1
        done = 0
        while budget.more(done, minimum):
            traced = self.rec is not None and done % 2 == 1
            batch = self.batch(done, rng, people)
            self.write("insert", batch, traced)
            self.live.append(batch)
            name = next(names)
            self.read(name, QUERIES[name], traced, check=False)
            if len(self.live) > self.live_batches:
                self.write("delete", self.live.popleft(), traced)
                name = next(names)
                self.read(name, QUERIES[name], traced, check=False)
            done += 1
        self.iterations = done
        # The final state is what the oracle can check: read everything.
        self.final = {}
        for name in self.queries:
            self.attempted += 1
            try:
                report = self.system.answer(QUERIES[name], strategy=self.strategy)
            except Exception as exc:  # counted, not fatal
                self.fail(f"final {name}: {type(exc).__name__}: {exc}")
                continue
            self.final[name] = oracle.digest(report.answers)
            self.answer_counts[name] = self.final[name]["answers"]

    def verify(self) -> None:
        live = [assertion for batch in self.live for assertion in batch]
        truth = oracle.Oracle(lubm_exists_tbox(), build_abox(self.scale, self.seed, live))
        for name, found in self.final.items():
            expected = oracle.digest(truth.answers(parse_query(QUERIES[name])))
            if found != expected:
                self.fail(
                    f"final {name}: {found['answers']} answers, "
                    f"oracle {expected['answers']}"
                )

    def end_to_end(self, good):
        grouped = self.per_kind(good)
        reads = {k: v for k, v in grouped.items() if k not in WRITE_KINDS}
        everything = [ms for _, ms in good]
        metrics = {
            "latency_ms": statistics.geometric_mean(
                statistics.median(values) for values in reads.values()
            ),
            "tail_ms": percentile(everything, 95),
            "ops_per_s": typical_rate(grouped),
        }
        self.detail["named"] = {
            "read_ms_geomean": [metrics["latency_ms"], "ms"],
            "op_ms_p95": [metrics["tail_ms"], "ms"],
            "ops_per_s": [metrics["ops_per_s"], "1/s"],
            "insert_ms_p50": [statistics.median(grouped["insert"]), "ms"],
            "delete_ms_p50": [statistics.median(grouped["delete"]), "ms"],
            "saturate_s": [
                statistics.median(r["saturate_s"] for r in self.setups),
                "s",
            ],
        }
        self.detail["samples"] = {
            "iterations": self.iterations,
            "operations": len(everything),
            "inserts": len(grouped["insert"]),
            "deletes": len(grouped["delete"]),
        }
        self.detail["queries"] = self.query_rows(grouped)
        return metrics


class ServeSharded100k(Workload):
    """~100k facts on 2 forked shard workers behind ``ServingEndpoint``.
    Closed loop, ``min(nproc, 2)`` client threads, one query per
    ``POST /answer``, a seeded mix of shard-key probes and a scatter
    join with Pareto-skewed constants; a short warm-up, then the timed
    section. The traced pass replays the same request sequence from one
    thread, each request three ways: staged in-process (spans), over
    HTTP, and as a plain ``answer()`` — the last two both plan-cache
    hits, so their difference is the HTTP edge's cost."""

    name = "serve_sharded_100k"
    system_kwargs = {"backend": "memory", "shards": 2, "executor": "process"}
    quick_steps = 200
    pareto_alpha = 1.1
    #: (requests out of every 20, template, pool the constant is drawn
    #: from). Every block of 20 requests holds exactly this mix, in a
    #: seeded order: drawing the template at random would let the
    #: number of scatter joins — 5 % of requests, half of the work —
    #: vary by a tenth from one 10 s run to the next.
    mix = (
        (10, "q(y) <- takesCourse({c}, y)", "students"),
        (5, "q(x) <- advisor(x, {c}), Student(x)", "professors"),
        (4, "q(c) <- teacherOf({c}, c), Course(c)", "professors"),
        (
            1,
            "q(x, c) <- Professor(x), teacherOf(x, c), GraduateCourse(c), "
            "worksFor(x, d)",
            None,
        ),
    )
    window_seconds = 1.0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.endpoint: Optional[ServingEndpoint] = None
        self.clients = min(len(os.sched_getaffinity(0)), 2)
        #: ``self.untraced`` holds the HTTP requests, keyed by the sha of
        #: the response body; the first body per (query, sha) is kept
        #: here and checked against the oracle after the timed section.
        self.bodies: Dict[str, Dict[str, bytes]] = {}
        self.timed_seconds = 0.0
        self.hit_pairs: List[Tuple[str, float, float]] = []
        self.http_overhead: List[float] = []
        self.window_rates: List[float] = []

    def construct(self, record):
        super().construct(record)
        self.endpoint = ServingEndpoint(self.system).start()

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None
        super().close()

    def requests(self) -> Iterable[str]:
        """The endless seeded request sequence (query texts)."""
        rng = random.Random(self.seed)
        pools = individuals(self.scale, self.seed)
        for pool in pools.values():
            rng.shuffle(pool)  # which constants are hot depends on the seed
        block = [
            (template, pool)
            for count, template, pool in self.mix
            for _ in range(count)
        ]
        while True:
            rng.shuffle(block)
            for template, pool in block:
                if pool is None:
                    yield template
                    continue
                rank = int(rng.paretovariate(self.pareto_alpha)) - 1
                while rank >= len(pools[pool]):
                    rank = int(rng.paretovariate(self.pareto_alpha)) - 1
                yield template.format(c=pools[pool][rank])

    def post(self, text: str) -> Tuple[float, bytes]:
        """One ``POST /answer`` on a new connection (the edge closes
        every connection after its response): wall ms and body."""
        body = json.dumps({"queries": [text]})
        started = perf_counter()
        connection = http.client.HTTPConnection(
            self.endpoint.host, self.endpoint.port, timeout=60
        )
        try:
            connection.request(
                "POST", "/answer", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {payload[:200]!r}")
        return (perf_counter() - started) * 1e3, payload

    def request(self, text: str) -> Tuple[str, Optional[float], object, float]:
        """One closed-loop request as a client-side record: ``(text,
        ms, body, completion time)``; on failure ms is None and the
        body is the reason."""
        try:
            ms, payload = self.post(text)
        except Exception as exc:  # counted by collect(), not fatal
            return (text, None, f"{type(exc).__name__}: {exc}", perf_counter())
        return (text, ms, payload, perf_counter())

    def client(self, texts: List[str], measure_from: float, until: float, sink):
        """One closed-loop client thread: requests before *measure_from*
        are warm-up and not recorded."""
        for text in texts:
            now = perf_counter()
            if now >= until:
                break
            record = self.request(text)
            if now >= measure_from:
                sink.append(record)

    def collect(self, records: Iterable) -> None:
        """Fold client-side records into samples, hashing the bodies —
        after the timed section, so the clients do not pay for it."""
        for text, ms, payload, _ in records:
            self.attempted += 1
            if ms is None:
                self.fail(f"request: {payload}")
                continue
            key = hashlib.sha256(payload).hexdigest()
            self.bodies.setdefault(text, {}).setdefault(key, payload)
            self.untraced.append((text, ms, key))

    def measure(self, budget: Budget) -> None:
        counters_before = self.system.metrics()["counters"]
        sequence = self.requests()
        if self.rec is not None:
            self.measure_traced(budget, sequence)
        elif budget.steps is not None:
            started = perf_counter()
            records = [
                self.request(text)
                for text in itertools.islice(sequence, budget.steps)
            ]
            self.timed_seconds = perf_counter() - started
            self.collect(records)
        else:
            self.measure_closed_loop(budget, sequence)
        self.workers_mb = worker_rss_mb()
        self.counters = {
            name: value - counters_before.get(name, 0.0)
            for name, value in self.system.metrics()["counters"].items()
        }

    def measure_closed_loop(self, budget: Budget, sequence) -> None:
        warmup = min(2.0, budget.seconds / 4)
        # Far more requests than the loop can finish; client i takes
        # every clients-th one, so each client's sequence is seeded.
        texts = list(
            itertools.islice(sequence, int(2500 * (budget.seconds + warmup)))
        )
        sinks: List[List] = [[] for _ in range(self.clients)]
        begin = perf_counter()
        threads = [
            threading.Thread(
                target=self.client,
                args=(
                    texts[i :: self.clients],
                    begin + warmup,
                    begin + warmup + budget.seconds,
                    sinks[i],
                ),
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.timed_seconds = perf_counter() - begin - warmup
        records = [record for sink in sinks for record in sink]
        self.collect(records)
        # Completions per whole window; the median window is the rate.
        windows = [0] * int(budget.seconds / self.window_seconds)
        for _, ms, _, completed in records:
            index = int((completed - begin - warmup) / self.window_seconds)
            if ms is not None and index < len(windows):
                windows[index] += 1
        self.window_rates = [count / self.window_seconds for count in windows]

    def measure_traced(self, budget: Budget, sequence) -> None:
        budget.start()
        done = 0
        while budget.more(done):
            done += 1
            text = next(sequence)
            staged = self.answer_once(text, text, traced=True)
            if staged is None:
                continue
            self.traced.append((text, *staged))
            hit = self.last_root["plan_cache_hit"]
            record = self.request(text)
            self.collect([record])
            # Timing only: this answer was checked twice already.
            plain = self.answer_once(text, text, traced=False, check=False)
            if plain is None or record[1] is None:
                continue
            self.rec.add("request", record[3] - record[1] / 1e3, record[3])
            self.http_overhead.append(record[1] - plain[0])
            if hit:
                self.hit_pairs.append((text, staged[0], plain[0]))
        self.timed_seconds = sum(ms for _, ms, _ in self.untraced) / 1e3

    def verify(self) -> None:
        truth = oracle.Oracle(lubm_exists_tbox(), build_abox(self.scale, self.seed))
        texts = set(self.bodies)
        texts.update(kind for kind, _, _ in self.traced)
        for text in texts:
            expected = oracle.digest(truth.answers(parse_query(text)))
            good = self.good_keys.setdefault(text, {expected["sha256"]})
            for key, payload in self.bodies.get(text, {}).items():
                report = json.loads(payload)["reports"][0]
                if report["error"] is None and expected == oracle.digest(
                    tuple(row) for row in report["answers"]
                ):
                    good.add(key)
        self.distinct_queries = len(texts)

    def end_to_end(self, good):
        latencies = [ms for _, ms in good]
        metrics = {
            "latency_ms": statistics.median(latencies),
            "tail_ms": percentile(latencies, 99),
            # Closed loop: the median one-second window, so a stall of
            # the box during one window does not move the rate.
            "ops_per_s": statistics.median(self.window_rates)
            if len(self.window_rates) >= 3
            else len(latencies) / self.timed_seconds,
        }
        self.detail["named"] = {
            "request_ms_p50": [metrics["latency_ms"], "ms"],
            "request_ms_p99": [metrics["tail_ms"], "ms"],
            "requests_per_s": [metrics["ops_per_s"], "1/s"],
        }
        self.detail["samples"] = {
            "requests": len(latencies),
            "beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
            "distinct_queries": self.distinct_queries,
            "clients": self.clients,
        }
        return metrics

    def pairs(self, good_untraced, good_traced):
        """Per traced-pass request that hit the plan cache: the staged
        wall and the plain ``answer()`` wall of the same query."""
        return self.hit_pairs

    def shard_layer(self):
        routed = sum(
            self.counters.get(f"repro.shards.route.{kind}", 0.0)
            for kind in ("pruned", "scatter", "gather")
        )
        return {
            "route_pruned_ratio": self.counters.get(
                "repro.shards.route.pruned", 0.0
            )
            / max(1.0, routed),
            "shm_bytes_per_request": self.counters.get(
                "repro.shm.pack.bytes", 0.0
            )
            / max(1, len(self.traced)),
            "worker_rss_mb": self.workers_mb,
        }

    def per_layer(self, pairs):
        metrics = super().per_layer(pairs)
        self.detail["named"]["http_overhead_ms"] = [mean(self.http_overhead), "ms"]
        return metrics


WORKLOADS = {
    cls.name: cls
    for cls in (ColdSqlite100k, WarmMemory1m, ChurnSat100k, ServeSharded100k)
}


def individuals(scale: int, seed: int) -> Dict[str, List[str]]:
    """Generated individuals the write and serving workloads draw
    constants from, in generation order."""
    pools: Dict[str, List[str]] = {
        "students": [],
        "professors": [],
        "graduate_courses": [],
    }
    for fact in stream_facts(scale, seed):
        if fact[0] != "c":
            continue
        if fact[1].endswith("Student"):
            pools["students"].append(fact[2])
        elif fact[1].endswith("Professor"):
            pools["professors"].append(fact[2])
        elif fact[1] == "GraduateCourse":
            pools["graduate_courses"].append(fact[2])
    return pools


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------
def leaked_resources(shm_before: set) -> List[str]:
    """What a closed workload left behind: forked workers, non-daemon
    threads, ``/dev/shm`` segments created since *shm_before*."""
    leaks = [
        f"child process {child.pid} ({child.name})"
        for child in multiprocessing.active_children()
    ]
    leaks.extend(
        f"non-daemon thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
        and not thread.daemon
        and thread.is_alive()
    )
    leaks.extend(
        f"/dev/shm/{name}" for name in sorted(shm_segments() - shm_before)
    )
    return leaks


def shm_segments() -> set:
    """Names under ``/dev/shm`` (empty where there is no such directory)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool, spec: Dict
) -> Dict:
    """Run one workload in this process and return its full record:
    the contract's ``correct`` / ``attempted`` / ``failed`` / ``metrics``
    plus ``detail`` (named metrics, per-query rows, layer shares) and
    ``problems`` (why ``correct`` is false). *spec* is ``BENCHMARK.json``:
    it names the metrics to report and their units."""
    recorder = Recorder() if trace else None
    if recorder is not None:
        recorder.watch_gc()
    workload: Workload = WORKLOADS[name](seed, quick, recorder)
    shm_before = shm_segments()
    try:
        # A traced run sets up once: its per-layer storage metrics come
        # from the first build of a clean process.
        for repeat in range(1 if trace else workload.setup_repeats):
            if repeat:
                workload.close()
            workload.setup()
        workload.measure(
            Budget(seconds, workload.quick_steps if quick else None)
        )
        peak_mb = peak_rss_mb()
    finally:
        workload.close()
    leaks = leaked_resources(shm_before)
    workload.verify()

    good_untraced = workload.good_samples(workload.untraced)
    good_traced = workload.good_samples(workload.traced)
    end_to_end = workload.end_to_end(good_untraced)
    end_to_end["setup_s"] = statistics.median(
        record["setup_s"] for record in workload.setups
    )
    end_to_end["peak_rss_mb"] = peak_mb
    detail = workload.detail
    detail["samples"]["setups"] = len(workload.setups)
    detail["facts"] = workload.facts
    if trace:
        values = workload.per_layer(workload.pairs(good_untraced, good_traced))
        detail["end_to_end_in_traced_run"] = end_to_end
        recorder.dump(
            OUT_DIR / f"trace_{name}.json", workload=name, seed=seed, quick=quick
        )
    else:
        values = end_to_end
    failed = workload.errors + workload.wrong
    problems = workload.problems + [f"leaked {leak}" for leak in leaks]
    detail["named"]["failed_ratio"] = [failed / workload.attempted, "ratio"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec["per_layer" if trace else "end_to_end"]
        },
        "detail": detail,
        "problems": problems,
    }
