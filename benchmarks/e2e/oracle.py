"""The benchmark's answer oracle, independent of the system under test.

Certain answers are computed the textbook way: chase the ABox with the
TBox (:func:`repro.dllite.saturation.chase`), evaluate the conjunctive
query over the chased facts, drop every row naming a labelled null.
The chase is the repository's reference implementation; the evaluator
below is the benchmark's own, because ``repro.queries.evaluate`` scans
whole predicates per binding and needs 10-170 s *per query* at the 100k
tier. This one joins through hash indexes built per (predicate, bound
positions) on demand, so a whole query set costs seconds at 1M facts.

Answers are compared as digests: the row count plus a sha256 over the
sorted, tab-joined rows. Digests of the fixed query set on the base
data are pinned under ``expected/`` for seeds 2016 and 7
(``run.py --write-expected`` regenerates them); any other seed computes
the oracle in the run, outside every timed section.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dllite.kb import KnowledgeBase
from repro.dllite.saturation import ChaseTruncatedError, chase, is_null
from repro.queries.terms import is_variable

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
PINNED_SEEDS = (2016, 7)

Row = Tuple[str, ...]


def digest(answers: Iterable[Row]) -> Dict[str, object]:
    """``{"answers": count, "sha256": hex}`` of an answer set."""
    rows = sorted(answers)
    text = "\n".join("\t".join(str(value) for value in row) for row in rows)
    return {
        "answers": len(rows),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


class Oracle:
    """Chased facts of one KB plus the hash indexes queries built so far."""

    def __init__(self, tbox, abox, max_generations: int = 4) -> None:
        store = chase(KnowledgeBase(tbox, abox), max_generations=max_generations)
        if store.truncated:
            raise ChaseTruncatedError(max_generations)
        self._rows: Dict[str, List[Row]] = {
            predicate: list(rows) for predicate, rows in store.items()
        }
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[Row, List[Row]]] = {}

    def _index(self, predicate: str, positions: Tuple[int, ...]):
        key = (predicate, positions)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self._rows.get(predicate, ()):
                index.setdefault(
                    tuple(row[p] for p in positions), []
                ).append(row)
            self._indexes[key] = index
        return index

    def answers(self, query) -> Set[Row]:
        """Certain answers of a parsed CQ (null-free head rows)."""
        head_vars = {t.name for t in query.head if is_variable(t)}
        columns: Tuple[str, ...] = ()
        rows: Set[Row] = {()}
        remaining = list(query.atoms)
        while remaining:
            atom = min(remaining, key=lambda a: self._rank(a, columns))
            remaining.remove(atom)
            needed = head_vars | {
                t.name for a in remaining for t in a.args if is_variable(t)
            }
            columns, rows = self._join(columns, rows, atom, needed)
            if not rows:
                return set()
        column_of = {name: i for i, name in enumerate(columns)}
        answers = {
            tuple(
                row[column_of[t.name]] if is_variable(t) else t.value
                for t in query.head
            )
            for row in rows
        }
        return {row for row in answers if not any(is_null(v) for v in row)}

    def _rank(self, atom, columns: Tuple[str, ...]) -> Tuple[bool, int, int]:
        """Join order: atoms touching a bound variable or a constant
        before disconnected ones (a disconnected atom is a cross
        product), then fewest unbound arguments, then fewest rows."""
        free = sum(
            1 for t in atom.args if is_variable(t) and t.name not in columns
        )
        disconnected = bool(columns) and free == len(atom.args)
        return (disconnected, free, len(self._rows.get(atom.predicate, ())))

    def _join(self, columns, rows, atom, needed):
        """Join the partial bindings (*rows*, one value per name in
        *columns*) with *atom* and project onto the variables still
        *needed* — by the head or a later atom — so existential
        variables never multiply the intermediate result."""
        column_of = {name: i for i, name in enumerate(columns)}
        probe: List[Tuple[int, Optional[int], object]] = []
        fresh: Dict[str, int] = {}
        repeats: List[Tuple[int, int]] = []
        for position, term in enumerate(atom.args):
            if not is_variable(term):
                probe.append((position, None, term.value))
            elif term.name in column_of:
                probe.append((position, column_of[term.name], None))
            elif term.name in fresh:  # R(x, x) with x unbound
                repeats.append((position, fresh[term.name]))
            else:
                fresh[term.name] = position
        index = self._index(atom.predicate, tuple(p for p, _, _ in probe))
        keep = [i for i, name in enumerate(columns) if name in needed]
        take = [p for name, p in fresh.items() if name in needed]
        out_columns = tuple(columns[i] for i in keep) + tuple(
            name for name in fresh if name in needed
        )
        out: Set[Row] = set()
        for row in rows:
            key = tuple(
                value if column is None else row[column]
                for _, column, value in probe
            )
            matches = index.get(key)
            if not matches:
                continue
            base = tuple(row[i] for i in keep)
            if not take and not repeats:
                out.add(base)
                continue
            for match in matches:
                if any(match[i] != match[j] for i, j in repeats):
                    continue
                out.add(base + tuple(match[p] for p in take))
        return out_columns, out


def expected_path(scale: int, seed: int) -> Path:
    """Where the pinned digests of (scale, seed) live."""
    return EXPECTED_DIR / f"answers_{scale}_{seed}.json"


def load_expected(scale: int, seed: int) -> Optional[Dict[str, Dict]]:
    """Pinned ``{query name: digest}`` for (scale, seed), if any."""
    path = expected_path(scale, seed)
    if seed not in PINNED_SEEDS or not path.is_file():
        return None
    return json.loads(path.read_text())


def write_expected(scale: int, seed: int, digests: Dict[str, Dict]) -> Path:
    """Pin *digests* for (scale, seed); returns the file written."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = expected_path(scale, seed)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return path
