"""The benchmark workload: queries Q1–Q13 and the star queries A3–A6.

The paper's 13 CQs live in its technical report [8] and are not printed in
the body; these queries are designed against our LUBM∃-style TBox to match
the *reported workload profile* (§6.1):

* 2 to 10 body atoms (ours average 5.0; the paper's 5.77);
* UCQ reformulation sizes spanning one order of magnitude — under the
  classical PerfectRef fixpoint ours range from 13 to 585 CQs (the paper:
  35 to 667, average 290.2); PerfectRef here first drops the atoms other
  atoms imply under the TBox, and makes 2 to 270;
* Q1 is a 6-atom star-join on a common subject, from which the star
  queries A3–A6 are derived by prefix (A6 = Q1, §6.2);
* Q11 is a 2-atom query (like the paper's, whose 2 atoms yield the
  workload's largest reformulation, our 2-atom maximum is Q3).

Exact sizes are pinned by ``tests/test_bench.py`` and reported by
``benchmarks/test_bench_reformulation_stats.py``.
"""

from __future__ import annotations

from typing import Dict

from repro.dllite.parser import parse_query
from repro.queries.cq import CQ

_QUERY_TEXTS: Dict[str, str] = {
    # A graduate-student profile: 6-atom star on x. Atom order matters:
    # A3..A6 take prefixes. GraduateStudent and advisor share dependencies
    # (Grad <= exists advisor) and fuse in the root cover; the remaining
    # four roles are dependency-independent (their domains reach Person,
    # never Student), so each prefix step adds a root fragment and |Lq|
    # grows strictly — the Table 6 shape.
    "Q1": (
        "q(x) <- GraduateStudent(x), advisor(x, a), receivedAward(x, w), "
        "attends(x, e), organizes(x, v), collaboratesWith(x, f)"
    ),
    # Professors working for departments of some organization.
    "Q2": (
        "q(x) <- Professor(x), worksFor(x, y), Department(y), "
        "subOrganizationOf(y, u)"
    ),
    # The workload's largest reformulation from only two atoms:
    # Publication reaches the whole publication hierarchy and
    # publicationAuthor expands through authorOf and the existentials.
    "Q3": "q(x) <- Publication(x), publicationAuthor(x, y)",
    # Professors teaching offered graduate courses. (GraduateCourse and
    # Professor are deliberately not implied by teacherOf's domain/range,
    # so minimization cannot collapse the union.)
    "Q4": (
        "q(x, y) <- Professor(x), teacherOf(x, y), GraduateCourse(y), "
        "offersCourse(d, y)"
    ),
    # Articles by full professors employed by a department.
    "Q5": (
        "q(x) <- Article(x), publicationAuthor(x, y), FullProfessor(y), "
        "worksFor(y, d), Department(d)"
    ),
    # Students advised by a full professor they share an affiliation with.
    "Q6": (
        "q(x, y) <- Student(x), advisor(x, y), FullProfessor(y), "
        "enrolledIn(x, p), worksFor(y, d)"
    ),
    # Departments publishing journal articles about research.
    "Q7": (
        "q(x) <- Department(x), orgPublication(x, p), JournalArticle(p), "
        "publicationResearch(p, r), Research(r), subOrganizationOf(x, u)"
    ),
    # Department staffing chains up to the university.
    "Q8": (
        "q(x, y) <- Department(x), subOrganizationOf(x, u), University(u), "
        "worksFor(y, x), Professor(y), teacherOf(y, c), GraduateCourse(c)"
    ),
    # People working for departments — Person's expansion is the paper's
    # Q9 analogue (three atoms, hundreds of disjuncts).
    "Q9": "q(x) <- Person(x), worksFor(x, o), Department(o)",
    # The 10-atom chain: students, courses, teachers, departments.
    "Q10": (
        "q(s, p) <- GraduateStudent(s), takesCourse(s, c), GraduateCourse(c), "
        "teacherOf(p, c), FullProfessor(p), worksFor(p, d), Department(d), "
        "subOrganizationOf(d, u), University(u), advisor(s, p)"
    ),
    # Two atoms again, medium size (employment expands through headOf).
    "Q11": "q(x, y) <- Employee(x), worksFor(x, y)",
    # Chairs and their departments' universities.
    "Q12": (
        "q(x) <- Chair(x), worksFor(x, y), Department(y), "
        "subOrganizationOf(y, u), University(u)"
    ),
    # Professor/student co-authorship with advisorship.
    "Q13": (
        "q(x, y) <- Article(p), publicationAuthor(p, x), FullProfessor(x), "
        "publicationAuthor(p, y), DoctoralStudent(y), advisor(y, x)"
    ),
}


def benchmark_queries() -> Dict[str, CQ]:
    """Q1–Q13, parsed, keyed by name."""
    return {name: parse_query(text) for name, text in _QUERY_TEXTS.items()}


def query(name: str) -> CQ:
    """One benchmark query by name (e.g. ``"Q9"``)."""
    return parse_query(_QUERY_TEXTS[name])


def star_queries() -> Dict[str, CQ]:
    """A3–A6: star-joins over the first i atoms of Q1 (A6 = Q1), §6.2."""
    q1 = parse_query(_QUERY_TEXTS["Q1"])
    stars: Dict[str, CQ] = {}
    for i in range(3, 7):
        stars[f"A{i}"] = CQ(head=q1.head, atoms=q1.atoms[:i], name=f"A{i}")
    return stars


def workload_profile() -> Dict[str, int]:
    """Atom counts per query (the §6.1 workload statistics)."""
    return {name: len(cq.atoms) for name, cq in benchmark_queries().items()}
