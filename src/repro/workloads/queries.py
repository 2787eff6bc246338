"""Canonical queries used throughout the paper, ready to import.

Includes the four basic non-hierarchical queries of Section 3
(qRST, q¬RS¬T, qR¬ST, qRS¬T), the Section 4 pair q / q′ whose tractability
differs only through the non-hierarchical path, the Example 4.2 queries,
the hardness queries of Section 5 (qRST¬R and the UCQ¬ qSAT), the
Theorem 5.1 gap query, and the academic-citations query of Example 4.1.
"""

from __future__ import annotations

from repro.core.parser import parse_query, parse_ucq
from repro.core.query import ConjunctiveQuery, UnionQuery


def q_rst() -> ConjunctiveQuery:
    """qRST() :- R(x), S(x, y), T(y) — the classic hard query."""
    return parse_query("qRST() :- R(x), S(x, y), T(y)")


def q_nr_s_nt() -> ConjunctiveQuery:
    """q¬RS¬T() :- ¬R(x), S(x, y), ¬T(y) (Lemma B.1)."""
    return parse_query("qnRSnT() :- not R(x), S(x, y), not T(y)")


def q_r_ns_t() -> ConjunctiveQuery:
    """qR¬ST() :- R(x), ¬S(x, y), T(y) (Lemma B.2)."""
    return parse_query("qRnST() :- R(x), not S(x, y), T(y)")


def q_rs_nt() -> ConjunctiveQuery:
    """qRS¬T() :- R(x), S(x, y), ¬T(y) (Lemma B.3, the asymmetric one)."""
    return parse_query("qRSnT() :- R(x), S(x, y), not T(y)")


def section_4_q() -> ConjunctiveQuery:
    """q() :- ¬R(x,w), S(z,x), ¬P(z,w), T(y,w) — tractable with X={S,P}."""
    return parse_query("q() :- not R(x, w), S(z, x), not P(z, w), T(y, w)")


def section_4_q_prime() -> ConjunctiveQuery:
    """q′() :- ¬R(x,w), S(z,x), ¬P(z,y), T(y,w) — hard even with X={S,P}."""
    return parse_query("q() :- not R(x, w), S(z, x), not P(z, y), T(y, w)")


SECTION_4_EXOGENOUS = frozenset({"S", "P"})


def example_4_2_q() -> ConjunctiveQuery:
    """The first query of Example 4.2 (has a non-hierarchical path)."""
    return parse_query(
        "q() :- not R(x), Q(x, v), S(x, z), U(z, w), not P(w, y), T(y, v)"
    )


EXAMPLE_4_2_Q_EXOGENOUS = frozenset({"S", "U", "P"})


def example_4_2_q_prime() -> ConjunctiveQuery:
    """The second query of Example 4.2 (no non-hierarchical path)."""
    return parse_query(
        "q() :- U(t, r), not T(y), Q(y, w), not V(t), R(x, y),"
        " not S(x, z), O(z), P(u, y, w)"
    )


EXAMPLE_4_2_Q_PRIME_EXOGENOUS = frozenset({"R", "S", "O", "P", "V"})


def academic_query() -> ConjunctiveQuery:
    """Example 4.1: Author(x,y), Pub(x,z), Citations(z,w) with Pub, Citations exogenous."""
    return parse_query("q() :- Author(x, y), Pub(x, z), Citations(z, w)")


ACADEMIC_EXOGENOUS = frozenset({"Pub", "Citations"})


def gap_query() -> ConjunctiveQuery:
    """q() :- R(x), S(x, y), ¬R(y) — the Section 5.1 gap-violation query."""
    return parse_query("q() :- R(x), S(x, y), not R(y)")


def q_rst_nr() -> ConjunctiveQuery:
    """qRST¬R of Proposition 5.5 (relevance NP-complete for T-facts)."""
    return parse_query(
        "q() :- T(z), not R(x), not R(y), R(z), R(w), S(x, y, z, w)"
    )


def q_sat() -> UnionQuery:
    """The UCQ¬ qSAT of Proposition 5.8 (relevance NP-complete for R(0))."""
    return parse_ucq(
        "q() :- C(x1, x2, x3, v1, v2, v3), T(x1, v1), T(x2, v2), T(x3, v3)"
        " | q() :- V(x), not T(x, 1), not T(x, 0)"
        " | q() :- T(x, 1), T(x, 0)"
        " | q() :- R(0)",
        name="qSAT",
    )


def intro_export_query() -> ConjunctiveQuery:
    """The introduction's query (1): Farmer(m), Export(m,p,c), ¬Grows(c,p)."""
    return parse_query("q() :- Farmer(m), Export(m, p, c), not Grows(c, p)")


def audit_query() -> ConjunctiveQuery:
    """audit(w) :- W(w), L(w, v), R(x), S(x, y), T(y) — qRST behind a head.

    Every grounding ``q_t`` embeds the classic hard core, so the
    dichotomy sends each answer to coalition enumeration: independent,
    CPU-bound grounding tasks.  The exogenous ``L`` rows of an answer
    only tell its grounding apart from the others' — isomorphic
    groundings would share one task.  This is the workload family of
    ``benchmarks/bench_parallel.py`` (pair with
    :func:`repro.workloads.generators.hard_answers_database`).
    """
    return parse_query("audit(w) :- W(w), L(w, v), R(x), S(x, y), T(y)")
