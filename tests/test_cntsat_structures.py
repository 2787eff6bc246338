"""Structural deep-dive tests for the CntSat recursion.

Each test targets one recursion feature: nested hierarchies, multiple
root candidates, ground atoms, constants inside negated atoms, and the
interplay of free facts with negation — each run through both counters
(the public one and the seed of :mod:`harness.seed_cntsat`) and
cross-checked against enumeration.
"""

from harness.seed_cntsat import counts_from_both
from repro.core.database import Database
from repro.core.facts import fact
from repro.core.parser import parse_query
from repro.shapley.brute_force import satisfying_subset_counts


def check(query_text: str, endogenous, exogenous=()):
    q = parse_query(query_text)
    db = Database(endogenous=endogenous, exogenous=exogenous)
    got = counts_from_both(db, q)
    want = satisfying_subset_counts(db, q)
    assert got == want, (query_text, got, want)
    return got


class TestNestedHierarchy:
    def test_three_level_chain(self):
        # x in all atoms, y below x, z below y.
        check(
            "q() :- A(x), B(x, y), C(x, y, z)",
            [
                fact("A", 1),
                fact("B", 1, 2),
                fact("C", 1, 2, 3),
                fact("C", 1, 2, 4),
            ],
        )

    def test_two_branches_under_root(self):
        check(
            "q() :- A(x), B(x, y), C(x, z)",
            [
                fact("A", 1), fact("A", 2),
                fact("B", 1, 5), fact("B", 2, 5),
                fact("C", 1, 6), fact("C", 2, 7),
            ],
        )

    def test_negated_leaf_under_two_levels(self):
        check(
            "q() :- A(x), B(x, y), not N(x, y)",
            [
                fact("A", 1),
                fact("B", 1, 2), fact("B", 1, 3),
                fact("N", 1, 2),
            ],
        )

    def test_negated_inner_prefix(self):
        # The negated atom uses only the root variable.
        check(
            "q() :- A(x), B(x, y), not N(x)",
            [fact("A", 1), fact("B", 1, 2), fact("N", 1)],
        )


class TestMultipleRoots:
    def test_two_shared_variables(self):
        # Both x and y occur in every atom; either is a valid root.
        check(
            "q() :- A(x, y), B(x, y), not N(y, x)",
            [
                fact("A", 1, 2), fact("A", 3, 4),
                fact("B", 1, 2), fact("B", 3, 4),
                fact("N", 2, 1),
            ],
        )


class TestGroundAtoms:
    def test_positive_ground_atom(self):
        check(
            "q() :- Flag(1), R(x)",
            [fact("Flag", 1), fact("R", 7)],
        )

    def test_missing_ground_atom_zeroes(self):
        counts = check("q() :- Flag(1), R(x)", [fact("R", 7)])
        assert counts == [0, 0]

    def test_negated_ground_atom_endogenous(self):
        counts = check(
            "q() :- R(x), not Flag(1)",
            [fact("R", 7), fact("Flag", 1)],
        )
        # Satisfied iff R(7) in and Flag(1) out.
        assert counts == [0, 1, 0]

    def test_negated_ground_atom_exogenous(self):
        counts = check(
            "q() :- R(x), not Flag(1)",
            [fact("R", 7)],
            exogenous=[fact("Flag", 1)],
        )
        assert counts == [0, 0]


class TestConstantsAndNegation:
    def test_constant_inside_negated_atom(self):
        check(
            "q() :- Reg(x, y), not Course(y, 'CS')",
            [
                fact("Reg", "a", "db"), fact("Reg", "a", "ai"),
                fact("Course", "db", "CS"), fact("Course", "ai", "EE"),
            ],
        )

    def test_repeated_variable_in_negated_atom(self):
        check(
            "q() :- R(x, y), not N(x, x)",
            [fact("R", 1, 2), fact("R", 2, 2), fact("N", 1, 1), fact("N", 1, 2)],
        )

    def test_free_facts_with_negation(self):
        # N(5, 5) can never match N(x, 'k'): it is free, not a blocker.
        check(
            "q() :- R(x), not N(x, 'k')",
            [fact("R", 1), fact("N", 1, "k"), fact("N", 5, 5)],
        )


class TestDisconnectedQueries:
    def test_two_components_with_negation(self):
        check(
            "q() :- A(x), not NA(x), B(y), not NB(y)",
            [
                fact("A", 1), fact("NA", 1),
                fact("B", 2), fact("NB", 3),
            ],
        )

    def test_component_sharing_constant_not_variable(self):
        # The constant 1 appears in both components; they remain
        # independent (connectivity is via variables only).
        check(
            "q() :- A(x, 1), B(1, y)",
            [fact("A", 5, 1), fact("B", 1, 6), fact("B", 2, 6)],
        )


class TestVectorInvariants:
    def test_monotone_query_counts_are_monotone_in_k_ratio(self):
        # For a positive query, if some k-subset satisfies, some
        # (k+1)-subset does too (as long as k+1 <= |Dn|).
        q = parse_query("q() :- R(x), S(x, y)")
        db = Database(
            endogenous=[
                fact("R", 1), fact("R", 2), fact("S", 1, 1), fact("S", 2, 2),
            ]
        )
        counts = counts_from_both(db, q)
        for k in range(len(counts) - 1):
            if counts[k] > 0:
                assert counts[k + 1] > 0

    def test_full_subset_count_matches_holds(self):
        from repro.core.evaluation import holds

        q = parse_query("q() :- R(x), not T(x)")
        db = Database(
            endogenous=[fact("R", 1), fact("T", 1), fact("R", 2)]
        )
        counts = counts_from_both(db, q)
        assert counts[-1] == (1 if holds(q, db) else 0)
