"""Unit tests for ExoShap (Algorithm 1, Theorem 4.3 positive side)."""

import random
from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.errors import (
    IntractableQueryError,
    NotHierarchicalError,
    SelfJoinError,
)
from repro.core.facts import fact
from repro.core.hierarchy import is_hierarchical
from repro.core.parser import parse_query
from repro.shapley.brute_force import shapley_brute_force
from repro.shapley.exoshap import exo_shapley, rewrite_to_hierarchical
from repro.workloads.generators import random_database_for_query
from repro.workloads.queries import (
    ACADEMIC_EXOGENOUS,
    EXAMPLE_4_2_Q_PRIME_EXOGENOUS,
    SECTION_4_EXOGENOUS,
    academic_query,
    example_4_2_q_prime,
    section_4_q,
    section_4_q_prime,
)
from repro.workloads.running_example import figure_1_database, query_q1, query_q2


class TestRewrite:
    def test_produces_hierarchical_query(self):
        db = figure_1_database()
        rewrite = rewrite_to_hierarchical(db, query_q2(), {"Stud", "Course"})
        assert is_hierarchical(rewrite.query)
        assert rewrite.query.is_self_join_free

    def test_endogenous_facts_untouched(self):
        db = figure_1_database()
        rewrite = rewrite_to_hierarchical(db, query_q2(), {"Stud", "Course"})
        assert rewrite.database.endogenous == db.endogenous

    def test_rejects_non_hierarchical_path(self):
        db = random_database_for_query(
            section_4_q_prime(), domain_size=2,
            exogenous_relations=tuple(SECTION_4_EXOGENOUS),
            rng=random.Random(1),
        )
        with pytest.raises(NotHierarchicalError):
            rewrite_to_hierarchical(db, section_4_q_prime(), SECTION_4_EXOGENOUS)

    def test_all_exogenous_query_rewrites_to_guards(self):
        # No non-exogenous atom is left to widen a guard to; the engine
        # serves the unrelated endogenous fact as a null player.
        from repro.engine import BatchAttributionEngine

        db = Database(
            endogenous=[fact("U", 1)],
            exogenous=[fact("S", 0, 0), fact("T", 0, 0)],
        )
        rewrite = rewrite_to_hierarchical(db, section_4_q(), {"R", "S", "P", "T"})
        assert all(atom.arity == 0 for atom in rewrite.query.atoms)
        result = BatchAttributionEngine().batch(db, section_4_q(), policy="exact")
        assert result.method == "exoshap"
        assert dict(result.shapley) == {fact("U", 1): 0}

    def test_rejects_self_joins(self):
        q = parse_query("q() :- R(x), S(x, y), R(y)")
        db = Database(endogenous=[fact("R", 1)], exogenous=[fact("S", 1, 1)])
        with pytest.raises(SelfJoinError):
            rewrite_to_hierarchical(db, q, {"S"})

    def test_rejects_endogenous_facts_in_declared_exogenous_relation(self):
        q = parse_query("q() :- R(x), S(x)")
        db = Database(endogenous=[fact("S", 1)], exogenous=[fact("R", 1)])
        with pytest.raises(ValueError):
            rewrite_to_hierarchical(db, q, {"S"})

    def test_complement_step_on_negated_exogenous(self):
        q = parse_query("q() :- R(x), not S(x)")
        db = Database(
            endogenous=[fact("R", 1), fact("R", 2)],
            exogenous=[fact("S", 1)],
        )
        rewrite = rewrite_to_hierarchical(db, q, {"S"})
        assert all(not atom.negated for atom in rewrite.query.atoms)
        # The rewritten instance must agree with the original everywhere.
        for f in db.endogenous:
            assert shapley_brute_force(
                rewrite.database, rewrite.query, f
            ) == shapley_brute_force(db, q, f)

    def test_complement_admits_constants_only_the_query_mentions(self):
        # 5 is in no fact of D, so the complement of U must still admit
        # U(x, 5) for the negation to hold; over Dom(D) alone it would not
        # and every value would collapse to zero.
        q = parse_query("q() :- R(x), S(x, y), T(y), not U(x, 5)")
        db = Database(
            endogenous=[fact("S", 1, 2), fact("S", 1, 3), fact("T", 2), fact("T", 3)],
            exogenous=[fact("R", 1), fact("U", 2, 7)],
        )
        for f in db.endogenous:
            expected = shapley_brute_force(db, q, f)
            assert expected == Fraction(1, 4)
            assert exo_shapley(db, q, f) == expected


class TestExoShapValues:
    def test_example_4_1_academic_query(self, rng):
        q = academic_query()
        for _ in range(6):
            db = random_database_for_query(
                q, domain_size=3,
                exogenous_relations=tuple(ACADEMIC_EXOGENOUS), rng=rng,
            )
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = endo[0]
            assert exo_shapley(db, q, f, ACADEMIC_EXOGENOUS) == (
                shapley_brute_force(db, q, f)
            )

    def test_example_4_1_citations_alone(self, rng):
        # The paper: knowing Citations alone is exogenous already suffices.
        q = academic_query()
        for _ in range(6):
            db = random_database_for_query(
                q, domain_size=3, exogenous_relations=("Citations",), rng=rng
            )
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 10:
                continue
            f = endo[0]
            assert exo_shapley(db, q, f, {"Citations"}) == (
                shapley_brute_force(db, q, f)
            )

    def test_section_4_q(self, rng):
        q = section_4_q()
        for _ in range(8):
            db = random_database_for_query(
                q, domain_size=2,
                exogenous_relations=tuple(SECTION_4_EXOGENOUS), rng=rng,
            )
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 9:
                continue
            f = endo[0]
            assert exo_shapley(db, q, f, SECTION_4_EXOGENOUS) == (
                shapley_brute_force(db, q, f)
            )

    def test_example_4_2_q_prime(self, rng):
        q = example_4_2_q_prime()
        for _ in range(8):
            db = random_database_for_query(
                q, domain_size=2, fill_probability=0.4,
                exogenous_relations=tuple(EXAMPLE_4_2_Q_PRIME_EXOGENOUS), rng=rng,
            )
            endo = sorted(db.endogenous, key=repr)
            if not endo or len(endo) > 9:
                continue
            f = endo[0]
            assert exo_shapley(db, q, f, EXAMPLE_4_2_Q_PRIME_EXOGENOUS) == (
                shapley_brute_force(db, q, f)
            )

    def test_q2_running_example_all_facts(self):
        db = figure_1_database()
        for f in sorted(db.endogenous, key=repr):
            assert exo_shapley(db, query_q2(), f, {"Stud", "Course"}) == (
                shapley_brute_force(db, query_q2(), f)
            )

    def test_infers_exogenous_relations(self):
        db = figure_1_database()
        f = fact("TA", "Adam")
        assert exo_shapley(db, query_q2(), f) == (
            shapley_brute_force(db, query_q2(), f)
        )

    def test_rejects_non_endogenous_target(self):
        db = figure_1_database()
        with pytest.raises(ValueError):
            exo_shapley(db, query_q2(), fact("Stud", "Adam"))

    def test_refuses_a_non_hierarchical_path_without_brute_force(self):
        # Section 4's q' keeps a non-hierarchical path under its X: the
        # planner refuses ExoShap, and exo_shapley never enumerates.
        db = random_database_for_query(
            section_4_q_prime(), domain_size=2,
            exogenous_relations=tuple(SECTION_4_EXOGENOUS),
            rng=random.Random(1),
        )
        target = sorted(db.endogenous, key=repr)[0]
        with pytest.raises(IntractableQueryError):
            exo_shapley(db, section_4_q_prime(), target, SECTION_4_EXOGENOUS)

    def test_refuses_a_self_join(self):
        db = figure_1_database()
        with pytest.raises(IntractableQueryError):
            exo_shapley(db, parse_query("q() :- TA(x), TA(y)"), fact("TA", "Adam"))

    def test_rejects_a_declared_exogenous_relation_with_endogenous_facts(self):
        # q1 is hierarchical, so the planner runs CntSat and never reads
        # X; the declaration is still checked against D.
        db = figure_1_database()
        with pytest.raises(ValueError, match="TA is declared exogenous"):
            exo_shapley(db, query_q1(), fact("Reg", "Adam", "OS"), {"TA"})


class TestGuardAtoms:
    """Exogenous atoms sharing no variables with the rest (Boolean guards)."""

    def test_satisfied_guard(self):
        q = parse_query("q() :- R(x), S(y)")
        db = Database(
            endogenous=[fact("R", 1), fact("R", 2)], exogenous=[fact("S", 7)]
        )
        assert exo_shapley(db, q, fact("R", 1), {"S"}) == shapley_brute_force(
            db, q, fact("R", 1)
        )

    def test_failing_guard_zeroes_everything(self):
        q = parse_query("q() :- R(x), S(y)")
        db = Database(endogenous=[fact("R", 1)])
        db.add_exogenous(fact("Other", 0))
        assert exo_shapley(db, q, fact("R", 1), {"S"}) == 0

    def test_negated_unary_guard(self):
        q = parse_query("q() :- R(x), not S(x)")
        db = Database(
            endogenous=[fact("R", 1), fact("R", 2)], exogenous=[fact("S", 1)]
        )
        for f in sorted(db.endogenous, key=repr):
            assert exo_shapley(db, q, f, {"S"}) == shapley_brute_force(db, q, f)


class TestFigure3Trace:
    """The ExoShap rewriting of Example 4.2's q' matches Figure 3 step by step."""

    def _rewrite(self):
        db = random_database_for_query(
            example_4_2_q_prime(), domain_size=2,
            exogenous_relations=tuple(EXAMPLE_4_2_Q_PRIME_EXOGENOUS),
            rng=random.Random(0),
        )
        return rewrite_to_hierarchical(
            db, example_4_2_q_prime(), EXAMPLE_4_2_Q_PRIME_EXOGENOUS
        )

    def test_non_exogenous_atoms_unchanged(self):
        rewrite = self._rewrite()
        non_exo = [
            atom for atom in rewrite.query.atoms
            if atom.relation not in rewrite.exogenous_relations
        ]
        assert {repr(atom) for atom in non_exo} == {
            "U(t, r)", "¬T(y)", "Q(y, w)"
        }

    def test_exogenous_atoms_match_figure_3c(self):
        # Figure 3c: T'(y), Q'(y, w), U'(t, r) — each exogenous atom ends
        # with exactly the variables of its covering non-exogenous atom.
        rewrite = self._rewrite()
        exo_var_sets = sorted(
            sorted(var.name for var in atom.variables)
            for atom in rewrite.query.atoms
            if atom.relation in rewrite.exogenous_relations
        )
        assert exo_var_sets == [["r", "t"], ["w", "y"], ["y"]]

    def test_all_exogenous_atoms_positive_after_step_1(self):
        rewrite = self._rewrite()
        for atom in rewrite.query.atoms:
            if atom.relation in rewrite.exogenous_relations:
                assert not atom.negated
