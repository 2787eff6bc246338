"""Meta-consistency of the whole stack: the classifier's word is law.

For random self-join-free CQ¬s and random exogenous-relation choices:

* if :func:`classify` says *polynomial time*, the polynomial pipeline
  (CntSat or ExoShap, brute force disabled) must succeed and agree with
  the oracle;
* if it says *FP^#P-complete*, both polynomial algorithms must refuse the
  instance (raise), never silently return a wrong number.

This closes the loop between the dichotomy statements (Theorems 3.1/4.3)
and the algorithms implementing their positive sides.
"""

import random

import pytest

from harness.seed_cntsat import count_satisfying_subsets
from repro.core.classify import Complexity, classify
from repro.core.errors import NotHierarchicalError
from repro.core.hierarchy import is_hierarchical
from repro.shapley.brute_force import shapley_brute_force
from repro.shapley.exact import shapley_value
from repro.workloads.generators import (
    random_database_for_query,
    random_self_join_free_query,
)


def _random_instance(rng):
    query = random_self_join_free_query(
        num_variables=rng.randint(2, 4), num_atoms=rng.randint(2, 4), rng=rng
    )
    relations = sorted(query.relation_names)
    exogenous = frozenset(
        name for name in relations if rng.random() < 0.4
    )
    db = random_database_for_query(
        query, domain_size=2, fill_probability=0.5,
        exogenous_relations=tuple(exogenous), rng=rng,
    )
    return query, exogenous, db


@pytest.mark.parametrize("seed", range(6))
def test_polynomial_verdicts_are_computable_and_correct(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 8:
        query, exogenous, db = _random_instance(rng)
        verdict = classify(query, exogenous)
        endo = sorted(db.endogenous, key=repr)
        if verdict.complexity is not Complexity.POLYNOMIAL_TIME:
            continue
        if not endo or len(endo) > 9:
            continue
        target = rng.choice(endo)
        polynomial = shapley_value(
            db, query, target,
            exogenous_relations=exogenous, allow_brute_force=False,
        )
        assert polynomial == shapley_brute_force(db, query, target), (
            query, sorted(exogenous), target,
        )
        checked += 1


@pytest.mark.parametrize("seed", range(6))
def test_hard_verdicts_are_refused_by_polynomial_algorithms(seed):
    rng = random.Random(1000 + seed)
    checked = 0
    while checked < 8:
        query, exogenous, db = _random_instance(rng)
        verdict = classify(query, exogenous)
        if verdict.complexity is not Complexity.FP_SHARP_P_COMPLETE:
            continue
        # CntSat must refuse (the query cannot be hierarchical)...
        assert not is_hierarchical(query)
        with pytest.raises(NotHierarchicalError):
            count_satisfying_subsets(db, query)
        # ...and so must ExoShap under the same X.
        from repro.shapley.exoshap import rewrite_to_hierarchical

        with pytest.raises(NotHierarchicalError):
            rewrite_to_hierarchical(db, query, exogenous)
        checked += 1


@pytest.mark.parametrize("seed", range(4))
def test_hard_verdict_witness_is_valid(seed):
    rng = random.Random(2000 + seed)
    checked = 0
    while checked < 6:
        query, exogenous, _ = _random_instance(rng)
        verdict = classify(query, exogenous)
        if verdict.complexity is not Complexity.FP_SHARP_P_COMPLETE:
            continue
        witness = verdict.witness
        assert witness is not None
        # The witness atoms must be non-exogenous and in the query.
        assert witness.atom_x in query.atoms
        assert witness.atom_y in query.atoms
        assert witness.atom_x.relation not in exogenous
        assert witness.atom_y.relation not in exogenous
        assert witness.x in witness.atom_x.variables
        assert witness.x not in witness.atom_y.variables
        assert witness.y in witness.atom_y.variables
        assert witness.y not in witness.atom_x.variables
        checked += 1
