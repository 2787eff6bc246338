"""Unit tests for generic cooperative-game Shapley values."""

from fractions import Fraction

import pytest

from repro.shapley.games import (
    banzhaf_value,
    efficiency_gap,
    permutation_marginals,
    shapley_all,
    shapley_and_banzhaf,
    shapley_by_permutations,
    shapley_by_subsets,
)


def unanimity_game(required: frozenset):
    """v(S) = 1 iff S contains all required players."""

    def value(coalition: frozenset) -> int:
        return 1 if required <= coalition else 0

    return value


def additive_game(weights: dict):
    def value(coalition: frozenset) -> int:
        return sum(weights[player] for player in coalition)

    return value


class TestShapleyDefinitions:
    def test_unanimity_game_splits_evenly(self):
        players = ["a", "b", "c"]
        value = unanimity_game(frozenset(players))
        for player in players:
            assert shapley_by_permutations(players, value, player) == Fraction(1, 3)

    def test_dictator_game(self):
        players = ["a", "b"]
        value = unanimity_game(frozenset({"a"}))
        assert shapley_by_permutations(players, value, "a") == 1
        assert shapley_by_permutations(players, value, "b") == 0

    def test_additive_game_gives_weights(self):
        weights = {"a": 3, "b": 5, "c": -2}
        players = list(weights)
        value = additive_game(weights)
        for player, weight in weights.items():
            assert shapley_by_subsets(players, value, player) == weight

    def test_permutation_and_subset_forms_agree(self):
        players = ["a", "b", "c", "d"]
        value = unanimity_game(frozenset({"a", "c"}))
        for player in players:
            assert shapley_by_permutations(players, value, player) == (
                shapley_by_subsets(players, value, player)
            )

    def test_unknown_player_rejected(self):
        with pytest.raises(ValueError):
            shapley_by_permutations(["a"], lambda s: 0, "z")
        with pytest.raises(ValueError):
            shapley_by_subsets(["a"], lambda s: 0, "z")


class TestShapleyAll:
    def test_matches_individual(self):
        players = ["a", "b", "c"]
        value = unanimity_game(frozenset({"a", "b"}))
        combined = shapley_all(players, value)
        for player in players:
            assert combined[player] == shapley_by_subsets(players, value, player)

    def test_efficiency_axiom(self):
        players = ["a", "b", "c"]
        value = unanimity_game(frozenset({"b"}))
        values = shapley_all(players, value)
        assert efficiency_gap(players, value, values) == 0

    def test_empty_game(self):
        assert shapley_all([], lambda s: 0) == {}

    def test_repeated_target_counts_once(self):
        value = unanimity_game(frozenset({"a"}))
        shapley, banzhaf = shapley_and_banzhaf(["a", "b"], value, ["a", "a"])
        assert shapley == {"a": 1}
        assert banzhaf == {"a": 1}


class TestBanzhaf:
    def test_unanimity_banzhaf(self):
        players = ["a", "b"]
        value = unanimity_game(frozenset(players))
        assert banzhaf_value(players, value, "a") == Fraction(1, 2)

    def test_null_player_is_zero_for_both_indices(self):
        players = ["a", "b", "null"]
        value = unanimity_game(frozenset({"a", "b"}))
        assert banzhaf_value(players, value, "null") == 0
        assert shapley_by_subsets(players, value, "null") == 0


class TestMarginals:
    def test_marginal_count(self):
        players = ["a", "b", "c"]
        value = unanimity_game(frozenset({"a"}))
        marginals = list(permutation_marginals(players, value, "a"))
        assert len(marginals) == 6
        assert all(m == 1 for m in marginals)
