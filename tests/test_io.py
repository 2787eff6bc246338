"""Unit tests for JSON / DIMACS serialization."""

import json

import pytest

from repro.io import (
    database_from_dict,
    database_to_dict,
    formula_from_dimacs,
    formula_to_dimacs,
    load_database,
    load_formula,
    save_database,
    save_formula,
)
from repro.logic.cnf import CnfFormula
from repro.logic.solver import is_satisfiable
from repro.workloads.running_example import figure_1_database


def _stats_section(out: str, section: str) -> dict:
    """The JSON of the one ``stats[<section>]`` line of ``--stats`` text."""
    prefix = f"stats[{section}]: "
    (line,) = [line for line in out.splitlines() if line.startswith(prefix)]
    return json.loads(line[len(prefix) :])


class TestDatabaseJson:
    def test_roundtrip_in_memory(self):
        db = figure_1_database()
        clone = database_from_dict(database_to_dict(db))
        assert clone.endogenous == db.endogenous
        assert clone.exogenous == db.exogenous

    def test_roundtrip_on_disk(self, tmp_path):
        db = figure_1_database()
        path = tmp_path / "db.json"
        save_database(db, path)
        clone = load_database(path)
        assert clone.endogenous == db.endogenous
        assert clone.exogenous == db.exogenous

    def test_integer_constants_roundtrip(self):
        from repro.core.database import Database
        from repro.core.facts import fact

        db = Database(endogenous=[fact("R", 1, "a")])
        clone = database_from_dict(database_to_dict(db))
        assert clone.endogenous == {fact("R", 1, "a")}

    def test_missing_keys_tolerated(self):
        db = database_from_dict({})
        assert len(db) == 0


class TestDimacs:
    def test_roundtrip(self):
        formula = CnfFormula.from_lists([[1, -2, 3], [-1, 2], [2]])
        again = formula_from_dimacs(formula_to_dimacs(formula))
        assert again == formula

    def test_header_and_terminators(self):
        text = formula_to_dimacs(CnfFormula.from_lists([[1, 2]]))
        assert text.startswith("p cnf 2 1")
        assert text.strip().endswith("1 2 0")

    def test_comments_skipped(self):
        text = "c a comment\np cnf 2 2\n1 -2 0\nc another\n2 0\n"
        formula = formula_from_dimacs(text)
        assert len(formula) == 2
        assert is_satisfiable(formula)

    def test_clause_spanning_lines(self):
        formula = formula_from_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert len(formula) == 1
        assert len(formula.clauses[0]) == 3

    def test_disk_roundtrip(self, tmp_path):
        formula = CnfFormula.from_lists([[1, 2], [-1, -2]])
        path = tmp_path / "f.cnf"
        save_formula(formula, path)
        assert load_formula(path) == formula


class TestCli:
    def test_demo_runs(self, capsys):
        from repro.cli import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "-3/28" in out

    def test_classify_command(self, capsys):
        from repro.cli import main

        assert main(["classify", "q() :- R(x), S(x, y), T(y)"]) == 0
        assert "FP^#P-complete" in capsys.readouterr().out

    def test_classify_with_exogenous(self, capsys):
        from repro.cli import main

        code = main(
            [
                "classify",
                "q() :- Author(x, y), Pub(x, z), Citations(z, w)",
                "--exogenous", "Pub", "Citations",
            ]
        )
        assert code == 0
        assert "polynomial" in capsys.readouterr().out

    def test_shapley_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "shapley", str(path),
                "q() :- Stud(x), not TA(x), Reg(x, y)",
                "--fact", "TA", "Adam",
            ]
        )
        assert code == 0
        assert "-3/28" in capsys.readouterr().out

    def test_shapley_all_facts(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            ["shapley", str(path), "q() :- Stud(x), not TA(x), Reg(x, y)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "13/42" in out and "(sum)" in out

    def test_relevance_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "relevance", str(path),
                "q() :- Stud(x), not TA(x), Reg(x, y)",
                "--fact", "TA", "David",
            ]
        )
        assert code == 0
        assert "  Shapley value is zero" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "name, negative, verdict",
        [("Adam", True, "nonzero"), ("David", False, "zero")],
    )
    def test_relevance_command_verdicts(
        self, tmp_path, capsys, name, negative, verdict
    ):
        # TA(Adam) can only turn q1 false (Example 2.3 gives it -3/28);
        # TA(David) is a null player.
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "relevance", str(path),
                "q() :- Stud(x), not TA(x), Reg(x, y)",
                "--fact", "TA", name,
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "  positively relevant: False",
            f"  negatively relevant: {negative}",
            f"  Shapley value is {verdict}",
        ]

    def test_batch_with_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        args = [
            "batch", str(path),
            "q() :- Stud(x), not TA(x), Reg(x, y)",
            "--cache-dir", str(tmp_path / "cache"),
            "--stats",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        cold_engine = _stats_section(cold, "engine")
        assert {"shared.hits", "shared.misses", "shared.evictions"} <= set(cold_engine)
        assert (tmp_path / "cache" / "results.db").is_file()
        # Same invocation again: the durable store must serve it warm.
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cached" in warm and _stats_section(warm, "engine")["shared.hits"] == 1

    def test_answers_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "answers", str(path),
                "ans(x) :- Stud(x), not TA(x), Reg(x, y)",
                "--aggregate", "count",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answer ('Caroline',)" in out
        assert "aggregate [count] attribution:" in out
        assert "pool:" in out

    def test_answers_single_answer_both_measures(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "answers", str(path),
                "ans(x) :- Stud(x), not TA(x), Reg(x, y)",
                "--answer", "Caroline",
                "--measure", "both",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answer ('Caroline',)" in out
        assert "shapley=1/2" in out and "banzhaf=1/2" in out
        assert "('Adam',)" not in out

    def test_answers_rejects_boolean_query(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            ["answers", str(path), "q() :- Stud(x), not TA(x), Reg(x, y)"]
        )
        assert code == 2
        assert "head variables" in capsys.readouterr().err

    def test_answers_sum_requires_value_index(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "answers", str(path),
                "ans(x) :- Stud(x), not TA(x), Reg(x, y)",
                "--aggregate", "sum",
            ]
        )
        assert code == 2
        assert "--value-index" in capsys.readouterr().err

    def test_answers_sum_rejects_out_of_range_index(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "answers", str(path),
                "ans(x) :- Stud(x), not TA(x), Reg(x, y)",
                "--aggregate", "sum", "--value-index", "5",
            ]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_answers_sum_rejects_non_numeric_head(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "answers", str(path),
                "ans(x) :- Stud(x), not TA(x), Reg(x, y)",
                "--aggregate", "sum", "--value-index", "0",
            ]
        )
        assert code == 2
        assert "not numeric" in capsys.readouterr().err

    def test_answers_rejects_arity_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "db.json"
        save_database(figure_1_database(), path)
        code = main(
            [
                "answers", str(path),
                "ans(x) :- Stud(x), not TA(x), Reg(x, y)",
                "--answer", "Adam", "Ben",
            ]
        )
        assert code == 2
        assert "arity" in capsys.readouterr().err
