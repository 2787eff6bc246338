"""CLI error paths, environment validation, and ``--json`` output.

The satellite contracts of ISSUE 4: invalid ``REPRO_JOBS`` /
``REPRO_START_METHOD`` values produce a clear one-line error (never a
traceback), classic operator mistakes (bad query text, missing database
file, conflicting flags) exit 2 with an ``error:`` line on stderr, and
``--json`` emits the shared :mod:`repro.io` dialect — exact
numerator/denominator pairs plus the per-layer stats block.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.cli import main
from repro.engine.core import environment_problems
from repro.io import fraction_from_pair, save_database
from repro.workloads.running_example import figure_1_database

Q1 = "q1() :- Stud(x), not TA(x), Reg(x, y)"
ANS = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "db.json"
    save_database(figure_1_database(), path)
    return str(path)


def _one_clean_error(capsys) -> str:
    """The captured stderr, asserted to be one-line errors, no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line]
    assert lines, "expected an error line on stderr"
    for line in lines:
        assert line.startswith("error:"), line
    return err


class TestEnvironmentValidation:
    def test_non_integer_jobs_is_one_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["demo"]) == 2
        err = _one_clean_error(capsys)
        assert "REPRO_JOBS" in err and "'many'" in err
        assert len(err.splitlines()) == 1

    def test_non_positive_jobs_is_one_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert main(["demo"]) == 2
        err = _one_clean_error(capsys)
        assert "positive" in err

    def test_bogus_start_method_is_one_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        assert main(["demo"]) == 2
        err = _one_clean_error(capsys)
        assert "REPRO_START_METHOD" in err and "teleport" in err

    def test_both_invalid_reports_both(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-3")
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        assert main(["demo"]) == 2
        err = _one_clean_error(capsys)
        assert "REPRO_JOBS" in err and "REPRO_START_METHOD" in err

    def test_valid_environment_passes(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        assert main(["demo"]) == 0
        assert environment_problems() == []

    def test_problems_listed_without_running_a_command(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2.5")
        problems = environment_problems()
        assert len(problems) == 1
        assert "not an integer" in problems[0]


class TestCliErrorPaths:
    def test_bad_query_string(self, capsys, db_path):
        assert main(["batch", db_path, "q() :- "]) == 2
        err = _one_clean_error(capsys)
        assert "unexpected end of input" in err

    def test_bad_query_string_on_answers(self, capsys, db_path):
        assert main(["answers", db_path, "ans(x :- R(x)"]) == 2
        _one_clean_error(capsys)

    def test_missing_database_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["batch", missing, Q1]) == 2
        err = _one_clean_error(capsys)
        assert "nope.json" in err

    def test_malformed_database_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["batch", str(path), Q1]) == 2
        _one_clean_error(capsys)

    def test_conflicting_answer_and_aggregate_flags(self, capsys, db_path):
        code = main(
            [
                "answers", db_path, ANS,
                "--answer", "Caroline",
                "--aggregate", "count",
            ]
        )
        assert code == 2
        err = _one_clean_error(capsys)
        assert "--aggregate" in err and "--answer" in err

    def test_connect_conflicts_with_engine_flags(self, capsys, db_path, tmp_path):
        code = main(
            [
                "batch", db_path, Q1,
                "--connect", str(tmp_path / "whatever.sock"),
                "--jobs", "2",
            ]
        )
        assert code == 2
        err = _one_clean_error(capsys)
        assert "serve" in err

    def test_non_sqlite_shared_store_is_one_clean_error(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.db"
        garbage.write_text("this is not a database\n" * 100)
        code = main(["serve", "--socket", str(tmp_path / "s.sock"),
                     "--shared-store", str(garbage)])
        assert code == 2
        err = _one_clean_error(capsys)
        assert len(err.splitlines()) == 1
        assert "garbage.db" in err and "not a database" in err
        assert not (tmp_path / "s.sock").exists()

    def test_non_sqlite_cache_dir_store_is_one_clean_error(
        self, capsys, db_path, tmp_path
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "results.db").write_text("this is not a database\n" * 100)
        assert main(["batch", db_path, Q1, "--cache-dir", str(cache)]) == 2
        err = _one_clean_error(capsys)
        assert len(err.splitlines()) == 1
        assert "results.db" in err and "not a database" in err

    def test_serve_takes_one_durable_store(self, capsys, tmp_path):
        code = main(
            [
                "serve", "--socket", str(tmp_path / "s.sock"),
                "--cache-dir", str(tmp_path / "cache"),
                "--shared-store", str(tmp_path / "shared.db"),
            ]
        )
        assert code == 2
        err = _one_clean_error(capsys)
        assert "--cache-dir" in err and "--shared-store" in err

    def test_intractable_query_is_one_clean_error(self, capsys, tmp_path):
        from repro.core.database import Database
        from repro.core.facts import fact

        from repro.shapley.brute_force import MAX_BRUTE_FORCE_PLAYERS

        # Strictly past the brute-force player cap with --method exact, so
        # the plan-time IntractableQueryError surfaces before any coalition
        # enumerates.  (The default "auto" would serve this as an estimate.)
        half = MAX_BRUTE_FORCE_PLAYERS // 2 + 1
        db = Database(
            endogenous=[fact("R", i) for i in range(half)]
            + [fact("T", i) for i in range(half)],
            exogenous=[fact("S", i, i) for i in range(half)],
        )
        path = tmp_path / "hard.json"
        save_database(db, path)
        code = main(
            ["batch", str(path), "q() :- R(x), S(x, y), T(y)", "--method", "exact"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error:")
        assert "brute force" in err


class TestUpdateFlag:
    @pytest.fixture
    def delta_path(self, tmp_path):
        path = tmp_path / "delta.json"
        path.write_text(
            json.dumps(
                {
                    "add_endogenous": [["Reg", ["Adam", "DB"]]],
                    "remove": [["TA", ["Ben"]]],
                }
            )
        )
        return str(path)

    def test_local_update_applies_before_computing(
        self, capsys, db_path, delta_path
    ):
        assert main(["batch", db_path, Q1, "--update", delta_path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (entry,) = document["queries"]
        facts = {(row[0], tuple(row[1])) for row in entry["shapley"]}
        assert ("Reg", ("Adam", "DB")) in facts
        assert ("TA", ("Ben",)) not in facts

    def test_local_update_on_answers(self, capsys, db_path, delta_path):
        assert main(["answers", db_path, ANS, "--update", delta_path, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        answers = [entry["answer"] for entry in document["answers"]]
        assert ["Ben"] in answers  # no longer a TA after the delta

    def test_missing_delta_file_is_one_clean_error(self, capsys, db_path, tmp_path):
        missing = str(tmp_path / "nope-delta.json")
        assert main(["batch", db_path, Q1, "--update", missing]) == 2
        err = _one_clean_error(capsys)
        assert "nope-delta.json" in err

    def test_malformed_delta_is_one_clean_error(self, capsys, db_path, tmp_path):
        path = tmp_path / "bad-delta.json"
        path.write_text(json.dumps({"remove": "oops"}))
        assert main(["batch", db_path, Q1, "--update", str(path)]) == 2
        err = _one_clean_error(capsys)
        assert "fact rows" in err

    def test_inapplicable_delta_is_one_clean_error(self, capsys, db_path, tmp_path):
        path = tmp_path / "gone-delta.json"
        path.write_text(json.dumps({"remove": [["TA", ["Nobody"]]]}))
        assert main(["batch", db_path, Q1, "--update", str(path)]) == 2
        err = _one_clean_error(capsys)
        assert "does not hold" in err


class TestJsonOutput:
    def test_batch_json_is_exact_and_carries_stats(self, capsys, db_path):
        assert main(["batch", db_path, Q1, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["database"] == db_path
        (entry,) = document["queries"]
        assert entry["query"] == Q1
        assert entry["method"] == "cntsat"
        assert entry["player_count"] == 8
        shapley = {
            (row[0], tuple(row[1])): fraction_from_pair(row[2:])
            for row in entry["shapley"]
        }
        # Exact efficiency on exact pairs — impossible with floats.
        assert sum(shapley.values(), Fraction(0)) == 1
        assert ("Reg", ("Adam", "AI")) in shapley
        assert len(entry["banzhaf"]) == len(entry["shapley"])
        engine_stats = document["stats"]["engine"]
        assert engine_stats["planner.requested"] == 1
        assert engine_stats["executor.tasks"] == 1

    def test_answers_json_includes_aggregate_and_pool(self, capsys, db_path):
        code = main(["answers", db_path, ANS, "--aggregate", "count", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        answers = [entry["answer"] for entry in document["answers"]]
        assert answers == sorted(answers)
        assert ["Caroline"] in answers
        aggregate = document["aggregate"]
        assert aggregate["label"] == "count"
        totals = {
            (row[0], tuple(row[1])): fraction_from_pair(row[2:])
            for row in aggregate["values"]
        }
        assert sum(totals.values(), Fraction(0)) == 1
        assert "pool" in document
        assert "engine" in document["stats"]

    def test_json_round_trips_through_the_shared_helper(self, capsys, db_path):
        from repro.io import batch_result_from_dict

        assert main(["batch", db_path, Q1, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        rebuilt = batch_result_from_dict(document["queries"][0])
        from repro.engine import BatchAttributionEngine, SerialExecutor
        from repro.io import load_database
        from repro.core.parser import parse_query

        reference = BatchAttributionEngine(executor=SerialExecutor()).batch(
            load_database(db_path), parse_query(Q1)
        )
        assert dict(rebuilt.shapley) == dict(reference.shapley)
        assert dict(rebuilt.banzhaf) == dict(reference.banzhaf)
