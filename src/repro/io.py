"""Serialization: databases to/from JSON, CNF to/from DIMACS, results to/from JSON.

The JSON layout is deliberately simple::

    {
      "endogenous": [["Reg", ["Adam", "OS"]], ...],
      "exogenous":  [["Stud", ["Adam"]], ...]
    }

Constants round-trip as JSON scalars (strings, ints, floats, bools).
DIMACS follows the standard ``p cnf`` header convention, so formulas can
be exchanged with external SAT tooling.

Attribution results serialize as rows of ``[relation, [args...],
numerator, denominator]`` with the numerator/denominator as *strings* —
exact ``Fraction`` arithmetic routinely produces integers beyond every
fixed-width range, so nothing here ever goes through a float.  These
helpers are the one dialect shared by the engine's durable result
store (:mod:`repro.engine.sqlite_store`), the attribution service's wire
protocol (:mod:`repro.server.protocol`), and the CLI's ``--json`` output,
so a document produced by any of them is readable by all of them.
The daemon can also send a *sparse* result document, which holds only
the nonzero rows (:func:`nonzero_rows`); the client reads it against
the version's fact list.  Sampled results additionally carry an
``estimate`` block (their ``(epsilon, delta)`` accuracy contract, round
counts, and resumable state handle) so an estimate can never
masquerade as an exact answer after a round-trip.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.database import Database
from repro.core.facts import Fact
from repro.core.query import ConjunctiveQuery, Variable
from repro.logic.cnf import Clause, CnfFormula

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.results import AttributionEstimate, AttributionView, BatchResult


def write_json_atomic(
    path: Path, payload: Any, indent: int | None = None
) -> bool:
    """Write ``payload`` as JSON to ``path`` atomically.

    The document is written to a temporary file in the same directory and
    ``os.replace``-d into place, so concurrent readers and writers only
    ever observe complete documents.  Returns False (after cleaning up
    the temporary file) instead of raising on I/O errors; callers that
    must not fail silently (e.g. an explicit trace export) raise on a
    False return.  ``indent=None`` writes the compact separators form;
    an integer pretty-prints for human-facing documents.
    """
    try:
        descriptor, temp_name = tempfile.mkstemp(
            prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent
        )
    except OSError:
        # The directory itself is gone or unwritable — same contract as a
        # failed write: report a skipped entry, never raise.
        return False
    try:
        with os.fdopen(descriptor, "w") as handle:
            if indent is None:
                json.dump(payload, handle, separators=(",", ":"))
            else:
                json.dump(payload, handle, indent=indent, sort_keys=True)
                handle.write("\n")
        os.replace(temp_name, path)
    except OSError:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        return False
    return True


# ----------------------------------------------------------------------
# Facts <-> JSON rows
# ----------------------------------------------------------------------
JSON_SCALARS = (str, int, float, bool, type(None))


def fact_to_row(item: Fact) -> list[Any]:
    """The ``[relation, [args...]]`` row of one fact.

    Shared by the database layout below and the engine's durable result
    store (:mod:`repro.engine.sqlite_store`), so both speak the same
    on-disk dialect.
    """
    return [item.relation, list(item.args)]


def fact_from_row(row: list[Any]) -> Fact:
    """Rebuild a fact from :func:`fact_to_row` output."""
    relation, args = row
    return Fact(relation, tuple(args))


def fact_is_json_safe(item: Fact) -> bool:
    """Do all constants of ``item`` round-trip through JSON scalars?"""
    return all(isinstance(arg, JSON_SCALARS) for arg in item.args)


# ----------------------------------------------------------------------
# Attribution values <-> JSON rows
# ----------------------------------------------------------------------
def fraction_to_pair(value: Fraction) -> list[str]:
    """``[numerator, denominator]`` as decimal strings — exact at any size."""
    return [str(value.numerator), str(value.denominator)]


def fraction_from_pair(pair: list) -> Fraction:
    """Rebuild a :class:`Fraction` from :func:`fraction_to_pair` output."""
    numerator, denominator = pair
    return Fraction(int(numerator), int(denominator))


def attribution_to_rows(values: Mapping[Fact, Fraction]) -> list[list[Any]] | None:
    """``[[relation, [args...], numerator, denominator], ...]`` or None.

    Rows iterate facts in the canonical sorted-by-``repr`` order.  Returns
    None when some constant is not a JSON scalar (such facts would not
    round-trip); callers decide whether that means "skip the cache entry"
    (the durable store) or "reject the request" (the wire protocol).
    """
    rows = []
    for item in sorted(values, key=repr):
        if not fact_is_json_safe(item):
            return None
        rows.append(fact_to_row(item) + fraction_to_pair(values[item]))
    return rows


def nonzero_rows(values: "AttributionView") -> list[list[Any]] | None:
    """The rows of a view's nonzero values only, in canonical order.

    The rows of a sparse result document: the reader reads every other
    fact of the version as zero, from its own copy of the version.  The
    view walks its slice, never the whole version.
    Returns None when some row's constants are not JSON scalars.
    """
    rows = []
    for _, item, value in values.nonzero():
        if not fact_is_json_safe(item):
            return None
        rows.append([item.relation, item.args, *fraction_to_pair(value)])
    return rows


def attribution_from_rows(rows: list[list[Any]]) -> dict[Fact, Fraction]:
    """Rebuild a fact-to-value mapping from :func:`attribution_to_rows`."""
    values: dict[Fact, Fraction] = {}
    for relation, args, numerator, denominator in rows:
        values[fact_from_row([relation, args])] = fraction_from_pair(
            [numerator, denominator]
        )
    return values


def estimate_to_dict(estimate: "AttributionEstimate") -> dict[str, Any]:
    """A JSON-ready document of one sampled result's accuracy metadata.

    ``epsilon``/``delta`` travel as floats (JSON preserves the exact
    double), the round/permutation counters as ints, and the resumable
    ``state_digest`` handle as a string or null.
    """
    return {
        "epsilon": estimate.epsilon,
        "delta": estimate.delta,
        "rounds": estimate.rounds,
        "permutations": estimate.permutations,
        "resumed_rounds": estimate.resumed_rounds,
        "state_digest": estimate.state_digest,
    }


def estimate_from_dict(payload: Mapping[str, Any]) -> "AttributionEstimate":
    """Rebuild an :class:`AttributionEstimate` from :func:`estimate_to_dict`."""
    from repro.engine.results import AttributionEstimate

    return AttributionEstimate(
        epsilon=float(payload["epsilon"]),
        delta=float(payload["delta"]),
        rounds=int(payload["rounds"]),
        permutations=int(payload["permutations"]),
        resumed_rounds=int(payload.get("resumed_rounds", 0)),
        state_digest=payload.get("state_digest"),
    )


def batch_result_to_dict(
    result: "BatchResult", *, sparse: bool = False
) -> dict[str, Any]:
    """A JSON-ready document of one batch result (both measures).

    Sampled results carry their ``(epsilon, delta)`` accuracy metadata in
    an ``estimate`` block (absent for exact methods), so an estimate is
    never mistaken for an exact answer after a round-trip.  Raises
    :class:`ValueError` when some fact's constants do not round-trip
    through JSON scalars — the wire protocol and ``--json`` must fail
    loudly rather than drop values silently.

    ``sparse`` (for a published result, whose mappings are
    :class:`~repro.engine.results.AttributionView` s) keeps only the
    :func:`nonzero_rows` and marks the document ``"sparse": true``;
    ``player_count`` still counts every endogenous fact of the version.
    """
    if sparse:
        shapley = nonzero_rows(result.shapley)
        banzhaf = nonzero_rows(result.banzhaf)
    else:
        shapley = attribution_to_rows(result.shapley)
        banzhaf = attribution_to_rows(result.banzhaf)
    if shapley is None or banzhaf is None:
        raise ValueError(
            "attribution values contain constants that do not round-trip"
            " through JSON scalars"
        )
    document: dict[str, Any] = {
        "method": result.method,
        "player_count": result.player_count,
        "from_cache": result.from_cache,
    }
    if sparse:
        document["sparse"] = True
    document["shapley"] = shapley
    document["banzhaf"] = banzhaf
    if result.estimate is not None:
        document["estimate"] = estimate_to_dict(result.estimate)
    return document


def batch_result_from_dict(
    payload: Mapping[str, Any],
    rows: Callable[[list[list[Any]]], dict[Fact, Fraction]] = attribution_from_rows,
) -> "BatchResult":
    """Rebuild a :class:`BatchResult` from a dense :func:`batch_result_to_dict`.

    ``rows`` decodes each measure's rows; a client passes its interning
    decoder, which returns equal mappings.  A sparse document decodes
    to its nonzero rows only: reading the rest as zero takes the
    version's fact list, which the client reads off the version it
    holds under the handle.
    """
    from repro.engine.results import BatchResult

    raw_estimate = payload.get("estimate")
    return BatchResult(
        shapley=rows(payload["shapley"]),
        banzhaf=rows(payload["banzhaf"]),
        method=payload["method"],
        player_count=payload["player_count"],
        from_cache=bool(payload.get("from_cache", False)),
        estimate=None if raw_estimate is None else estimate_from_dict(raw_estimate),
    )


# ----------------------------------------------------------------------
# Queries -> parser-compatible text
# ----------------------------------------------------------------------
def _term_to_text(term: Any) -> str:
    """One term in the grammar of :mod:`repro.core.parser`."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, bool) or not isinstance(term, (int, str)):
        raise ValueError(
            f"constant {term!r} has no textual form in the query grammar"
        )
    if isinstance(term, int):
        return str(term)
    if "'" in term:
        if '"' in term:
            raise ValueError(f"constant {term!r} mixes both quote characters")
        return f'"{term}"'
    return f"'{term}'"


def query_to_text(query: ConjunctiveQuery) -> str:
    """Render a CQ¬ in the datalog dialect :func:`repro.core.parser.parse_query`
    accepts, such that parsing the text rebuilds an equal query.

    This is how query objects travel over the attribution service's wire
    protocol: the daemon re-parses the text, and equality of the dataclass
    (atoms, head, name) guarantees fingerprint equality on both sides.
    """
    head = ", ".join(var.name for var in query.head)
    atoms = []
    for atom in query.atoms:
        terms = ", ".join(_term_to_text(term) for term in atom.terms)
        prefix = "not " if atom.negated else ""
        atoms.append(f"{prefix}{atom.relation}({terms})")
    return f"{query.name}({head}) :- {', '.join(atoms)}"


# ----------------------------------------------------------------------
# Databases <-> JSON
# ----------------------------------------------------------------------
def database_to_dict(database: Database) -> dict[str, Any]:
    """A JSON-ready dictionary of the database."""

    def rows(facts) -> list[list[Any]]:
        return [fact_to_row(item) for item in sorted(facts, key=repr)]

    return {
        "endogenous": rows(database.endogenous),
        "exogenous": rows(database.exogenous),
    }


def database_from_dict(payload: dict[str, Any]) -> Database:
    """Rebuild a database from :func:`database_to_dict` output."""
    db = Database()
    for key, endogenous in (("exogenous", False), ("endogenous", True)):
        for entry in payload.get(key, []):
            db.add(fact_from_row(entry), endogenous=endogenous)
    return db


def save_database(database: Database, path: str | Path) -> None:
    Path(path).write_text(json.dumps(database_to_dict(database), indent=2))


def load_database(path: str | Path) -> Database:
    return database_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# CNF <-> DIMACS
# ----------------------------------------------------------------------
def formula_to_dimacs(formula: CnfFormula) -> str:
    """Serialize to the standard DIMACS CNF format."""
    lines = [f"p cnf {formula.num_variables} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(literal) for literal in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


def formula_from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF (comments and the problem line are skipped)."""
    clauses: list[Clause] = []
    pending: list[int] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith(("c", "p", "%")):
            continue
        for token in line.split():
            literal = int(token)
            if literal == 0:
                if pending:
                    clauses.append(Clause(tuple(pending)))
                    pending = []
            else:
                pending.append(literal)
    if pending:
        clauses.append(Clause(tuple(pending)))
    return CnfFormula(tuple(clauses))


def save_formula(formula: CnfFormula, path: str | Path) -> None:
    Path(path).write_text(formula_to_dimacs(formula))


def load_formula(path: str | Path) -> CnfFormula:
    return formula_from_dimacs(Path(path).read_text())


# ----------------------------------------------------------------------
# Metrics dialect: latency histograms <-> JSON rows
# ----------------------------------------------------------------------
#: Upper bucket bounds (milliseconds) of every latency histogram in the
#: metrics dialect: log-spaced from sub-millisecond warm hits up to
#: minute-scale cold brute force, with ``inf`` as the implicit last
#: bucket.  Fixed bounds (rather than adaptive ones) keep histograms
#: mergeable across operations, daemons, and sessions.
LATENCY_BUCKET_BOUNDS_MS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 30_000.0, 60_000.0,
)


def histogram_rows(counts: list[int]) -> list[list[Any]]:
    """``[[upper_bound_ms, count], ...]`` rows of one latency histogram.

    ``counts`` has ``len(LATENCY_BUCKET_BOUNDS_MS) + 1`` entries (the
    last is the overflow bucket, serialized with ``null`` as its bound).
    """
    bounds: list[Any] = [*LATENCY_BUCKET_BOUNDS_MS, None]
    return [[bound, count] for bound, count in zip(bounds, counts)]


def histogram_quantile(rows: list[list[Any]], quantile: float) -> float | None:
    """An upper-bound estimate of ``quantile`` from histogram rows.

    Returns the upper bound of the bucket the quantile falls in (the
    conservative read: the true latency is at most this), the largest
    finite bound when it falls in the overflow bucket, and None for an
    empty histogram.  ``quantile`` is a fraction in ``[0, 1]``.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {quantile}")
    total = sum(count for _, count in rows)
    if total == 0:
        return None
    rank = quantile * total
    seen = 0
    largest_finite = 0.0
    for bound, count in rows:
        if bound is not None:
            largest_finite = float(bound)
        seen += count
        if seen >= rank and count:
            return float(bound) if bound is not None else largest_finite
    return largest_finite
