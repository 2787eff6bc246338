"""``digest_key`` renders the reference encoder's JSON byte for byte.

Durable store rows, daemon database handles and sampler seeds are keyed
by ``digest_key``, so its direct renderer must print exactly what the
tree-building encoder it replaced (``harness/digest_reference.py``)
prints, on every value a fingerprint can hold.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from harness import digest_reference
from repro.core.facts import Fact
from repro.engine.fingerprint import _render, digest_key, fingerprint_database
from repro.server.registry import HANDLE_PREFIX, database_handle
from repro.workloads.running_example import figure_1_database


class Exotic:
    """A constant outside the JSON scalars, with a repr that needs escaping."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f'Exotic("{self.text}\\\\")'


class Count(int):
    """An ``int`` subclass: encoded through the ``int`` tag."""


texts = st.text(alphabet=st.characters(blacklist_categories=()), max_size=12)
scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**30), max_value=10**30).map(Count),
    st.floats(allow_nan=True, allow_infinity=True),
    texts,
    st.none(),
    st.fractions(),
    st.decimals(allow_nan=False),
    st.binary(max_size=6),
    texts.map(Exotic),
)
facts = st.builds(
    Fact,
    st.text(min_size=1, max_size=6).filter(bool),
    st.lists(scalars, max_size=3).map(tuple),
)
trees = st.recursive(
    st.one_of(scalars, facts),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=20,
)


class TestDirectRenderer:
    @settings(max_examples=400, deadline=None)
    @given(key=trees)
    def test_renders_the_reference_text(self, key):
        assert _render(key) == digest_reference.rendered(key)
        assert digest_key(key) == digest_reference.digest_key(key)

    def test_equal_values_of_distinct_types_stay_apart(self):
        digests = {digest_key((value,)) for value in (1, True, 1.0, "1", Count(1))}
        assert len(digests) == 4  # Count(1) shares the int tag with 1

    def test_fixed_values(self):
        for key in (
            (),
            ("relevant", None, (1, -2.5, float("nan"), float("-inf"))),
            (Fact("R", ("ä", " ", '"q"', "\\")),),
            (Fraction(1, 3), Decimal("1.10"), b"\x00", Exotic("é")),
        ):
            assert digest_key(key) == digest_reference.digest_key(key)

    def test_database_handles_are_unchanged(self):
        database = figure_1_database()
        expected = digest_reference.digest_key(fingerprint_database(database))
        assert database_handle(database) == HANDLE_PREFIX + expected[:32]
