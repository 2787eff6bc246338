"""The tree-building digest encoder: the reference for ``digest_key``.

:func:`repro.engine.fingerprint.digest_key` renders its canonical JSON
text directly.  This is the encoder it replaced: build a type-tagged
list tree, then ``json.dumps`` it.  Durable store rows, daemon handles
and sampler seeds are keyed by these digests, so the two must agree
byte for byte; ``tests/test_fingerprint_digest.py`` checks that they do.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.facts import Fact


def encode(obj: Any) -> Any:
    """Canonical JSON-able encoding of a fingerprint tuple tree."""
    if isinstance(obj, tuple):
        return ["tuple", [encode(item) for item in obj]]
    if isinstance(obj, Fact):
        return ["fact", obj.relation, [encode(arg) for arg in obj.args]]
    if isinstance(obj, bool):
        return ["bool", obj]
    if isinstance(obj, int):
        return ["int", str(obj)]
    if isinstance(obj, float):
        return ["float", repr(obj)]
    if isinstance(obj, str):
        return ["str", obj]
    if obj is None:
        return ["none"]
    return ["repr", type(obj).__name__, repr(obj)]


def rendered(key: Any) -> str:
    """The JSON text the reference digests."""
    return json.dumps(encode(key), separators=(",", ":"), sort_keys=False)


def digest_key(key: Any) -> str:
    """The reference SHA-256 hex digest of a fingerprint tuple."""
    return hashlib.sha256(rendered(key).encode("utf-8")).hexdigest()
