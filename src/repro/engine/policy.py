"""The method/accuracy policy: one request shape for every front end.

Historically callers steered the engine with a scattered
``allow_brute_force: bool`` kwarg — a two-state knob that could not say
"give me an estimate" and that every layer (engine, daemon, wire
envelope, client, CLI) spelled slightly differently.
:class:`MethodPolicy` replaces it with one value that travels the whole
stack unchanged:

* ``method`` — which algorithm family may serve the request:

  ========== =========================================================
  ``auto``    CntSat / ExoShap when the dichotomy allows, bounded brute
              force otherwise, and — new with the approximation tier —
              Hoeffding-bounded sampling for everything else.  Never
              raises :class:`~repro.core.errors.IntractableQueryError`.
  ``exact``   polynomial algorithms only (the old
              ``allow_brute_force=False``): raises at plan time when
              the query falls outside Theorems 3.1/4.3.
  ``brute-force``
              force coalition enumeration (still validated against
              ``MAX_BRUTE_FORCE_PLAYERS``, counted on the relevance
              slice).
  ``sampled`` force the additive FPRAS of Section 5, even for
              tractable queries.
  ========== =========================================================

* ``epsilon``/``delta`` — the additive accuracy contract of a sampled
  answer, which holds *per fact*: for each fact, with probability at
  least ``1 - delta`` its estimate is within ``epsilon`` of the exact
  Shapley value.  It is not simultaneous: a guarantee that every fact
  is within ``epsilon`` at once needs a union bound over the facts
  (``delta / m`` for ``m`` facts), which the sampler does not apply.
  The pair is part of the request fingerprint
  (:meth:`MethodPolicy.contract`), so result stores and the daemon's
  request coalescer never conflate accuracy classes.

Only the wire protocol still reads the legacy ``allow_brute_force``
field (``True`` means ``auto``, ``False`` means ``exact``), so old
clients keep working (:meth:`MethodPolicy.from_params`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The method names a policy may request.
METHODS = ("auto", "exact", "brute-force", "sampled")

#: Default additive accuracy contract for sampled answers.
DEFAULT_EPSILON = 0.1
DEFAULT_DELTA = 0.05


@dataclass(frozen=True)
class MethodPolicy:
    """How a request may be answered, and — if sampled — how accurately.

    Instances are immutable and hashable, so a policy can sit directly
    inside cache keys and coalescing keys.  ``epsilon``/``delta`` are
    validated in ``(0, 1)`` even for exact methods: a policy is one
    request shape, and front ends forward the accuracy fields blindly.

    The brute-force cap (``MAX_BRUTE_FORCE_PLAYERS``) counts the players
    of the request's *relevance slice* — the endogenous facts some atom
    of ``q_t`` can match — not all of ``D``: every other fact is a null
    player with an exact zero.  So a non-hierarchical grounding over a
    large database whose slice fits under the cap is enumerated exactly
    (``2^|slice|`` coalitions) under ``auto`` and a forced
    ``brute-force``; ``exact`` still refuses it.
    """

    method: str = "auto"
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}"
                f" (expected one of: {', '.join(METHODS)})"
            )
        epsilon = float(self.epsilon)
        delta = float(self.delta)
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)

    def contract(self) -> tuple:
        """The accuracy-class fingerprint of this policy.

        Key material for sampled result entries: two requests share a
        stored estimate only when their ``(epsilon, delta)`` contracts
        agree exactly.  Exact methods have no accuracy class and do not
        include this in their keys.
        """
        return ("contract", repr(self.epsilon), repr(self.delta))

    def to_params(self) -> dict:
        """The policy as wire-envelope parameters (JSON-safe)."""
        return {
            "method": self.method,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }

    @classmethod
    def from_params(cls, params: dict) -> "MethodPolicy":
        """Rebuild a policy from wire-envelope parameters.

        Accepts the legacy ``allow_brute_force`` field silently (the
        protocol boundary is not a deprecation surface — old clients
        must keep working without the server spewing warnings).
        Explicit policy fields win over the legacy flag.
        """
        if any(field in params for field in ("method", "epsilon", "delta")):
            return cls(
                str(params.get("method", "auto")),
                epsilon=float(params.get("epsilon", DEFAULT_EPSILON)),
                delta=float(params.get("delta", DEFAULT_DELTA)),
            )
        legacy = params.get("allow_brute_force")
        if legacy is None:
            return cls()
        return cls("auto" if legacy else "exact")


def resolve_policy(policy: "MethodPolicy | str | None") -> MethodPolicy:
    """The :class:`MethodPolicy` a front door was handed.

    ``policy`` may be a :class:`MethodPolicy`, a bare method name
    (``"sampled"`` coerces to ``MethodPolicy("sampled")`` with default
    accuracy), or ``None`` (the ``auto`` default).
    """
    if policy is None:
        return MethodPolicy()
    if isinstance(policy, str):
        return MethodPolicy(policy)
    return policy


__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_EPSILON",
    "METHODS",
    "MethodPolicy",
    "resolve_policy",
]
