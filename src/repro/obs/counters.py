"""Named integer counters: the one accounting type every layer reports in.

Caches, stores, the planner, the executors, the sampler, the kernels,
the claim protocol and the daemon's coalescer each own a
:class:`Counters` built from their own tuple of names.  The engine
snapshots them into ``engine.stats`` and flattens them into
``engine.counters()``; the daemon serves the same mappings through its
``stats`` and ``metrics`` operations.
"""

from __future__ import annotations


class Counters:
    """Named integer counters held as plain instance attributes.

    ``Counters("hits", "misses")`` starts every name at zero, and keyword
    arguments set starting values.  A bump is a plain attribute
    increment (``stats.hits += 1``) with no hook, lock or call on the
    hot path, and ``vars(stats)`` is the ``name -> value`` mapping in
    declaration order.
    """

    def __init__(self, *names: str, **values: int) -> None:
        vars(self).update(dict.fromkeys(names, 0), **values)

    def snapshot(self) -> "Counters":
        """An independent copy of the current values."""
        return Counters(**vars(self))

    def merge(self, other: "Counters") -> None:
        """Add ``other``'s values into the counters of the same name."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def delta(self, before: "Counters") -> "Counters":
        """The increase of every counter since ``before``, clamped at zero.

        The clamp absorbs a reset between the two readings (such as
        :func:`repro.util.kernels.reset_kernel_stats`): a per-request
        delta never reports negative work.
        """
        return Counters(
            **{
                name: max(0, value - getattr(before, name))
                for name, value in vars(self).items()
            }
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value}" for name, value in vars(self).items())
        return f"Counters({fields})"


__all__ = ["Counters"]
