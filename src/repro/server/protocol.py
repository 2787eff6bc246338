"""The attribution service's wire protocol: framing, envelopes, errors.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Length-prefixed framing keeps the stream
self-delimiting (no sentinels inside documents, no streaming parser), and
a hard :data:`MAX_FRAME_BYTES` cap means a corrupt or hostile header can
never make the daemon allocate unbounded memory.

On top of the framing sit versioned request/response **envelopes**::

    {"v": 2, "id": 7, "op": "batch", "db": "db:...", "query": "q() :- ..."}
    {"v": 2, "id": 7, "ok": true,  "result": {...}}
    {"v": 2, "id": 7, "ok": false, "error": {"type": "...", "message": "..."}}

``v`` is :data:`PROTOCOL_VERSION` and must match on both sides — a
mismatch is a :class:`ProtocolError`, never a silent misparse.  ``id`` is
an opaque client token echoed verbatim, so a client can pipeline requests
over one connection and still pair responses.

Error frames **round-trip exceptions by type name**: the daemon encodes
the exception class and message, and :func:`error_from_payload` rebuilds
the local type on the client — an
:class:`~repro.core.errors.IntractableQueryError` raised at plan time in
the daemon re-raises as an ``IntractableQueryError`` in the client's
process, a :class:`~repro.core.errors.QuerySyntaxError` from the daemon's
parser re-raises as a ``QuerySyntaxError``, and anything unmapped becomes
a generic :class:`ServerError` carrying the original type name.

Attribution payloads use the shared row dialect of :mod:`repro.io`
(``Fraction`` values as exact numerator/denominator string pairs), so the
protocol, the durable result store, and the CLI's ``--json`` output all speak
the same format.

**Sparse results.**  A ``batch``, ``refine`` or ``answers`` request may
carry ``sparse: true``.  Each result document of its response then holds
only the rows of nonzero values, in the canonical ``repr`` order, and is
marked ``"sparse": true``; ``player_count`` still counts every
endogenous fact of the database version::

    {"method": "cntsat", "player_count": 8, "from_cache": true,
     "sparse": true,
     "shapley": [["Reg", ["Adam", "AI"], "37", "210"], ...],
     "banzhaf": [["Reg", ["Adam", "AI"], "3", "64"], ...]}

Every fact the rows leave out has the exact value zero.  A reader fills
those in from the version's fact list, which it reads off its own copy
of the version (handles are content-addressed, so one copy serves every
daemon of a fleet).  A sampled result's ``banzhaf`` rows
stay empty in both encodings.  ``aggregate`` ignores the flag, and a
request without it gets today's dense documents byte for byte.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO

from repro.core.errors import (
    IntractableQueryError,
    QuerySyntaxError,
    ReproError,
    UnsafeNegationError,
)

#: Bump on any incompatible change to the envelope or payload layout.
#: Version 2 (the approximation tier): ``batch``/``answers`` accept
#: ``method``/``epsilon``/``delta`` policy fields, result documents may
#: carry an ``estimate`` block, and the ``refine`` operation exists.
#: Version 3 (the asyncio daemon): the ``metrics`` operation exists,
#: requests may carry ``priority`` (int, higher first) and
#: ``deadline_ms`` (relative milliseconds) admission fields, and error
#: frames may carry ``retryable: true`` — load-shedding outcomes
#: (:class:`OverloadedError`, :class:`DeadlineExceededError`,
#: :class:`CoalescedRequestAborted`) that a client may simply resend.
#:
#: Still version 3 (tracing is *additive*): compute requests may carry
#: ``trace: true``, in which case the result object gains ``trace_id``
#: and a ``trace`` span document (see :mod:`repro.obs`).  Daemons that
#: predate tracing ignore the unknown request field and omit both
#: response fields, so neither side needs a version bump.
#:
#: Still version 3 (sparse results are additive too): ``batch``,
#: ``refine`` and ``answers`` requests may carry ``sparse: true`` (see
#: the module docstring).  A daemon that predates it answers densely,
#: and a dense document is always readable.
PROTOCOL_VERSION = 3

#: Upper bound on one frame's body; a larger header is a protocol error.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(ReproError):
    """The byte stream or an envelope violates the wire protocol."""


class ServerError(ReproError):
    """A daemon-side failure with no more specific local exception type."""


class UnknownHandleError(ReproError):
    """A request named a database handle the daemon does not hold.

    Raised by the daemon's registry (the handle was never loaded, or was
    evicted); the client should ``db_load`` the database again.
    """


class AuthenticationError(ReproError):
    """The request lacked (or carried a wrong) daemon auth token.

    Only raised on TCP listeners started with an auth token
    (``--auth-token`` / ``REPRO_AUTH_TOKEN``); Unix-domain sockets rely
    on filesystem permissions and never authenticate.  The daemon
    answers unauthenticated frames with this typed error frame, so a
    misconfigured client fails loudly with the real reason instead of a
    dead socket.
    """


class OverloadedError(ReproError):
    """The daemon shed this request instead of queueing it.

    Raised when admission control refuses work: the in-flight limit and
    queue are full, the per-client token bucket is empty, or the daemon
    is draining for shutdown.  Always **retryable** — nothing about the
    request itself is wrong, the daemon just has no capacity for it
    right now, and a later resend may well be served warm.
    """

    retryable = True


class DeadlineExceededError(ReproError):
    """The request's ``deadline_ms`` expired while it was still queued.

    The daemon never *starts* work for an expired request (finishing it
    would be wasted effort the client no longer wants), so this frame
    means zero engine time was spent.  Retryable with a fresh deadline.
    """

    retryable = True


class CoalescedRequestAborted(ReproError):
    """A coalesced follower lost its leader before a result existed.

    The follower was parked on an in-flight identical computation whose
    leader crashed, was cancelled, or outlived the follower's patience
    (timeout).  The computation may still land in the warm store, so a
    retry is cheap — hence retryable.
    """

    retryable = True


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict[str, Any]) -> bytes:
    """One length-prefixed JSON frame as bytes (header + body).

    The size cap is read at call time (not import time) so tests and
    operators can tighten :data:`MAX_FRAME_BYTES` on the module and see
    oversized *responses* rejected, not just requests.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame_body(body: bytes) -> dict[str, Any]:
    """The payload of one frame body; raises :class:`ProtocolError`."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def write_frame(stream: BinaryIO, payload: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame and flush it."""
    stream.write(encode_frame(payload))
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    """Up to ``count`` bytes; shorter only when the stream ended."""
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """One frame's payload, or None on a clean EOF at a frame boundary.

    EOF *inside* a frame — a peer that died mid-write — is a
    :class:`ProtocolError`, as is an oversized header or a body that is
    not a JSON object.
    """
    header = _read_exact(stream, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError("stream ended inside a frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes, above the"
            f" {MAX_FRAME_BYTES}-byte cap"
        )
    body = _read_exact(stream, length)
    if len(body) < length:
        raise ProtocolError(
            f"stream ended inside a frame body ({len(body)} of {length} bytes)"
        )
    return decode_frame_body(body)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
#: Operations a version-3 daemon understands.
OPERATIONS = (
    "ping",
    "stats",
    "metrics",
    "db_load",
    "db_update",
    "batch",
    "answers",
    "aggregate",
    "refine",
    "shutdown",
)


def request(op: str, request_id: Any, **params: Any) -> dict[str, Any]:
    """A request envelope for ``op`` with ``params`` merged in."""
    envelope = {"v": PROTOCOL_VERSION, "id": request_id, "op": op}
    envelope.update(params)
    return envelope


def ok_response(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, error: BaseException) -> dict[str, Any]:
    """An error envelope carrying the exception's type name and message.

    Exceptions whose class carries ``retryable = True`` (the
    load-shedding family) mark the frame retryable, telling clients the
    request itself was fine and a resend may succeed.
    """
    payload: dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if getattr(error, "retryable", False):
        payload["retryable"] = True
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": payload,
    }


def validate_request(payload: dict[str, Any]) -> str:
    """The request's operation name; raises :class:`ProtocolError` otherwise."""
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, this side"
            f" speaks {PROTOCOL_VERSION}"
        )
    op = payload.get("op")
    if op not in OPERATIONS:
        raise ProtocolError(f"unknown operation {op!r}")
    return op


#: Exception types that re-raise as themselves on the client side.
WIRE_ERRORS: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        IntractableQueryError,
        QuerySyntaxError,
        UnsafeNegationError,
        UnknownHandleError,
        AuthenticationError,
        OverloadedError,
        DeadlineExceededError,
        CoalescedRequestAborted,
        ProtocolError,
        ValueError,
    )
}


def error_from_payload(error: dict[str, Any]) -> Exception:
    """Rebuild the daemon-side exception from an error envelope's payload.

    Mapped types round-trip exactly; everything else degrades to
    :class:`ServerError` with the original type name in the message.
    The frame's ``retryable`` flag lands on the instance (instance
    attribute, so even unmapped server errors keep it).
    """
    name = str(error.get("type", "ServerError"))
    message = str(error.get("message", ""))
    mapped = WIRE_ERRORS.get(name)
    if mapped is not None:
        rebuilt: Exception = mapped(message)
    else:
        rebuilt = ServerError(f"{name}: {message}" if message else name)
    rebuilt.retryable = bool(error.get("retryable", False))  # type: ignore[attr-defined]
    return rebuilt


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def parse_address(spec: str) -> tuple[str, Any]:
    """``("unix", path)`` or ``("tcp", (host, port))`` from an address spec.

    ``HOST:PORT`` (a numeric port, no slash in the host) and ``tcp:...``
    mean TCP; everything else — including explicit ``unix:path`` — is a
    Unix-domain socket path.
    """
    if spec.startswith("unix:"):
        return ("unix", spec[len("unix:") :])
    if spec.startswith("tcp:"):
        spec = spec[len("tcp:") :]
        host, separator, port = spec.rpartition(":")
        if not separator or not port.isdigit():
            raise ValueError(f"tcp address must be HOST:PORT, got {spec!r}")
        return ("tcp", (host or "127.0.0.1", int(port)))
    host, separator, port = spec.rpartition(":")
    if separator and port.isdigit() and "/" not in host and host:
        return ("tcp", (host, int(port)))
    return ("unix", spec)


def format_address(kind: str, location: Any) -> str:
    """The printable/spec form of a parsed address."""
    if kind == "unix":
        return str(location)
    host, port = location
    return f"{host}:{port}"


__all__ = [
    "AuthenticationError",
    "CoalescedRequestAborted",
    "DeadlineExceededError",
    "MAX_FRAME_BYTES",
    "OPERATIONS",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerError",
    "UnknownHandleError",
    "decode_frame_body",
    "encode_frame",
    "error_from_payload",
    "error_response",
    "format_address",
    "ok_response",
    "parse_address",
    "read_frame",
    "request",
    "validate_request",
    "write_frame",
]
