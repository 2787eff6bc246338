"""Daemon lifecycle for tests: serve in a thread, always tear down.

The daemon binds its listener in ``__init__``, so the address is
connectable the moment the context manager yields — no polling for
readiness.  Teardown asks for a graceful drain, joins the serving
thread, and closes the listener; a thread still alive after the join
deadline fails the test instead of leaking.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path

from repro.server import AttributionDaemon


@contextlib.contextmanager
def running_daemon(directory, engine=None, name="daemon.sock", **options):
    """Serve an :class:`AttributionDaemon` on a thread for one ``with`` block.

    ``directory`` hosts the Unix socket; any extra keyword arguments
    (``max_inflight``, ``per_client_rps``, ``drain_timeout``) go straight
    to the daemon constructor, which is how fault tests shrink limits to
    provoke shedding.  The slow-frame and coalesce timeouts are the class
    constants ``AttributionDaemon.FRAME_TIMEOUT``/``COALESCE_TIMEOUT``;
    fault tests patch those with ``monkeypatch``.
    """
    daemon = AttributionDaemon(
        str(Path(directory) / name), engine=engine, **options
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon.shutdown()
        thread.join(timeout=10)
        daemon.close()
        assert not thread.is_alive(), "daemon thread failed to stop"


__all__ = ["running_daemon"]
