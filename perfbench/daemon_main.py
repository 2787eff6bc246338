"""Run ``repro serve`` in this process, optionally with the layer timers.

Usage: ``python3 perfbench/daemon_main.py [--layers] SERVE-ARGS...``

With ``--layers`` the :class:`layers.LayerRecorder` wrappers are
installed before the daemon starts, and the daemon's ``metrics`` op
answers with one extra ``layers`` section: the recorder's snapshot.
Without it the daemon is exactly ``python -m repro serve``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report_layers_in_metrics(recorder) -> None:
    from repro.server.daemon import AttributionDaemon

    original = AttributionDaemon._operations["metrics"]

    def metrics_with_layers(daemon, payload):
        document = original(daemon, payload)
        document["layers"] = recorder.snapshot()
        return document

    AttributionDaemon._operations = {
        **AttributionDaemon._operations,
        "metrics": metrics_with_layers,
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    serve_args = [arg for arg in argv if arg != "--layers"]
    if len(serve_args) != len(argv):
        from layers import LayerRecorder

        _report_layers_in_metrics(LayerRecorder().install())
    from repro.cli import main as cli_main

    return cli_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
