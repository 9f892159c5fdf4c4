"""Run one ``repro`` CLI command with the layers traced.

Usage::

    python perfbench/traced_main.py OUT.json queue worker --work-dir W
    python perfbench/traced_main.py OUT.json serve --work W --port 0

The tracer's totals are written to ``OUT.json`` when the command
returns, or when the process receives SIGTERM (how a daemon is
stopped).
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer().install()

    def dump() -> None:
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot(), sort_keys=True), encoding="utf-8")
        os.replace(tmp, out)

    def on_term(signum, frame) -> None:
        dump()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    from repro.__main__ import main as repro_main

    code = repro_main(sys.argv[2:])
    dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
