"""One cold start: import magnomech, run ``magnomech measures`` once, exit.

    python3 perfbench/coldstart.py [--trace]

Prints one JSON object: the import time, the first point's time, the CLI's
output and, with ``--trace``, the self time of the config and cli layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    traced = "--trace" in sys.argv[1:]
    import tracing
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from magnomech import cli
    imported = time.perf_counter()
    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        tracer = stack.enter_context(tracing.Tracer()) if traced else None
        stack.enter_context(contextlib.redirect_stdout(buf))
        begin = time.perf_counter()
        code = cli.main(["measures"])
        done = time.perf_counter()
    result = {"code": code, "output": buf.getvalue(),
              "import_s": imported - start, "first_point_s": done - begin}
    if tracer is not None:
        result["config_s"] = tracer.self_s["config"]
        result["cli_self_s"] = tracer.self_s["cli"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
