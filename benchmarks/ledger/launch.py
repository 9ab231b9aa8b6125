"""Start the program for the ledger, optionally with layer tracing.

    python launch.py [--trace FILE] serve ARGS...   # repro.cli serve ARGS
    python launch.py [--trace FILE] campaign        # figure-8 panels over stdin

With ``--trace`` the timing shims of :mod:`spans` are installed before
the program starts and the spans are written to FILE when it exits.

``campaign`` prints ``ready`` once the figure-8 API is imported, then
answers one JSON request per stdin line with one JSON line::

    {"app": "ins", "seeds": [1, 2, 3], "jobs": 2, "ratios": [0.1, ...]}
    -> {"points": [[ratio, fps_power, lpfps_power, fps_misses, lpfps_misses], ...]}

and exits at end of input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from spans import Tracer  # noqa: E402


def campaign() -> int:
    from repro.experiments import figure8

    print("ready", flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        result = figure8.run_figure8(
            request["app"],
            ratios=tuple(request.get("ratios", figure8.DEFAULT_RATIOS)),
            seeds=tuple(request["seeds"]),
            jobs=request["jobs"],
        )
        points = [
            [p.bcet_ratio, p.fps_power, p.lpfps_power, p.fps_misses, p.lpfps_misses]
            for p in result.points
        ]
        print(json.dumps({"points": points}), flush=True)
    return 0


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    tracer = Tracer()
    if trace_path is not None:
        tracer.install()
    try:
        if argv[:1] == ["serve"]:
            from repro.cli import main as cli_main

            return cli_main(argv)
        if argv == ["campaign"]:
            return campaign()
        print(f"usage: launch.py [--trace FILE] serve ARGS | campaign; got {argv}",
              file=sys.stderr)
        return 2
    finally:
        if trace_path is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
