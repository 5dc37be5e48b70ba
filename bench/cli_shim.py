"""Traced stand-in for `python -m matroidkit.cli`.

    python bench/cli_shim.py SPANS_OUT ARGS...

Times the import of matroidkit.cli, installs the span wrappers from spans.py,
calls `cli.run(ARGS)` and exits with its code, as `matroidkit.cli.main` does.
The aggregated spans, the import time, and the wall-clock times at which this
script starts and finishes (so the parent can time interpreter start-up and
shutdown) go to SPANS_OUT as JSON, also when the call raises.
"""

import time

START = time.time()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, install  # noqa: E402


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import matroidkit.cli as cli

    import_s = time.perf_counter() - t0
    install(tracer)
    try:
        code = cli.run(argv)
    finally:
        with open(out, "w") as fh:
            json.dump({"start": START, "end": time.time(), "import_s": import_s, **tracer.dump()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
