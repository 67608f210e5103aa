"""The ``gamepowers`` command line, run from this checkout's sources.

Does what the installed ``gamepowers`` script does (``gamepowers.cli:main``)
without needing an install.  When GAMEPOWERS_BENCH_TRACE names a file, the
run records spans around the library's public functions and writes their
summary there before exiting.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    trace_path = os.environ.get("GAMEPOWERS_BENCH_TRACE")
    if not trace_path:
        from gamepowers.cli import main as cli_main

        return cli_main()
    import gamepowers.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return gamepowers.cli.main()
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
