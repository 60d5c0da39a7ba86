"""Fresh-interpreter entry for the cli workload and the set-up probes.

    python3 bench/child.py [--trace FILE] MODULE [ARG ...]

Imports MODULE from the checkout's `src`, writes "@bench-ready <clock>" to
stderr as soon as it is imported, and, when arguments follow, runs the
`crepant` command line with them exactly as the installed `crepant` script
would.  With --trace, the command runs under a Tracer whose summary and
spans are written to FILE as JSON.
"""

import json
import sys
import time
from pathlib import Path

READY = "@bench-ready"


def main(argv):
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    module, args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    __import__(module)
    sys.stderr.write(f"{READY} {time.perf_counter():.9f}\n")
    sys.stderr.flush()
    if not args:
        return 0
    from crepant.cli import main as cli
    if trace_file is None:
        return cli(args, prog_name="crepant")
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    token = tracer.enter("cli.command", "cli.command")
    try:
        return cli(args, prog_name="crepant")
    finally:
        tracer.exit(token)
        tracer.enabled = False
        sys.stdout.flush()
        Path(trace_file).write_text(json.dumps(
            {"summary": tracer.summary(), "spans": tracer.spans,
             "installed": tracer.installed}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
