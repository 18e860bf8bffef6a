"""Bootstrap of a traced CLI child: python3 cli_boot.py <spans-file> <op id> <cli args...>

Imports the CLI, stamps the time once the import is done, installs the
benchmark's span wrappers and calls subwordkit.cli.main(args).  The spans
and the stamp (time.monotonic, which is system-wide, so the parent can
subtract its launch time) are written to <spans-file> on exit.
"""

import json
import sys
import time

import subwordkit.cli

IMPORTED = time.monotonic()

import spans  # noqa: E402  (after the stamp: the benchmark's own import is not startup)


def main(argv):
    out, op_id, args = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.op = op_id
    try:
        return subwordkit.cli.main(args)
    finally:
        tracer.op = None
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"imported": IMPORTED, "spans": tracer.spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
