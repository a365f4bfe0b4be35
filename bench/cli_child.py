"""Run one `whfactor` CLI op, sampling the host speed or tracing layers.

Usage: python3 bench/cli_child.py OUT OP_ID TRACE <whfactor arguments>

Untraced (TRACE 0), a calibrate.Sampler times the calibration kernel
every calibrate.INTERVAL_S while the op runs; the harness subtracts the
passes' time from the process's own. Traced (TRACE 1), the layer wrappers
are installed instead. Either way the child calls `whfactor.cli.main` with
the remaining arguments, writes the passes (and the spans and counters
when tracing) to OUT once at the end and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv):
    out, op_id, trace, cli_args = argv[0], int(argv[1]), argv[2] == "1", argv[3:]
    sampler = calibrate.Sampler()
    tracer = Tracer()
    if trace:
        tracer.install()
    else:
        sampler.start()
    import whfactor.cli

    tracer.begin_op(op_id, enabled=trace)
    try:
        code = whfactor.cli.main(cli_args)
    finally:
        sampler.stop()
        tracer.end_op()
        record = {"calibration": sampler.passes}
        if trace:
            record["spans"] = tracer.dump()
        with open(out, "w", encoding="ascii") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
