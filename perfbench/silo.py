"""Silo process launcher for the networked workload.

Runs ``repro silo`` (``repro.cli.main``) in this interpreter.  With
``--metrics-out`` it first wraps the silo's public entry points and, on
exit, writes a JSON object with the seconds the silo spent training
(``UldpAvg.silo_round_segment``), sending (``MessageSocket.send``) and
waiting for the server's next frame (``MessageSocket.recv``)::

    PYTHONPATH=src python3 perfbench/silo.py --config spec.json \\
        --silo-id 0 --port 5000 [--metrics-out silo-0.json]
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--silo-id", required=True)
    parser.add_argument("--port", required=True)
    parser.add_argument("--metrics-out", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.metrics_out:
        from repro.core.methods.uldp_avg import UldpAvg
        from repro.net.transport import MessageSocket
        from tracing import Tracer

        tracer = Tracer(run_id=f"silo-{args.silo_id}")
        tracer.method(UldpAvg, "silo_round_segment", "silo.train")
        tracer.method(MessageSocket, "send", "silo.send")
        tracer.method(MessageSocket, "recv", "silo.idle")
    from repro.cli import main as repro_main

    code = repro_main(["silo", "--config", args.config, "--silo-id",
                       args.silo_id, "--port", args.port])
    if tracer is not None:
        tot = tracer.totals()
        with open(args.metrics_out, "w") as fh:
            json.dump({key: tot.get(span, [0, 0.0, 0.0])[1]
                       for key, span in (("train_s", "silo.train"),
                                         ("send_s", "silo.send"),
                                         ("idle_s", "silo.idle"))}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
