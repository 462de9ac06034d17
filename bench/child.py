"""Traced stand-in for `python -m darkstate.cli`, used by the cold-cli
workload's traced passes.

    python bench/child.py SPANS_JSON FIRST_SPAN_ID PARENT_SPAN_ID OP_NAME \
        -- CLI_ARGS...

Runs `darkstate.cli.main(CLI_ARGS)` with the spans of tracing.py installed
and writes them to SPANS_JSON when the command returns.  Span ids start at
FIRST_SPAN_ID, so they stay unique once merged with the parent's, and
top-level spans get the parent's operation span as their parent.
"""
import json
import sys

from tracing import Tracer, install, span_dicts


def main(argv):
    spans_path, first_id, parent_id, op_name, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_JSON FIRST_SPAN_ID "
                         "PARENT_SPAN_ID OP_NAME -- CLI_ARGS...")
    tracer = Tracer(first_id=int(first_id))
    tracer.op = op_name
    tracer.adopt(int(parent_id))
    install(tracer)
    import darkstate.cli

    try:
        return darkstate.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(span_dicts(tracer.spans), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
