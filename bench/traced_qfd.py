"""Run one qfd command with every layer traced.

    python3 bench/traced_qfd.py SPANS.npz <qfd arguments...>

Installs the wrappers of ``tracing.LAYERS``, runs ``qfd.cli.main`` on the
arguments, writes the spans to SPANS.npz and exits with qfd's exit code.
"""

import sys

import qfd.cli
from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, qfd_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return qfd.cli.main(qfd_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
