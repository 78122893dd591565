"""Run one `symsum.cli` call under the tracer and write what it recorded.

    PYTHONPATH=src:. python -m perfbench.cli_child OUT.json <cli arguments>

The traced run of the `cli` workload starts this in place of
`python -m symsum.cli`; output and exit code are the CLI's own, and the
spans and counts go to OUT.json for the parent to merge.
"""

import json
import sys

from perfbench.tracer import Tracer


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import symsum.cli

    tracer = Tracer()
    tracer.install()
    try:
        return symsum.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
