"""One traced holonet CLI process: `cli_child.py OUT_JSON COMMAND ARGS...`.

Installs the span wrappers and one span per CLI command, runs
`holonet.cli.main` on the arguments as one chain, writes the chain's
per-span totals to OUT_JSON and exits with the CLI's exit code.
"""

import json
import sys

import holonet.cli

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    for name, fn in holonet.cli.COMMANDS.items():
        holonet.cli.COMMANDS[name] = tracer.wrap(f"cli.{name}", fn)
    tracer.chain = 0
    root = tracer.open(tracer.name_id("chain"))
    try:
        return holonet.cli.main(argv)
    finally:
        tracer.close(root)
        tracer.uninstall()
        with open(out, "w") as f:
            json.dump(tracer.per_chain().get(0, {}), f)


if __name__ == "__main__":
    raise SystemExit(main())
