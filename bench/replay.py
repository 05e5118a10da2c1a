"""Run a list of movingseg CLI commands in one fresh process.

    python3 bench/replay.py COMMANDS.json

COMMANDS.json is a JSON list of argument lists.  The benchmark runs its
reference pass through this script so that the pass's peak resident memory
is that of a process doing nothing but the workload's commands.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from movingseg.cli import main  # noqa: E402


def replay(path) -> int:
    for argv in json.loads(Path(path).read_text(encoding="utf-8")):
        code = main(argv)
        if code != 0:
            print(f"movingseg {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(replay(sys.argv[1]))
