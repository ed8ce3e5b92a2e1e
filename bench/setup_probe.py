"""Set-up probe: interpreter start, `import risbeam`, and config parse.

    python3 bench/setup_probe.py <scale> <config document>...

The benchmark times whole runs of this script as its set-up time; it
prints nothing and exits 0 once every document has parsed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from risbeam import harness  # noqa: E402

for text in sys.argv[2:]:
    harness.parse_config(text, scale=sys.argv[1])
