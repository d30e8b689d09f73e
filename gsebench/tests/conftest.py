"""Put the benchmark modules and the checkout's gse on the import path.

Run from the root of a checkout:  python3 -m pytest gsebench/tests -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from run import bootstrap  # noqa: E402

bootstrap(processes=1)
