import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import harness  # noqa: E402

harness.load_package()

import gate  # noqa: E402

gate.keep_nan_deviations()
