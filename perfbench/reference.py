"""Rewrite perfbench/reference.json from the current library.

    python3 perfbench/reference.py

The reference fingerprints pin the values of the fixed-seed reference
suite.  Regenerate them only for a change that is meant to alter the
values, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        outputs = workloads.run_reference_suite(workloads.reference_tasks(), Path(tmp), 1)
    reference = {name: workloads.fingerprint(out["values"]) for name, out in outputs.items()}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
