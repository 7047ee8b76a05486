"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <size>

Imports ``forkcast`` from the checkout's ``src/``, builds the workload's
models through the program's constructors and prints ``ready``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], workloads.SIZES[sys.argv[2]])
print("ready", flush=True)
