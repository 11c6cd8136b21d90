"""Print the CPU seconds a cold `import pinchsim.cli` plus `build_parser()`
take, then those of one reference loop run in the same process.

Usage: python3 perfbench/setup_probe.py SRC_DIR   (run in a fresh interpreter)
"""

import sys
import time

start = time.process_time()
sys.path.insert(0, sys.argv[1])
import pinchsim.cli  # noqa: E402

pinchsim.cli.build_parser()
import_s = time.process_time() - start

from reference import reference_cpu_s  # noqa: E402  (after the timed part)

reference_cpu_s()  # warm-up
print(import_s, reference_cpu_s())
