"""Set-up probe: in a fresh interpreter, the time to import greedylab and
generate one workload's inputs.  Prints, as its last line, that time in
reference seconds (see ``speed.py``) and as measured.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import time

from speed import SpeedSampler

sampler = SpeedSampler()
with sampler.running():
    mark = sampler.mark()
    t0 = time.perf_counter()

    from workloads import build_ops, import_program  # noqa: E402

    import_program()
    build_ops(sys.argv[1], int(sys.argv[2]))
raw = time.perf_counter() - t0
busy, scale = sampler.scale(mark)
print(repr((raw - busy) * scale), repr(raw))
