"""One set-up in a fresh interpreter: import, build the config, build the
channel. Prints {"import_s": ..., "build_channel_ms": ...} as JSON.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import plasmalink.cli  # noqa: E402,F401
from plasmalink import bench  # noqa: E402

from workloads import config_kwargs  # noqa: E402

t1 = perf_counter()
config = bench.ExperimentConfig(**config_kwargs(sys.argv[1],
                                                int(sys.argv[2])))
t2 = perf_counter()
bench.build_channel(config)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_channel_ms": 1e3 * (t3 - t2)}))
