"""Set-up time: `import tenhash` plus `load_multiview` of a dataset.

Usage: python3 probe.py SRC_DIR DATASET_DIR

Every `tenhash cluster` invocation pays this before it kernelizes. Run as a
script it measures one fresh interpreter and prints the two times as JSON.
"""

import json
import sys
import time


def timed_setup(src, path):
    """Import tenhash from ``src`` and load ``path``; returns
    (import seconds, load seconds, tenhash module, dataset)."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import tenhash
    t1 = time.perf_counter()
    dataset = tenhash.load_multiview(path)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, tenhash, dataset


if __name__ == "__main__":
    import_s, load_s, _, _ = timed_setup(*sys.argv[1:])
    print(json.dumps({"import_s": import_s, "load_s": load_s}))
