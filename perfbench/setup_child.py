"""Set-up probe run in a fresh interpreter: import the package and build
one workload's models, printing the time of each step as JSON.

Usage: python3 setup_child.py WORKLOAD   (src/ on PYTHONPATH)

The dependencies are imported one at a time before ruinwalk, so the
ruinwalk figure is the package's own import cost.
"""

import json
import sys
from time import perf_counter

marks = [("start", perf_counter())]
import numpy  # noqa: E402,F401
marks.append(("numpy", perf_counter()))
import scipy.stats  # noqa: E402,F401
marks.append(("scipy_stats", perf_counter()))
import mpmath  # noqa: E402,F401
marks.append(("mpmath", perf_counter()))
import ruinwalk as rw  # noqa: E402
marks.append(("ruinwalk", perf_counter()))

from modelgen import workload_docs  # noqa: E402

for _key, doc in workload_docs(sys.argv[1]):
    rw.parse_model_config(doc).build()
marks.append(("build", perf_counter()))

print(json.dumps({name: t - prev for (_, prev), (name, t)
                  in zip(marks, marks[1:])}))
