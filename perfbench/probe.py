"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports ``multimpact``, loads each named scene, builds its problem and
computes ``psi``, then prints one JSON line with the import and build
times and exits.  The parent times from starting the interpreter to
reading that line.

Usage: python3 perfbench/probe.py SCENE [SCENE ...]   (``ball`` allowed)
"""

import json
import sys
import time

start = time.perf_counter()
from multimpact import scenes, setapprox  # noqa: E402

imported = time.perf_counter()
for name in sys.argv[1:]:
    if name == "ball":
        problem = scenes.build_ball()[0]
    else:
        problem = scenes.build_problem(scenes.load_scene(name))[0]
    setapprox.psi(problem)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported}), flush=True)
