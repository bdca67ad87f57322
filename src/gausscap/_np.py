"""numpy, imported on first use.

Every bound the package reports is a closed form in the Gaussian entropy
g(x); the report builders and the decomposition scan use no arrays. Only
covariance-level work needs numpy: states and channels, the thermal-probe
oracle, `verify` and the figure grids. Yet `import numpy` costs most of
`import gausscap`, so the modules that use it take `np` from here. If numpy
is already imported, `np` is that module. Otherwise it is registered through
`importlib.util.LazyLoader`, and numpy's `__init__` runs at the first
attribute access; from then on `np` is a plain module and calls pay nothing.
So nothing may touch `np` at import time: those modules postpone their
annotations (`from __future__ import annotations`).

Before Python 3.12, `LazyLoader`'s first attribute access is not
thread-safe: two threads touching `np` at once may both run numpy's
`__init__`. The package is single-process and single-threaded; a threaded
caller avoids the problem by importing numpy before gausscap.
"""

import importlib.util
import sys


def _load():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _load()
