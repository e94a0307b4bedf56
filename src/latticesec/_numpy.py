"""numpy for the package, executed on first use.

The certificate half never touches numpy, yet importing it takes most of
a fresh `secrecy` or `theta` launch. So every module takes np from this
one place: a numpy already imported as it is, else a lazy module in
sys.modules that executes numpy at its first attribute read. No module
may write `import numpy`: the import system reads the `__spec__` of a
module it finds in sys.modules, which executes a lazy numpy at once.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(np)
