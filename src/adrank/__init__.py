"""adrank: distribution fitting, pairwise model selection and adaptive
distributional ranking for empirical count data.

Each public name is listed once, in its module's ``__all__``. ``from
adrank import X`` walks the modules, retrieval first, and loads only those
it walks to find X (PEP 562), so a retrieval name loads no fitting code."""

import importlib

__version__ = "0.1.0"

_MODULES = ("numerics", "corpus", "ranking", "evaluation",
            "weighting", "distributions", "empirics", "selection")


def __getattr__(name):
    # a submodule name arrives here before ``from . import x`` imports it
    if not name.startswith("_") and name not in _MODULES + ("cli", "errors"):
        for sub in _MODULES:
            module = importlib.import_module(f"{__name__}.{sub}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
