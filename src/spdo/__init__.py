"""Numerical toolkit for stochastic pseudo-differential operators on a
periodic grid with Monte Carlo Brownian paths."""

import gc
import sys

__version__ = "0.1.0"


def _import_long_lived(name):
    """Import `name` with the cyclic collector paused, then gc.freeze()."""
    if name not in sys.modules:
        enabled = gc.isenabled()
        gc.disable()
        try:
            __import__(name)
        finally:
            if enabled:
                gc.enable()
        gc.freeze()
    return sys.modules[name]
