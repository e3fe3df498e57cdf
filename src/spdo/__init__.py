"""Numerical toolkit for stochastic pseudo-differential operators on a
periodic grid with Monte Carlo Brownian paths."""

import gc
import sys

__version__ = "0.1.0"

# Block sizes that cli's memory budget reads before numpy loads, so they
# live here, in a module that loads no numpy.
# bytes of the work of one step of every streamed loop (a draw slice's
# increments in stochastic, a path slice's whole working set in bounds,
# chunks of nodes in quantize, blocks of frequencies in the symbol scans): a
# loop holds one block at a time
_BLOCK_BYTES = 1 << 20
# (path, time, site) arrays that a trial path slice of bounds holds at once:
# the field, its image and the temporaries of the synthesis and the tables
_PATH_SLICE_ARRAYS = 4
# bytes of one (path, node) work array per block of time nodes in
# cauchy._carleman_moments (at least one node): a block holds about ten,
# and at 256 KiB the perfbench carleman config peaked 2.1 MB higher, at
# _BLOCK_BYTES 7.8 MB higher
_NODE_BLOCK_BYTES = 1 << 16
# the largest N per dimension of the exact O(N^{2n}) sum of quantize, whose
# (N^n)^2 complex phase matrix is then at most 256 MiB
_N_CAP = {1: 128, 2: 64, 3: 16}


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
