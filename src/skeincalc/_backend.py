"""Kernel selection: compiled extension when available, Python fallback else.

Set SKEINCALC_PURE=1 to force the fallback.
"""

import os

if os.environ.get("SKEINCALC_PURE"):
    from . import _kernel_py as kernel

    BACKEND = "python"
else:
    try:
        from . import _ckernel as kernel  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        from . import _kernel_py as kernel

        BACKEND = "python"

mul_reduce = kernel.mul_reduce
