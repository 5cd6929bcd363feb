"""Compatibility import path for :func:`kernel_dispatch_stats`.

The numpy bulk kernel that used to live here is gone: the kernel
ladder is the python CSR kernel plus the optional C kernel (see
``docs/kernels.md``).  ``kernel_dispatch_stats`` now lives in
:mod:`repro.core.csr`, next to the counters it reads; this module
re-exports it because existing callers, the ``perfbench/`` build and
serve workers among them, import it from ``repro.core.bulk``.
"""

from repro.core.csr import kernel_dispatch_stats

__all__ = ["kernel_dispatch_stats"]
