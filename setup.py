"""Setuptools packaging for the conf_podc_Parter15 reproduction.

A plain ``setup.py`` (no PEP 517 build isolation required) so the
package installs in offline environments that lack the ``wheel``
package:

    pip install -e .[test] --no-build-isolation

Dependency policy:

* There is no install requirement: the library is the standard library
  plus an optional C kernel.
* The C kernel (``repro/core/_ckernel.c``, which runs the default
  engine's searches, sweeps and point-query batches) builds as an
  *optional* extension: hosts without a working compiler install
  cleanly — setuptools downgrades the build failure to a warning — and
  the library falls back to the python kernel (``repro.core.ckernel``
  can also compile the same source on demand in source checkouts, so
  an installed extension is a convenience, not a requirement).
* The ``test`` extra carries everything the tier-1 suite and the
  benchmark harness need (numpy only because ``perfbench/run.py``
  records its version); CI installs via ``pip install -e .[test]``.
"""

import sys

from setuptools import Extension, find_packages, setup

# The threaded multi-pair entry point uses pthreads everywhere but
# Windows (where the C source compiles its serial fallback).
_thread_flags = [] if sys.platform == "win32" else ["-pthread"]

setup(
    name="repro-parter15",
    version="1.0.0",
    description=(
        "Fault-tolerant BFS structures (Parter, PODC 2015): CSR "
        "traversal kernel with an optional C tier, FT-BFS builders, "
        "verification and benchmarks"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "repro.core._ckernel",
            sources=["src/repro/core/_ckernel.c"],
            define_macros=[("REPRO_CKERNEL_PYMODULE", "1")],
            extra_compile_args=_thread_flags,
            extra_link_args=_thread_flags,
            # No compiler / broken toolchain must not fail the install:
            # repro.core.ckernel falls back to an on-demand build and
            # then to the python kernel.
            optional=True,
        )
    ],
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            # `repro` == `python -m repro` (the README quickstart)
            "repro=repro.cli:main",
        ],
    },
    install_requires=[],
    extras_require={
        "test": [
            "numpy>=1.22",
            "pytest>=7",
            "pytest-benchmark",
            "hypothesis",
            "networkx",
        ],
        "lint": [
            "ruff",
            "interrogate",
        ],
    },
)
