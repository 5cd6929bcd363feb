"""The package runs on the standard library alone (plus the optional C kernel).

numpy is not an install requirement: the kernel ladder is the python
CSR kernel and the compiled C kernel, whose ctypes wrapper marshals
:mod:`array` buffers.  The test below proves it in a fresh interpreter
where numpy cannot be imported, and checks that nothing even tries.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.core.ckernel import c_kernel_status

REPO_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: Runs in the child.  numpy is made unimportable by a meta-path finder
#: rather than a ``None`` entry in ``sys.modules``: the finder leaves
#: ``sys.modules`` untouched and records every attempt, so the final
#: assertion also catches an import that a ``try``/``except ImportError``
#: would have swallowed.
CHILD = r"""
import json
import sys

attempts = []


class NumpyBlocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            attempts.append(name)
            raise ImportError(f"numpy is unimportable here ({name})")
        return None


sys.meta_path.insert(0, NumpyBlocker())

import repro
import repro.cli
import repro.serve
from repro.core.csr import kernel_dispatch_stats
from repro.ftbfs import FTQueryOracle, build_cons2ftbfs
from repro.generators import erdos_renyi

g = erdos_renyi(40, 0.12, seed=9)
structure = build_cons2ftbfs(g, 0)
oracle = FTQueryOracle(structure)
faults = [e for e in sorted(structure.edges) if 0 not in e][:2]
targets = list(range(g.n))
hops = oracle.distances_bulk(0, targets, faults)
assert hops == [oracle.distance(0, t, faults) for t in targets]
far = max(t for t in targets if hops[t] != float("inf"))
route = oracle.path(0, far, faults)
assert len(route) == hops[far]
stats = kernel_dispatch_stats(g) or {}
assert "numpy" not in sys.modules and not attempts, attempts
print(json.dumps({"size": structure.size, "searches_c": stats.get("searches_c", 0)}))
"""


def test_package_runs_without_numpy():
    """Import the package, the CLI and the server, build a structure
    under ``REPRO_C_KERNEL=auto`` and answer a batch and a path query
    with numpy unimportable — and no module may even try to import it.
    Where the C kernel loads, the child's build must have used it."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_C_KERNEL="auto")
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["size"] > 0
    if c_kernel_status()[0]:
        assert result["searches_c"] > 0
