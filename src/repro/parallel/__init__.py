"""Multi-core execution substrate: process fan-out and shared memory.

Two complementary engines live here:

:mod:`repro.parallel.pmap`
    :func:`parallel_map` — stateless fan-out of picklable tasks over a
    :class:`~concurrent.futures.ProcessPoolExecutor`, results in input
    order.  Every task's inputs travel through a pipe, so it suits grids
    of small, self-describing cells (the experiment grid).

:mod:`repro.parallel.shm`
    :class:`ShmEngine` — a persistent worker pool that publishes graph
    CSR buffers and :class:`~repro.core.packed.SignaturePack` arrays into
    named ``multiprocessing.shared_memory`` segments once, then
    dispatches *index ranges* to workers that reattach zero-copy.  It
    suits repeated recomputation over one large shared input (window
    recompute, dirty-set partitions, pair-distance sweeps).

The historical ``repro.parallel`` module API is preserved verbatim at the
package root.
"""

from repro.parallel.pmap import (
    MapExecutor,
    ON_ERROR_POLICIES,
    SerialExecutor,
    available_cpus,
    effective_jobs,
    parallel_map,
)
from repro.parallel.shm import (
    ShmEngine,
    active_segment_names,
    attach_graph,
    attach_pack,
    publish_graph,
    publish_pack,
)

__all__ = [
    "MapExecutor",
    "ON_ERROR_POLICIES",
    "SerialExecutor",
    "ShmEngine",
    "active_segment_names",
    "attach_graph",
    "attach_pack",
    "available_cpus",
    "effective_jobs",
    "parallel_map",
    "publish_graph",
    "publish_pack",
]
