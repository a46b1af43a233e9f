"""Multi-core execution substrate: process fan-out and shared memory.

Two complementary engines live here:

:mod:`repro.parallel.pmap`
    :func:`parallel_map` — stateless fan-out of picklable tasks over a
    :class:`~concurrent.futures.ProcessPoolExecutor`, results in input
    order.  Every task's inputs travel through a pipe, so it suits grids
    of small, self-describing cells (the experiment grid).

:mod:`repro.parallel.shm`
    :class:`ShmEngine` — a persistent worker pool that publishes graph
    CSR buffers into named ``multiprocessing.shared_memory`` segments
    once, then dispatches *index ranges* to workers that reattach
    zero-copy.  It suits repeated recomputation over one large shared
    input (window recompute, dirty-set partitions).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".pmap": (
            "MapExecutor", "SerialExecutor", "available_cpus", "effective_jobs",
            "parallel_map",
        ),
        ".shm": ("ShmEngine", "active_segment_names", "attach_graph", "publish_graph"),
    },
)
