"""Paths, child-process helpers and statistics shared by the benchmark modules."""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: Generated input populations (see inputs.py); reused across runs.
CACHE_DIR = HERE / ".cache"
#: Per-run checkpoint and history directories; removed after each run.
WORK_DIR = HERE / ".work"
RESULTS_DIR = HERE / "results"


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def child_env() -> Dict[str, str]:
    """Environment for processes running the system: ``src`` importable,
    unbuffered stdout (the benchmark reads readiness lines from it), and
    one fixed string-hash seed, so that dict and set layouts, and with them
    the program's speed, do not change from one process to the next."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _cpu_split() -> Tuple[Set[int], Set[int]]:
    cpus = sorted(os.sched_getaffinity(0))
    return (set(cpus[:-1]) or set(cpus)), {cpus[-1]}


#: The system runs on one CPU and the benchmark on the others (on a single
#: CPU, both share it).  The system is one GIL-bound process (the replay
#: child, or the server with its HTTP and pump threads), so one CPU is all
#: it can use.  On a shared host each vCPU has slow spells of its own; a
#: server whose threads hand the GIL from one vCPU to the other waits on
#: whichever is slow.  In interleaved runs, pinning cut the spread of
#: serve_ingest's window-close time from 14% to 9%.
BENCH_CPUS, SYSTEM_CPUS = _cpu_split()


def pin_to_system_cpu(pid: int) -> None:
    """Move a just-spawned process of the system (its threads follow) to
    ``SYSTEM_CPUS``."""
    os.sched_setaffinity(pid, SYSTEM_CPUS)


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[low] == ordered[high]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def typical_time(samples: Sequence[float]) -> float:
    """The time a run reports for repeated work: the lower quartile of its
    samples.  Bursts of contention on a shared host only ever add time, so
    the lower quartile reads the program's own speed unless bursts cover
    three quarters of the run (the median: half)."""
    return quartiles(samples)[0]


def peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` (peak resident set) of process ``pid`` (or ``"self"``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def dir_bytes(*paths: Path) -> int:
    total = 0
    for path in paths:
        for root, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def history_rows(history_dirs: Iterable[Path]) -> int:
    """Stored signature rows across history stores (from their manifests)."""
    from repro.store.history import HistoryStore

    return sum(
        record.rows
        for directory in history_dirs
        for record in HistoryStore(directory).segment_records()
    )


def signature_mismatches(observed, reference, tolerance: float = 0.0) -> int:
    """Owners whose signature differs between two ``owner -> signature`` maps.

    Signatures may be :class:`repro.core.signature.Signature` objects or
    plain ``{node: weight}`` dicts (as ``/signature`` returns them).  With
    ``tolerance == 0`` signatures must be identical.  Otherwise shared
    entries may differ by ``tolerance``, and membership may differ only
    among entries tied within ``tolerance`` with the other side's last
    (smallest) weight — the only place a top-k cut can legitimately move.
    """
    observed = {str(owner): _as_dict(sig) for owner, sig in observed.items()}
    reference = {str(owner): _as_dict(sig) for owner, sig in reference.items()}
    mismatches = len(observed.keys() ^ reference.keys())
    for owner in observed.keys() & reference.keys():
        if not _same_signature(observed[owner], reference[owner], tolerance):
            mismatches += 1
    return mismatches


def _as_dict(signature) -> Dict[str, float]:
    if isinstance(signature, dict):
        return {str(node): float(weight) for node, weight in signature.items()}
    return {str(node): float(weight) for node, weight in signature.entries}


def _same_signature(a: Dict[str, float], b: Dict[str, float], tolerance: float) -> bool:
    if tolerance == 0.0:
        return a == b
    if len(a) != len(b):
        return False
    if any(abs(a[node] - b[node]) > tolerance for node in a.keys() & b.keys()):
        return False
    for mine, other in ((a, b), (b, a)):
        floor = min(other.values(), default=0.0)
        if any(abs(mine[node] - floor) > tolerance for node in mine.keys() - other.keys()):
            return False
    return True
