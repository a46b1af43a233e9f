"""Exporters for registry snapshots: JSON payload, Prometheus text, and a
dependency-free structural validator for the JSON payload.

The JSON payload (``schema: repro.obs/v2``) nests the flat span records
from :meth:`MetricsRegistry.snapshot` into a parent/child tree and keys
counters/gauges/histograms by their rendered ``name{label=value,...}``
form, so the file is stable, diffable, and greppable.  Every histogram is
a :class:`~repro.obs.digest.LatencyDigest` state plus its quantiles; in
Prometheus text it is a ``summary`` family.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from repro.obs.digest import EXPORT_QUANTILES, LatencyDigest
from repro.obs.registry import render_key

SCHEMA_ID = "repro.obs/v2"


def _rendered(entries) -> Dict[str, object]:
    return {
        render_key(name, tuple(sorted(labels.items()))): value
        for name, labels, value in entries
    }


def _span_tree(records: List[Dict]) -> List[Dict]:
    """Nest flat ``{"path": [...], ...}`` span records into a tree."""
    nodes: Dict[tuple, Dict] = {}
    roots: List[Dict] = []
    for record in sorted(records, key=lambda item: item["path"]):
        path = tuple(record["path"])
        node = {
            "name": path[-1],
            "count": record["count"],
            "total_s": record["total_s"],
            "min_s": record["min_s"],
            "max_s": record["max_s"],
            "values": dict(record.get("values", {})),
            "children": [],
        }
        nodes[path] = node
        parent = nodes.get(path[:-1])
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


def build_payload(snapshot: Dict, meta: Optional[Dict] = None) -> Dict:
    """JSON-ready payload from a registry snapshot."""
    return {
        "schema": SCHEMA_ID,
        "meta": dict(meta or {}),
        "counters": _rendered(snapshot.get("counters", [])),
        "gauges": _rendered(snapshot.get("gauges", [])),
        "histograms": {
            render_key(name, tuple(sorted(labels.items()))): _histogram_entry(state)
            for name, labels, state in snapshot.get("histograms", [])
        },
        "spans": _span_tree(snapshot.get("spans", [])),
    }


def _histogram_entry(state: Dict) -> Dict:
    """Digest state plus ready-to-read quantile estimates."""
    entry = dict(state)
    entry["quantiles"] = LatencyDigest.from_dict(state).quantiles(EXPORT_QUANTILES)
    return entry


def write_json(path, snapshot: Dict, meta: Optional[Dict] = None) -> Dict:
    payload = build_payload(snapshot, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_BAD.sub("_", name)


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition format: backslash first,
    then double quote and newline (the three characters the format
    reserves inside quoted label values)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_PROM_BAD.sub("_", key)}="{_prom_escape(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def to_prometheus(snapshot: Dict) -> str:
    """Prometheus text exposition of a registry snapshot."""
    lines: List[str] = []
    seen_types = set()

    def _type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for name, labels, value in snapshot.get("counters", []):
        prom = _prom_name(name) + "_total"
        _type_line(prom, "counter")
        lines.append(f"{prom}{_prom_labels(labels)} {value:g}")
    for name, labels, value in snapshot.get("gauges", []):
        prom = _prom_name(name)
        _type_line(prom, "gauge")
        lines.append(f"{prom}{_prom_labels(labels)} {value:g}")
    for name, labels, state in snapshot.get("histograms", []):
        prom = _prom_name(name)
        _type_line(prom, "summary")
        digest = LatencyDigest.from_dict(state)
        for q in EXPORT_QUANTILES:
            q_labels = dict(labels)
            q_labels["quantile"] = f"{q:g}"
            lines.append(f"{prom}{_prom_labels(q_labels)} {digest.quantile(q):g}")
        lines.append(f"{prom}_sum{_prom_labels(labels)} {state['sum']:g}")
        lines.append(f"{prom}_count{_prom_labels(labels)} {state['count']}")
    for record in snapshot.get("spans", []):
        prom = _prom_name("span_seconds")
        _type_line(prom, "summary")
        labels = {"path": "/".join(record["path"])}
        lines.append(f"{prom}_sum{_prom_labels(labels)} {record['total_s']:g}")
        lines.append(f"{prom}_count{_prom_labels(labels)} {record['count']}")
    return "\n".join(lines) + "\n"


def write_prometheus(path, snapshot: Dict) -> str:
    text = to_prometheus(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


# ----------------------------------------------------------------------
# Structural validation (no jsonschema dependency in this environment)
# ----------------------------------------------------------------------

def validate_payload(payload: Dict) -> List[str]:
    """Validate a ``repro.obs/v2`` JSON payload; return a list of problems
    (empty when valid)."""
    errors: List[str] = []

    def _expect(condition: bool, message: str) -> None:
        if not condition:
            errors.append(message)

    _expect(isinstance(payload, dict), "payload must be an object")
    if not isinstance(payload, dict):
        return errors
    _expect(payload.get("schema") == SCHEMA_ID,
            f"schema must be {SCHEMA_ID!r}, got {payload.get('schema')!r}")
    _expect(isinstance(payload.get("meta"), dict), "meta must be an object")
    for section in ("counters", "gauges"):
        values = payload.get(section)
        _expect(isinstance(values, dict), f"{section} must be an object")
        if isinstance(values, dict):
            for key, value in values.items():
                _expect(isinstance(key, str), f"{section} key {key!r} must be a string")
                _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                        f"{section}[{key!r}] must be a number")
    histograms = payload.get("histograms")
    _expect(isinstance(histograms, dict), "histograms must be an object")
    if isinstance(histograms, dict):
        for key, state in histograms.items():
            if not isinstance(state, dict):
                errors.append(f"histograms[{key!r}] must be an object")
                continue
            for field in ("relative_accuracy", "buckets", "zero_count",
                          "count", "sum"):
                _expect(field in state, f"histograms[{key!r}] missing {field!r}")
            accuracy = state.get("relative_accuracy")
            if isinstance(accuracy, (int, float)):
                _expect(0.0 < accuracy < 1.0,
                        f"histograms[{key!r}] relative_accuracy must be in (0, 1)")
            buckets = state.get("buckets")
            _expect(isinstance(buckets, list),
                    f"histograms[{key!r}] buckets must be an array")
            if isinstance(buckets, list):
                indices = [pair[0] for pair in buckets if isinstance(pair, list)]
                _expect(indices == sorted(indices),
                        f"histograms[{key!r}] bucket indices must be sorted")
                total = sum(
                    pair[1] for pair in buckets
                    if isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[1], int)
                )
                if isinstance(state.get("zero_count"), int):
                    total += state["zero_count"]
                _expect(total == state.get("count"),
                        f"histograms[{key!r}] bucket counts must sum to count")

    def _check_span(node, where: str) -> None:
        if not isinstance(node, dict):
            errors.append(f"{where} must be an object")
            return
        for field, kind in (
            ("name", str), ("count", int), ("total_s", (int, float)),
            ("min_s", (int, float)), ("max_s", (int, float)),
            ("values", dict), ("children", list),
        ):
            value = node.get(field)
            _expect(isinstance(value, kind), f"{where}.{field} must be {kind}")
        count = node.get("count")
        if isinstance(count, int):
            _expect(count >= 1, f"{where}.count must be >= 1")
        total = node.get("total_s")
        minimum = node.get("min_s")
        maximum = node.get("max_s")
        if all(isinstance(value, (int, float)) for value in (total, minimum, maximum)):
            _expect(0.0 <= minimum <= maximum <= total + 1e-9,
                    f"{where} timing invariant violated (min <= max <= total)")
        for index, child in enumerate(node.get("children") or []):
            _check_span(child, f"{where}.children[{index}]")

    spans = payload.get("spans")
    _expect(isinstance(spans, list), "spans must be an array")
    if isinstance(spans, list):
        for index, node in enumerate(spans):
            _check_span(node, f"spans[{index}]")
    return errors


#: One exposition sample line: name, optional label block, value.
_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)
_PROM_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_PROM_TYPE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$"
)


def _parse_prom_value(text: str) -> Optional[float]:
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        return None


def validate_prometheus(text: str) -> List[str]:
    """Validate Prometheus text exposition; return problems (empty if valid).

    Checks each line against the exposition grammar (metric name, quoted
    and escaped label values, parseable sample value) plus the summary
    invariants a concurrent-scrape bug would break: quantile values must
    be non-decreasing in the quantile, and every summary needs a
    ``_count`` sample.  Every distribution is exported as a summary, so a
    ``histogram`` TYPE line or a ``_bucket`` sample is an error.
    """
    errors: List[str] = []
    counts: Dict[tuple, float] = {}
    quantiles: Dict[tuple, List[tuple]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE"):
                match = _PROM_TYPE.match(line)
                if match is None:
                    errors.append(f"line {number}: malformed TYPE comment: {line!r}")
                elif match.group(2) == "histogram":
                    errors.append(
                        f"line {number}: histograms are exported as summaries: {line!r}"
                    )
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            errors.append(f"line {number}: not a valid sample line: {line!r}")
            continue
        name = match.group("name")
        label_block = match.group("labels")
        labels: Dict[str, str] = {}
        if label_block:
            consumed = _PROM_LABEL_PAIR.sub("", label_block).strip(", \t")
            if consumed:
                errors.append(
                    f"line {number}: malformed label block {label_block!r} "
                    f"(unparsed: {consumed!r})"
                )
                continue
            labels = dict(_PROM_LABEL_PAIR.findall(label_block))
        value = _parse_prom_value(match.group("value"))
        if value is None:
            errors.append(
                f"line {number}: unparseable value {match.group('value')!r}"
            )
            continue
        if name.endswith("_bucket"):
            errors.append(
                f"line {number}: bucket sample {name!r}: histograms are "
                f"exported as summaries"
            )
        elif name.endswith("_count"):
            family = name[: -len("_count")]
            rest = tuple(sorted(labels.items()))
            counts[(family, rest)] = value
        elif "quantile" in labels:
            rest = tuple(sorted(
                (key, val) for key, val in labels.items() if key != "quantile"
            ))
            quantiles.setdefault((name, rest), []).append(
                (labels["quantile"], value, number)
            )
    for (family, rest), series in quantiles.items():
        parsed = []
        for q_text, value, number in series:
            q = _parse_prom_value(q_text)
            if q is None or not 0.0 <= q <= 1.0:
                errors.append(
                    f"line {number}: quantile label must be in [0, 1], "
                    f"got {q_text!r}"
                )
            else:
                parsed.append((q, value))
        # A summary's quantile estimates read off one CDF: a higher
        # quantile can never report a smaller value.
        parsed.sort()
        values = [value for _q, value in parsed]
        if values != sorted(values):
            errors.append(
                f"{family}{dict(rest)}: quantile values must be "
                f"non-decreasing in quantile: {parsed}"
            )
        if (family, rest) not in counts:
            errors.append(f"{family}{dict(rest)}: summary missing _count sample")
    return errors

