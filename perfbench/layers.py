"""Per-layer figures from a run's ``repro.obs/v1`` document.

The span names are the program's own: ``encode``, ``level1.basic``,
``level{L}.pairs`` (children ``pairs.join``/``pairs.dedup``/``pairs.prune``),
``level{L}.compact``, ``level{L}.evaluate`` (children ``evaluate.blocks``)
and ``decode``.  Counts come from the document's ``counters.totals``.
"""

from __future__ import annotations

import re

_LEVEL_STAGE = re.compile(r"level\d+\.(pairs|compact|evaluate)$")


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.get("children", ()))


def span_seconds(doc: dict) -> dict[str, float]:
    """Layer seconds of one traced run, summed over levels and blocks."""
    out = dict.fromkeys(
        ("core.encode_s", "core.basic_s", "core.decode_s", "core.pairs_s",
         "core.pairs.join_s", "core.pairs.dedup_s", "core.pairs.prune_s",
         "core.compact_s", "core.evaluate_s", "linalg.kernel_s"),
        0.0,
    )
    fixed = {
        "encode": "core.encode_s",
        "level1.basic": "core.basic_s",
        "decode": "core.decode_s",
        "pairs.join": "core.pairs.join_s",
        "pairs.dedup": "core.pairs.dedup_s",
        "pairs.prune": "core.pairs.prune_s",
        "evaluate.blocks": "linalg.kernel_s",
    }
    stage = {"pairs": "core.pairs_s", "compact": "core.compact_s",
             "evaluate": "core.evaluate_s"}
    for span in _walk(doc["trace"]["spans"]):
        name = span["name"]
        seconds = float(span["elapsed_seconds"])
        if name in fixed:
            out[fixed[name]] += seconds
        else:
            match = _LEVEL_STAGE.match(name)
            if match:
                out[stage[match.group(1)]] += seconds
    out["core.evaluate.self_s"] = out["core.evaluate_s"] - out["linalg.kernel_s"]
    return out


def enumeration_counts(doc: dict) -> dict[str, float]:
    """Exact enumeration work of one run (identical across repeats)."""
    totals = doc["counters"]["totals"]
    evaluated = totals["evaluated"]
    return {
        "core.levels": len(doc["counters"]["levels"]),
        "core.candidates_emitted": totals["candidates_emitted"],
        "core.candidates_evaluated": evaluated,
        "core.valid_slices": totals["valid"],
        "core.dedup_removed": totals["dedup_removed"],
        "core.pruned_by_size": totals["pruned_by_size"],
        "core.pruned_by_score": totals["pruned_by_score"],
        "core.pruned_by_parents": totals["pruned_by_parents"],
        "core.skipped_by_priority": totals["skipped_by_priority"],
        "core.valid_per_evaluated": totals["valid"] / evaluated if evaluated else 0.0,
    }


def backends(doc: dict) -> list[str]:
    """The kernel backend the program chose for each level."""
    return [
        f"L{record['level']}={record['backend_chosen'] or '-'}"
        for record in doc["counters"]["levels"]
    ]


def format_table(title: str, metrics: dict[str, dict]) -> str:
    """One aligned ``name value unit`` table."""
    width = max(len(name) for name in metrics)
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.6g}  {entry['unit']}")
    return "\n".join(lines)
