"""Each report states each fact once: ``inputs`` holds settings, ``verdicts``
judgements and ``results`` measurements, and ``results`` repeats neither."""

import json
import math

import numpy as np
import pytest

from qpd3.cli import main
from qpd3.closedform import compare_to_oracle, sample_any

HALF_PI = repr(math.pi / 2)


def _leaf_count(node) -> int:
    if isinstance(node, dict):
        return sum(_leaf_count(v) for v in node.values())
    if isinstance(node, list):
        return sum(_leaf_count(v) for v in node)
    return 1


def _dicts(node, path):
    """Every dict in a JSON tree, with its path."""
    if isinstance(node, dict):
        yield path, node
        for k, v in node.items():
            yield from _dicts(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _dicts(v, f"{path}[{i}]")


def _items(node: dict) -> set[tuple[str, str]]:
    return {(k, json.dumps(v, sort_keys=True)) for k, v in node.items()}


def _copies(doc: dict) -> list[str]:
    """Paths of the dicts under ``results`` with at least 2 leaves whose every
    item is also an item of one dict under ``inputs`` or ``verdicts``: a copy
    of that subtree, whole or in part."""
    stated = [
        (path, _items(node))
        for section in ("inputs", "verdicts")
        for path, node in _dicts(doc[section], section)
    ]
    return [
        f"{path} copies {source}"
        for path, node in _dicts(doc["results"], "results")
        if _leaf_count(node) >= 2
        for source, items in stated
        if _items(node) <= items
    ]


def _report(tmp_path, *argv) -> dict:
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--seed", "1729"),
        ("verify", "--seed", "7"),
        ("nash", "--scan"),
        (
            "nash", "--alice", f"0,{math.pi!r},{math.pi!r}", "--bob", f"0,0,{HALF_PI}",
            "--charlie", f"0,0,{HALF_PI}", "--gamma", HALF_PI, "--delta", HALF_PI,
        ),
    ],
    ids=["bundle-1729", "bundle-7", "nash-scan", "nash-profile"],
)
def test_results_copy_no_input_or_verdict(tmp_path, argv):
    assert _copies(_report(tmp_path, *argv)) == []


def test_closed_form_summary_rebuilds_from_its_seed(tmp_path):
    # the summary keeps no per-sample list: its own seed and sample count
    # redraw the samples, and the per-call oracle gives the same figures
    doc = _report(tmp_path, "verify", "--seed", "1729")
    summary = doc["results"]["closed_form_unrestricted"]
    report = compare_to_oracle(sample_any, summary["sample_count"], summary["seed"])
    worst = np.sort([max(s.delta_abs) for s in report.samples])
    assert report.sample_count == summary["sample_count"] == 1000
    assert report.max_abs_delta == summary["max_abs_delta"]
    assert report.mean_abs_delta == summary["mean_abs_delta"]
    assert summary["delta_distribution"] == {
        "quantiles": {
            f"p{q:02d}": float(worst[(len(worst) - 1) * q // 100]) for q in (5, 25, 50, 75, 95)
        }
    }
