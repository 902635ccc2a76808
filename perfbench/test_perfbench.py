"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

from qdiff import collapse as clp  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: w.tiny() for name, w in WORKLOADS.items()}


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    """The result and the details of a tiny run; set-ups in child processes use full sizes."""
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_with_unit(capsys, workload, trace):
    result, details = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        print(f"{workload} {name} {metric['value']} {metric['unit']}")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert details["samples"]["setup_s"] == len(details["setup_s_each"]) == run.COLD_SETUPS


@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_answer_counts_as_failed(capsys, monkeypatch, trace):
    control = _run(capsys, "weak-ensembles", trace)[0]
    assert control["failed"] == 0 and control["correct"] is True
    fit_collapsed = clp.fit_collapsed

    def shifted(*args, **kwargs):
        res = fit_collapsed(*args, **kwargs)
        return dataclasses.replace(res, q=res.q + 0.2)

    monkeypatch.setattr(clp, "fit_collapsed", shifted)
    result = _run(capsys, "weak-ensembles", trace)[0]
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False


def test_raising_op_counts_as_failed(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(run.sys.modules["qdiff.cli"], "cmd_verify_pme", broken)
    result = _run(capsys, "pme-verify", 0)[0]
    assert result["failed"] == result["attempted"] >= 1


def test_inputs_follow_the_seed(tmp_path):
    w = TINY["index-series"]
    a, b, c = ([p.read_bytes() for p in w.prepare(tmp_path / d, seed)]
               for d, seed in (("a", 5), ("b", 5), ("c", 6)))
    assert a == b
    assert len(set(a + c)) == len(a + c)  # every variant of every seed differs


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pme-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench").exists()
