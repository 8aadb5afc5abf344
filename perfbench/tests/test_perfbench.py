"""Tests of the benchmark itself: its manifest, its oracles, and that
tracing wraps the right bindings only when asked.

Run from the checkout root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import caseline
import caseline.ablation
import caseline.cli
import caseline.encoder
import caseline.model
import caseline.retrieval
from caseline.optim import AdamW
from caseline.retrieval import RetrievalConfig
from caseline.store import EmbeddingStore

import layertrace
import worker
from checks import brute_force_topk, same_topk
from workloads import load_specs

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def installed_wrappers() -> list[str]:
    """Keys of every tracer wrapper currently bound in caseline."""
    found = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "caseline"
                                  or name.startswith("caseline.")):
            continue
        for value in list(vars(module).values()):
            candidates = [value]
            if isinstance(value, type):
                candidates = [getattr(raw, "__func__", raw)
                              for raw in vars(value).values()]
            for c in candidates:
                key = getattr(c, layertrace.MARK, None)
                if isinstance(key, str):
                    found.add(key)
    return sorted(found)


def tiny(name: str) -> dict:
    """The workload's record shrunk to run in about a second."""
    spec = copy.deepcopy(load_specs()[name])
    spec["corpus"]["n"] = 96
    spec["splits"] = {"train": 48, "validation": 24, "test": 24}
    spec["warmup"] = {"n": 40,
                      "splits": {"train": 16, "validation": 12, "test": 12}}
    spec["overrides"].update({
        "encoder.hash_dim": 1024, "encoder.hidden_dim": 16,
        "encoder.out_dim": 16, "train.max_epochs": 2, "train.patience": 2})
    return spec


# ------------------------------------------------------------ manifest

def test_manifest_has_exactly_the_contract_keys():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["perfbench"]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in MANIFEST["end_to_end"])}]
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_manifest_workloads_match_the_records():
    specs = load_specs()
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (name, spec["why"]) for name, spec in specs.items()]
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def test_every_per_layer_metric_is_computed_and_classified():
    empty = {"spans": {}, "counters": {}}
    computed = layertrace.layer_metrics(
        layertrace.combine(empty, empty, 1), 0.0)
    assert sorted(m["name"] for m in MANIFEST["per_layer"]) \
        == sorted(computed)
    for name, spec in load_specs().items():
        listed = spec["moves"] + spec["idle"]
        assert len(listed) == len(set(listed))
        assert set(listed) <= set(computed) - {"trace.overhead_share"}


def test_every_workload_fixes_its_epoch_counts():
    for spec in load_specs().values():
        o = spec["overrides"]
        assert "encoder.epochs" in o
        assert o["train.patience"] >= o["train.max_epochs"]


# ------------------------------------------------------------- oracles

@pytest.mark.parametrize("rank,limit", [
    (0, None), (3, None), (59, None), (20, 25),
    pytest.param(40, 25, marks=pytest.mark.xfail(
        strict=True, reason="retrieve_precedents measures the rank gap "
        "from the pool cap, not from the query rank, when the cap is "
        "below the query rank; no workload queries that way")),
])
def test_brute_force_topk_agrees_with_retrieval(rank, limit):
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(60, 8))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    ids = [f"c{i:03d}" for i in range(60)]
    store = EmbeddingStore(ids, matrix)
    labels = rng.integers(0, 2, size=(60, 3))
    cfg = RetrievalConfig(k=5, alpha=2.0, val_size=10)
    found = caseline.retrieval.retrieve_precedents(
        rank, matrix[rank], store, labels, cfg, candidate_limit=limit)
    got = [(e.rank, e.score) for e in found]
    pool_end = rank if limit is None else min(rank, limit)
    want = brute_force_topk(matrix, ids, rank, matrix[rank], pool_end,
                            cfg.k, cfg.alpha, cfg.val_size)
    assert same_topk(got, want)
    assert len(want) < 2 or not same_topk(want[::-1], want)


def test_percentile_keeps_ten_samples_beyond_p99_of_a_thousand_calls():
    values = [float(i) for i in range(1, 1001)]
    p99 = worker.percentile(values, 99)
    assert p99 == 990.0
    assert sum(v > p99 for v in values) == 10


# ------------------------------------------------------------- tracing

def test_wrappers_patch_the_binding_each_caller_looks_up():
    originals = {
        "encoder.featurize": caseline.encoder.featurize,
        "model.retrieve_precedents": caseline.model.retrieve_precedents,
        "ablation.train_encoder": caseline.ablation.train_encoder,
        "cli.run_ablation": caseline.cli.run_ablation,
    }
    step, load = AdamW.__dict__["step"], EmbeddingStore.__dict__["load"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert caseline.encoder.featurize.__perfbench_key__ \
            == "features.featurize"
        assert caseline.model.retrieve_precedents.__perfbench_key__ \
            == "retrieval.retrieve_precedents"
        assert caseline.ablation.train_encoder.__perfbench_key__ \
            == "encoder.train_encoder"
        assert caseline.cli.run_ablation.__perfbench_key__ \
            == "ablation.run_ablation"
        assert caseline.model.retrieve_precedents \
            is caseline.retrieval.retrieve_precedents
        assert AdamW.__dict__["step"].__perfbench_key__ == "optim.AdamW.step"
        assert EmbeddingStore.__dict__["load"].__func__.__perfbench_key__ \
            == "store.EmbeddingStore.load"
        assert caseline.cli.cmd_train.__perfbench_key__ == "cli.train"
        assert {"optim.AdamW.step", "store.EmbeddingStore.load",
                "cli.train"} <= set(installed_wrappers())

        store = EmbeddingStore(["a", "b"], np.eye(2))
        caseline.model.retrieve_precedents(
            1, store.matrix[1], store, np.eye(2), RetrievalConfig(k=1))
        assert tracer.spans["- retrieval.retrieve_precedents"][0] == 1
        assert tracer.counters["retrieval.pool_rows"] == 1
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    for dotted, original in originals.items():
        module, name = dotted.split(".")
        assert getattr(getattr(caseline, module), name) is original
    assert AdamW.__dict__["step"] is step
    assert EmbeddingStore.__dict__["load"] is load


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(layertrace.Tracer, "install", refuse)
    result = worker.run_workload("retrieve-6k", 3, 0.0, False, tmp_path,
                                 spec=tiny("retrieve-6k"))
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "layers" not in result
    assert installed_wrappers() == []
    gated = {m["name"] for m in MANIFEST["end_to_end"]} - {"setup_s"}
    assert gated <= set(result["metrics"])


@pytest.mark.parametrize("name", list(load_specs()))
def test_wrappers_fire_on_the_workloads_that_exercise_them(name, tmp_path):
    spec = tiny(name)
    result = worker.run_workload(name, 3, 0.0, True, tmp_path, spec=spec)
    assert result["failed"] == 0, result["errors"]
    layers = result["layers"]
    assert [m for m in spec["moves"] if not layers[m] > 0] == []
    assert [m for m in spec["idle"] if layers[m] != 0] == []
    assert installed_wrappers() == []


# ------------------------------------------------------------- command

def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "encode-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
