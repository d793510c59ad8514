"""Quick checks of the benchmark's own parts; tier-1 does not collect them.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import http.client
import json
from pathlib import Path

import pytest

import run
import workload
from rulerverse import cli

TINY = workload.PipelineSize(stories=2, paragraphs=5, systems=2, questions=2, reprompts=1)
TINY_AGREE = workload.AgreeSize(stories=2, paragraphs=5, systems=2, questions=2, human=3,
                                model=2, skip_share=0.1)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_generator_is_a_function_of_the_seed(tmp_path):
    workload.write_pipeline(tmp_path / "a", 5, TINY)
    workload.write_pipeline(tmp_path / "b", 5, TINY)
    workload.write_pipeline(tmp_path / "c", 6, TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]
    workload.write_agree(tmp_path / "d", 5, TINY_AGREE)
    workload.write_agree(tmp_path / "e", 5, TINY_AGREE)
    assert _files(tmp_path / "d") == _files(tmp_path / "e")


def _run(wl: run.Workload) -> Path:
    wl.setup()
    wl.open()
    out = wl.out_root(0)
    for argv in wl.argvs(out):
        assert cli.main(argv) == 0
    return out / run.RUN_ID


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def test_pipeline_checks_pass_and_catch_a_changed_grade(tmp_path):
    wl = run.PipelineCold(tmp_path, 3)
    wl.size = TINY
    run_dir = _run(wl)
    assert wl.check_counts(run._summaries(run_dir, wl.stages), 0) == []
    assert wl.check_outputs(run_dir) == []

    def flip(lines):
        record = json.loads(lines[1])
        record["score"] = 1 + record["score"] % 3
        return [lines[0], json.dumps(record)] + lines[2:]

    _rewrite(run_dir / "grades.jsonl", flip)
    assert wl.check_outputs(run_dir) == ["verse: grades differ from the plan"]


def test_planned_calls_count_the_reprompts(tmp_path):
    wl = run.PipelineCold(tmp_path, 4)
    wl.size = TINY
    run_dir = _run(wl)
    summary = json.loads((run_dir / "verse_classify_summary.json").read_text())
    assert summary["backend_calls"] == 10 * TINY.questions + TINY.reprompts
    wl.plan["reprompts"] = []
    assert wl.check_counts(run._summaries(run_dir, wl.stages), 0)


def test_agree_checks_pass_and_catch_a_changed_statistic(tmp_path):
    wl = run.AgreeLarge(tmp_path, 3)
    wl.size = TINY_AGREE
    run_dir = _run(wl)
    assert wl.check_counts(run._summaries(run_dir, wl.stages), 0) == []
    assert wl.check_outputs(run_dir) == []
    path = run_dir / "agreement_verse.json"
    payload = json.loads(path.read_text())
    payload["inter_annotator"]["tau"] += 1e-6
    path.write_text(json.dumps(payload))
    assert [e for e in wl.check_outputs(run_dir) if "verse human tau" in e]


def _post(port: int, text: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps({"messages": [{"role": "user", "content": text}]})
        conn.request("POST", "/v1/chat/completions", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture
def stub(tmp_path):
    plan = workload.write_pipeline(tmp_path, 8, TINY)
    proc, port = run._start_stub(tmp_path / "plan.json")
    yield plan, port
    run._stop(proc)
    assert proc.poll() is not None


def test_stub_answers_from_the_plan_and_counts(stub):
    plan, port = stub
    status, body = _post(port, "criterion: Lexical Choice. Rate it ... [[sys2]] text")
    assert status == 200
    assert body["choices"][0]["message"]["content"] == f"Score: {plan['ruler']['sys2']['lexical']}"
    status, body = _post(
        port, "Judge whether the candidate translation satisfies [[slot02]] ... [[sys1]]")
    assert body["choices"][0]["message"]["content"] == f"Score: {plan['grades']['sys1']['2']}"
    status, _ = _post(port, "a prompt the plan does not know")
    assert status == 400
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/stats")
    assert json.loads(conn.getresponse().read()) == {"requests": 3, "connections": 3}
    conn.close()


def test_a_traced_round_emits_the_per_layer_metrics_of_benchmark_json(tmp_path):
    wl = run.PipelineCold(tmp_path, 2)
    wl.size = TINY
    wl.setup()
    wl.open()
    tracer = run.Tracer()
    tracer.install()
    try:
        _, this, _ = run._round(wl, 0, tracer)
    finally:
        tracer.uninstall()
    assert cli.COMMANDS["ruler"] is cli.cmd_ruler
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    emitted = {(name, run.layer_unit(name)) for name in this["layers"]} | {("trace.overhead_s", "s")}
    assert emitted == declared
    assert this["layers"]["judge.misses"] == this["layers"]["judge.calls"] > 0
    assert this["layers"]["verse.reprompts"] == TINY.reprompts
