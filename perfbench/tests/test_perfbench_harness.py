"""Tracing wrappers, process draining and the fail-fast path of run.py."""

import os
import subprocess
import sys
import time

import pyarrow as pa

import procs
from spans import Tracer

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def test_instrument_rebinds_every_importing_module():
    import pybel_ray
    import pybel_ray.parsing
    from pybel_ray.parsing import document
    from pybel_ray.stages import parse_stage

    original = document.compile_document
    tracer = Tracer()
    assert tracer.instrument("parsing", original) >= 4
    try:
        for mod in (document, pybel_ray.parsing, pybel_ray, parse_stage):
            assert mod.compile_document is not original
        stage = parse_stage.ParseDocuments()
        stage(pa.table({"url": ["u"], "text": ['SET DOCUMENT Name = "x"\n']}))
        assert tracer.calls["parsing"].calls == 1
    finally:
        tracer.restore()
    assert parse_stage.compile_document is original and pybel_ray.compile_document is original


def test_spans_nest():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_drain_session_stops_a_leftover_process():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                             start_new_session=True)
    try:
        assert [p.pid for p in procs.session_members(child.pid)] == [child.pid]
        assert procs.drain_session(child.pid, grace=0.2, hard=6.0) == []
        assert child.poll() is not None or not procs.session_members(child.pid)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=5)


def test_rss_sampler_sees_this_session():
    with procs.RssSampler(os.getsid(0), interval=0.05) as rss:
        time.sleep(0.2)
    assert rss.samples >= 2 and rss.peak_total > 0


def test_run_fails_fast_without_the_program(tmp_path):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "crawl_stream", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "pybel_ray" in proc.stderr
    assert time.monotonic() - start < 30
    assert os.listdir(str(tmp_path)) == []
