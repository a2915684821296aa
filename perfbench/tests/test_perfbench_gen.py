"""The generator: byte-deterministic, the mix it promises, and a sound oracle."""

import dataclasses
import filecmp
import os
import re

import pytest

import gen


@pytest.fixture
def tiny(monkeypatch):
    mix = dataclasses.replace(gen.WORKLOADS["crawl_stream"], n_pages=60, n_files=3)
    monkeypatch.setitem(gen.WORKLOADS, "tiny", mix)
    return "tiny"


def test_same_seed_gives_identical_bytes(tmp_path, tiny):
    a = gen.write_corpus(gen.build_corpus(tiny, 5), str(tmp_path / "a"))
    b = gen.write_corpus(gen.build_corpus(tiny, 5), str(tmp_path / "b"))
    c = gen.write_corpus(gen.build_corpus(tiny, 6), str(tmp_path / "c"))
    assert len(a) == 3
    assert all(filecmp.cmp(x, y, shallow=False) for x, y in zip(a, b))
    assert not all(filecmp.cmp(x, y, shallow=False) for x, y in zip(a, c))


def test_crawl_mix():
    corpus = gen.build_corpus("crawl_stream", 1)
    rows = [r for t in corpus.files for r in t.to_pylist()]
    assert len({r["url"] for r in rows}) == len(rows) == gen.WORKLOADS["crawl_stream"].n_pages
    assert 0.06 < corpus.non_bel / len(rows) < 0.14
    assert 0.15 < sum(r["text"] is None for r in rows) / len(rows) < 0.25
    bel = [t for t in corpus.texts.values() if t.startswith("SET DOCUMENT")]
    statements = [sum(1 for line in t.splitlines() if re.match(r"[a-z]+\(", line)) for t in bel]
    assert sum(statements) / len(statements) == pytest.approx(20, abs=0.5)


def test_gate_drops_exactly_the_non_bel_pages():
    from pybel_ray.stages.gate import looks_like_bel

    for workload in ("crawl_stream", "sparse_web"):
        corpus = gen.build_corpus(workload, 2)
        gated = sum(not looks_like_bel(t) for t in corpus.texts.values())
        assert gated == corpus.non_bel


def test_sparse_web_pages_are_plain_markup():
    corpus = gen.build_corpus("sparse_web", 3)
    rows = [r for t in corpus.files for r in t.to_pylist()]
    assert all(r["text"] is None for r in rows)
    plain = [r["html"] for r in rows if b"<pre>" not in r["html"]]
    assert len(plain) == corpus.non_bel and corpus.non_bel / len(rows) >= 0.9
    assert 1500 < sum(map(len, plain)) / len(plain) < 8000


def test_planted_triples_come_out_of_a_serial_compile(tiny):
    """The spec oracle agrees with the program's own serial compile."""
    from pybel_ray.resources import ResourceRegistry

    import worker

    corpus = gen.build_corpus(tiny, 9)
    reference = worker.reference_triples(corpus.texts.values(), worker.build_registry(ResourceRegistry))
    assert corpus.planted and corpus.planted <= reference
    assert not [t for t in reference if gen.foreign_entities(t[0]) + gen.foreign_entities(t[2])]


def test_worker_modules_stay_out_of_the_program():
    for name in ("gen.py", "checks.py"):
        with open(os.path.join(os.path.dirname(gen.__file__), name)) as f:
            assert "pybel_ray" not in re.sub(r'""".*?"""', "", f.read(), flags=re.S)
