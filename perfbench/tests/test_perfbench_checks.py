"""Each output check passes on a correct output and fails on a corrupted one."""

import hashlib

import pytest

import checks
import gen

TRIPLES = sorted({
    ("HGNC:PBG001", "increasesAmountOf", "HGNC:PBG002"),
    ("HGNC:PBG001", "isA", 'HGNC:"KRT-5"'),
    ('CHEBI:"compound 3 acid"', "increasesAmountOf", 'GO:"signalling pathway 7"'),
    ("HGNC:PBG004", "partOf", "complex(p(HGNC:PBG004), p(HGNC:PBG009))"),
})
PLANTED = set(TRIPLES[:2])
BELS = ["p(HGNC:PBG001)", "p(HGNC:PBG002)", 'p(HGNC:"KRT-5")']


def md5(text):
    return hashlib.md5(text.encode("utf8")).hexdigest()  # noqa: S324


def nodes_edges(node_bel=BELS, node_md5=None, edge_md5=("e1", "e2")):
    node_md5 = list(node_md5) if node_md5 is not None else [md5(b) for b in node_bel]
    return dict(node_md5=node_md5, node_bel=list(node_bel), edge_md5=list(edge_md5),
                src_md5=[md5(BELS[0]), md5(BELS[0])], dst_md5=[md5(BELS[1]), md5(BELS[2])])


def test_triples_pass_when_correct():
    assert checks.check_triples(TRIPLES, set(TRIPLES), PLANTED) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: t[1:],  # a dropped triple
    lambda t: t[:2] + t[1:],  # a duplicated row
    lambda t: [t[1], t[0]] + t[2:],  # two swapped rows
    lambda t: t + [("HGNC:NOTINVOCAB", "isA", "HGNC:PBG001")],  # an invented entity
])
def test_triples_fail_when_corrupted(corrupt):
    assert checks.check_triples(corrupt(list(TRIPLES)), set(TRIPLES), PLANTED)


def test_missing_planted_triple_fails():
    planted = PLANTED | {("HGNC:PBG003", "isA", "HGNC:PBG004")}
    failures = checks.check_triples(TRIPLES, set(TRIPLES), planted)
    assert any("planted" in f for f in failures)


def test_foreign_entity_fails_even_if_expected():
    bad = ("HGNC:PBG001", "isA", "NOPE:thing")
    failures = checks.check_triples(sorted(TRIPLES + [bad]), set(TRIPLES) | {bad}, PLANTED)
    assert any("outside the vocabularies" in f for f in failures)


def test_nodes_edges_pass_when_correct():
    assert checks.check_nodes_edges(**nodes_edges()) == []


def test_wrong_node_md5_fails():
    bad = [md5(b) for b in BELS]
    bad[1] = md5("p(HGNC:PBG003)")
    assert checks.check_nodes_edges(**nodes_edges(node_md5=bad))


def test_duplicated_node_or_edge_row_fails():
    assert checks.check_nodes_edges(**nodes_edges(node_bel=BELS + BELS[:1]))
    assert checks.check_nodes_edges(**nodes_edges(edge_md5=("e1", "e1")))


def test_dangling_edge_endpoint_fails():
    assert checks.check_nodes_edges(**nodes_edges(node_bel=BELS[:2]))


def test_docs():
    urls = ["u1", "u2", "u3"]
    assert checks.check_docs(urls, [False, True, False], urls, 1) == ([], 0)
    failures, missing = checks.check_docs(urls[:2], [False, True], urls, 1)
    assert missing == 1  # a page without a doc row is a failed page
    assert any("no doc row" in f for f in failures)  # and fails the check
    assert checks.check_docs(urls + ["u1"], [False, True, False, False], urls, 1)[0]
    assert checks.check_docs(urls, [False, False, False], urls, 1)[0]  # gate count


def test_resume():
    shards = {0: {"shard_id": 0, "rows": 5}}
    assert checks.check_resume(shards, dict(shards), TRIPLES, list(TRIPLES)) == []
    assert checks.check_resume(shards, {**shards, 1: {"shard_id": 1}}, TRIPLES, TRIPLES)
    assert checks.check_resume(shards, shards, TRIPLES, TRIPLES[1:])


def test_vocabulary_check_reads_quoted_names():
    assert gen.foreign_entities('complex(p(HGNC:"KRT-5"), p(HGNC:PBG009))') == []
    assert gen.foreign_entities('p(HGNC:"KRT-7")') == ["HGNC:KRT-7"]
