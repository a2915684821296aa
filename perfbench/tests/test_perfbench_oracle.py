"""The spec oracle's rule forms against the reference-made golden triples."""

import json
import os
import re

import pytest

import gen

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "..", "tests", "golden", "thorough.json")
SIMPLE = re.compile(r'^(p|a|g|r|m|bp|path)\((\w+):("[^"]*"|\w+)\)$')


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        data = json.load(f)
    data["triples"] = {tuple(t) for t in data["triples"]}
    return data


def term(text):
    m = SIMPLE.match(text)
    return m and gen.Term(m.group(1), m.group(2), m.group(3).strip('"'))


def label(node):
    """The triple label of a simple term or of a node with variants."""
    t = term(node)
    if t:
        return t.curie
    if re.search(r"(var|pmod|frag|fus)\(", node):
        return node
    return None


def test_quoting_rule(golden):
    assert term('a(CHEBI:"oxygen atom")').curie == 'CHEBI:"oxygen atom"'
    assert gen.quote("Abeta_42") == '"Abeta_42"' and gen.quote("AKT1") == "AKT1"


def test_edge_rules(golden):
    checked = {}
    for e in golden["edges"]:
        s, o = e["src"], e["dst"]
        if e["subject"] or e["object"] or e["relation"] not in (
                "increases", "decreases", "isA", "association",
                "positiveCorrelation", "negativeCorrelation"):
            continue
        if e["relation"] in ("increases", "decreases", "isA"):
            # amount and isA forms the generator plants: simple terms, no
            # chemical-to-pathology edge
            if not (term(s) and term(o)) or (term(s).fn, term(o).fn) == ("a", "path"):
                continue
        if label(s) is None or label(o) is None:
            continue
        for triple in gen.edge_triples(label(s), e["relation"], label(o)):
            assert triple in golden["triples"], (e, triple)
        checked[e["relation"]] = checked.get(e["relation"], 0) + 1
    # p(HGNC:CAT) -| a(...), a(...) -> bp(...), isA between terms, association
    assert {"increases", "decreases", "isA", "association"} <= set(checked), checked


def test_pmod_gives_has_variant_from_parent(golden):
    pmod = re.compile(r"^p\((\w+):(\w+), pmod\(Ph, Ser, (\d+)\)\)$")
    found = 0
    for node in golden["nodes"]:
        m = pmod.match(node)
        if m:
            parent = gen.Term("p", m.group(1), m.group(2))
            assert gen.pmod_bel(parent, int(m.group(3))) == node
            assert set(gen.pmod_triples(parent, int(m.group(3)))) <= golden["triples"]
            found += 1
    assert found == 2


def test_complex_members_are_part_of_sorted_complex(golden):
    pair = re.compile(r"^complex\(((?:p|g)\([^()]*\)), ((?:p|g)\([^()]*\))\)$")
    found = 0
    for node in golden["nodes"]:
        m = pair.match(node)
        if m:
            members = [term(m.group(2)), term(m.group(1))]  # given out of order
            assert gen.complex_bel(members) == node
            triples = gen.complex_triples(members)
            assert len(triples) == 2 and set(triples) <= golden["triples"]
            found += 1
    assert found == 4


def test_amount_example_from_the_spec():
    a, b = gen.Term("p", "HGNC", "A"), gen.Term("p", "HGNC", "B")
    assert gen.spec_triples(("edge", a, "increases", b)) == [("HGNC:A", "increasesAmountOf", "HGNC:B")]
