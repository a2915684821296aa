"""Output checks, computed apart from the program.

Each check takes plain values (lists, sets, Arrow tables) and returns a list
of failure messages; an empty list means the output passed.  None of them
calls into ``pybel_ray``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import gen

Triple = Tuple[str, str, str]


def check_triples(triples: Sequence[Triple], expected: Set[Triple], planted: Set[Triple]) -> List[str]:
    """The exported triple table against the serial reference and the spec oracle."""
    failures = []
    for k in range(1, len(triples)):
        if not triples[k - 1] < triples[k]:
            failures.append("triples not strictly ascending at row {}: {!r} then {!r}".format(
                k, triples[k - 1], triples[k]))
            break
    got = set(triples)
    missing, extra = expected - got, got - expected
    if missing or extra:
        failures.append("triple set differs from the serial reference: {} missing (e.g. {!r}), "
                        "{} extra (e.g. {!r})".format(
                            len(missing), next(iter(sorted(missing)), None),
                            len(extra), next(iter(sorted(extra)), None)))
    unplanted = planted - got
    if unplanted:
        failures.append("{} planted triples absent, e.g. {!r}".format(
            len(unplanted), sorted(unplanted)[0]))
    foreign = sorted({e for h, _, t in got for e in gen.foreign_entities(h) + gen.foreign_entities(t)})
    if foreign:
        failures.append("{} entities outside the vocabularies, e.g. {}".format(len(foreign), foreign[0]))
    return failures


def check_nodes_edges(node_md5: Sequence[str], node_bel: Sequence[str],
                      edge_md5: Sequence[str], src_md5: Sequence[str],
                      dst_md5: Sequence[str]) -> List[str]:
    """Node hashes recomputed from their BEL; edge endpoints resolve to nodes."""
    failures = []
    wrong = [
        (m, b) for m, b in zip(node_md5, node_bel)
        if hashlib.md5(b.encode("utf8")).hexdigest() != m  # noqa: S324
    ]
    if wrong:
        failures.append("{} node md5s differ from md5(bel), e.g. {!r}".format(len(wrong), wrong[0]))
    nodes = set(node_md5)
    if len(nodes) != len(node_md5):
        failures.append("{} duplicate node rows".format(len(node_md5) - len(nodes)))
    if len(set(edge_md5)) != len(edge_md5):
        failures.append("{} duplicate edge rows".format(len(edge_md5) - len(set(edge_md5))))
    dangling = sum(1 for s in src_md5 if s not in nodes) + sum(1 for d in dst_md5 if d not in nodes)
    if dangling:
        failures.append("{} edge endpoints missing from the node table".format(dangling))
    return failures


def check_docs(doc_urls: Iterable[str], doc_gated: Iterable[bool],
               page_urls: Sequence[str], non_bel: int) -> Tuple[List[str], int]:
    """One doc row per input page, and the gate drops exactly the non-BEL pages.

    Returns the failures and the number of pages without a doc row: each is
    a failed operation, and any of them also fails the check.
    """
    failures = []
    counts: Dict[str, int] = {}
    gated = 0
    for url, g in zip(doc_urls, doc_gated):
        counts[url] = counts.get(url, 0) + 1
        gated += bool(g)
    pages = set(page_urls)
    missing = sum(1 for u in pages if u not in counts)
    repeated = sum(1 for u, n in counts.items() if n > 1)
    unknown = sum(1 for u in counts if u not in pages)
    if missing:
        failures.append("{} pages have no doc row".format(missing))
    if repeated:
        failures.append("{} pages have more than one doc row".format(repeated))
    if unknown:
        failures.append("{} doc rows name no input page".format(unknown))
    if gated != non_bel:
        failures.append("{} pages gated, the generator made {} non-BEL pages".format(gated, non_bel))
    return failures, missing


def check_resume(shards_before: Dict[int, dict], shards_after: Dict[int, dict],
                 triples_before: Sequence[Triple], triples_after: Sequence[Triple]) -> List[str]:
    """A resume pass over a complete checkpoint commits nothing and changes nothing."""
    failures = []
    if shards_after != shards_before:
        failures.append("resume pass changed the manifest: {} shards before, {} after".format(
            len(shards_before), len(shards_after)))
    if list(triples_after) != list(triples_before):
        failures.append("resume pass changed the triple table ({} rows before, {} after)".format(
            len(triples_before), len(triples_after)))
    return failures
