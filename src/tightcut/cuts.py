"""Tight cuts and their structural classification.

A cut is tight when every perfect matching uses exactly one of its
edges. The interesting tight cuts are the witnessed ones: those whose
shore is an odd component of some barrier complement (a barrier cut),
or which arise from a two-separation. classify_cut collects all such
witnesses of a cut its caller already knows to be tight; it tests no
tightness itself. Its barrier search is exponential only in the size
of one canonical part, and its two-separation witnesses come from one
cut edge (twoseps_generating).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Cut, EnumerationLimitError, Graph, GraphError
from .matching import find_perfect_matching, is_matchable, is_matching_covered
from .structure import (
    Barrier,
    TwoSeparation,
    enumerate_barriers,
    twoseps_generating,
)

# vertices enumerate_tight_cuts takes, at most: it tries 2^(n-2) shores
TIGHT_CUT_LIMIT = 16


def is_tight(g: Graph, c: Cut) -> bool:
    """True iff every perfect matching meets the cut exactly once.

    Every perfect matching meets the cut with the parity of the shore,
    so an even shore is never tight. For an odd shore the cut is not
    tight iff two vertex-disjoint cut edges e1, e2 leave
    g - V(e1) - V(e2) matchable: the shore minus the two ends inside it
    is odd, so a perfect matching of the rest uses at least one more cut
    edge; conversely, a perfect matching meeting the cut three or more
    times contains such a pair. That is O(|C|^2) memoized matchability
    queries, one per pair of distinct endpoint pairs, after the graph's
    cached perfect matching has rejected any cut it meets more than once.
    """
    if c.graph is not g:
        raise GraphError("cut belongs to a different graph")
    pm = find_perfect_matching(g)
    if pm is None:
        raise GraphError("tightness is about perfect matchings; none exist")
    if len(c.shore) % 2 == 0 or len(pm.edges & c.edge_ids) > 1:
        return False
    ends = sorted({(u, v) if u in c.shore else (v, u)
                   for u, v in map(g.edge_ends, c.edge_ids)})
    return not any(
        x1 != x2 and y1 != y2 and is_matchable(g, frozenset((x1, y1, x2, y2)))
        for (x1, y1), (x2, y2) in combinations(ends, 2))


def enumerate_tight_cuts(g: Graph, nontrivial_only=False) -> list[Cut]:
    """Every tight cut once, by shore size then lex order.

    Only shores containing the smallest vertex are generated, which is
    exactly the canonical form, so no deduplication is needed. Graphs
    on more than TIGHT_CUT_LIMIT vertices raise EnumerationLimitError.
    """
    if g.n > TIGHT_CUT_LIMIT:
        raise EnumerationLimitError(
            f"tight-cut enumeration on {g.n} vertices exceeds the guard "
            f"of {TIGHT_CUT_LIMIT}")
    if not is_matchable(g):
        raise GraphError("tight cuts are about perfect matchings; none exist")
    if g.n < 2:
        return []
    anchor, rest = g.vertices[0], g.vertices[1:]
    out = []
    low = 3 if nontrivial_only else 1
    for size in range(low, g.n - low + 1, 2):
        for combo in combinations(rest, size - 1):
            cut = g.boundary(frozenset((anchor,) + combo))
            if is_tight(g, cut):
                out.append(cut)
    return out


@dataclass(frozen=True)
class CutClassification:
    """Every witness classify_cut found for one cut.

    barrier_witnesses pairs each barrier with the index (into
    cut.shores()) of the shore that appears among the odd components
    of g minus the barrier. twosep_witnesses lists the two-separations
    generating the cut.
    """

    cut: Cut
    barrier_witnesses: tuple[tuple[Barrier, int], ...]
    twosep_witnesses: tuple[TwoSeparation, ...]

    @property
    def witnessed(self) -> bool:
        return bool(self.barrier_witnesses or self.twosep_witnesses)


def classify_cut(g: Graph, c: Cut) -> CutClassification:
    """Every barrier and two-separation witness of the tight cut c.

    The caller establishes that c is tight; this tests no tightness. A
    cut that barriers or two-separations generate is tight (Fact 1 in
    verify.py), so a cut that is not gets empty lists, but its barrier
    search may first exceed the enumeration guard.

    A tight shore is odd, so a barrier B inside the opposite shore
    witnesses it exactly when the shore is one of the odd components of
    g - B. Then every neighbour of the shore outside it lies in B, so
    the search runs only over barriers of the opposite shore containing
    these attachments: candidates beyond them must be dependent with
    each of them (see enumerate_barriers), and if the attachments are
    not pairwise dependent the shore has no barrier witness. The
    enumeration guard applies to the free candidates: it counts the
    largest set of them around one vertex, as in enumerate_barriers.
    The two-separation witnesses are the O(n) candidates
    twoseps_generating derives from one cut edge.
    """
    if c.graph is not g:
        raise GraphError("cut belongs to a different graph")
    if not is_matching_covered(g):
        raise GraphError("classification needs a matching covered graph")
    shores = c.shores()
    found: list[tuple[Barrier, int]] = []
    for i, keep in enumerate(shores):
        attachments = frozenset(
            w for v in keep for w in g.neighbors(v)) - keep
        for b in enumerate_barriers(g, within=shores[1 - i],
                                    containing=attachments):
            if keep in b.odd_parts:
                found.append((b, i))
    return CutClassification(
        c, tuple(sorted(found, key=lambda t: (sorted(t[0].members), t[1]))),
        tuple(twoseps_generating(g, c)))
