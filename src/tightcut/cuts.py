"""Tight cuts and their structural classification.

A cut is tight when every perfect matching uses exactly one of its
edges. The interesting tight cuts are the witnessed ones: those whose
shore is an odd component of some barrier complement (a barrier cut),
or which arise from a two-separation. classify_cut lists, for a tight
cut, the largest barrier witness per shore, and every two-separation;
it tests no tightness itself, and lists nothing for a cut that is not
tight. Each barrier witness is one dependence class read from the
graph's cached dependence rows, with no subset search, and the
two-separation witnesses come from one cut edge (twoseps_generating).

Tightness rests on one lemma: the cut of an odd shore is tight iff no
two of its edges lie together in some perfect matching (are
co-matchable). Every perfect matching meets the cut an odd number of
times, so it meets it more than once iff it holds two cut edges. Both
tightness tests decide that with the same Edmonds searches, read
through Gallai-Edmonds (matching._comatchable_among): per cut edge uv,
a perfect matching of g - u - v, then row searches in g - u - v.
is_tight runs them for one cut's edges, at most |C|^2 / 2 searches:
tightcut check, the witness searches' entry test and
decompose_tight_cut's failure path, on graphs up to hundreds of
vertices. enumerate_tight_cuts walks only the shores that the cached
perfect matching crosses once, n * 2^(n/2 - 2) of them on n vertices.
A few perfect matchings (matching._matching_partners), on a matching
covered graph with an odd cycle those of the alternating cycles its
coverage test closed, with no search of their own, refute most of them
with a few bit operations each; only the shores left, the tight ones
among them, get the searches, through a memo shared by the cuts of one
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Cut, EnumerationLimitError, Graph, GraphError
from .matching import (
    TIGHT_CUT_LIMIT,
    Matching,
    _comatchable_among,
    _dependence_row,
    _matching_partners,
    find_perfect_matching,
    is_matching_covered,
)
from .structure import Barrier, TwoSeparation, is_barrier, twoseps_generating


def meets_once(g: Graph, c: Cut) -> bool:
    """The cheap necessary conditions of tightness: the shore is odd,
    and the graph's cached perfect matching meets the cut exactly once.

    False proves c not tight; True proves nothing more.
    """
    if c.graph is not g:
        raise GraphError("cut belongs to a different graph")
    pm = find_perfect_matching(g)
    if pm is None:
        raise GraphError("tightness is about perfect matchings; none exist")
    return len(c.shore) % 2 == 1 and len(pm.edges & c.edge_ids) == 1


def is_tight(g: Graph, c: Cut) -> bool:
    """True iff every perfect matching meets the cut exactly once.

    Every perfect matching meets the cut with the parity of the shore,
    so an even shore is never tight. For an odd shore the cut is not
    tight iff two vertex-disjoint cut edges e1, e2 leave
    g - V(e1) - V(e2) matchable: the shore minus the two ends inside it
    is odd, so a perfect matching of the rest uses at least one more cut
    edge; conversely, a perfect matching meeting the cut three or more
    times contains such a pair. After the graph's cached perfect
    matching has rejected any cut it meets more than once (meets_once),
    _comatchable_among asks that of the cut's edges: at most |C|^2 / 2
    Edmonds searches, and no blossom run. It passes no memo, so each
    row search stops once its one target is outer: a single cut shares
    no rows with another.
    """
    return meets_once(g, c) and not _comatchable_among(g, c.edge_ids)


def _shores_crossed_once(g: Graph, pm: Matching
                         ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each shore through the smallest vertex that the perfect matching
    pm crosses once, as (its vertices, unsorted; its cut as an edge-id
    bitmask), n * 2^(n/2 - 2) of them on n vertices.

    Such a shore is pm's edge e that crosses it, the end of e inside it,
    and the set S of pm's other edges inside it, taken whole; the
    smallest vertex lies inside, so its pm-edge is e or in S. A vertex
    has an incidence bitmask over edge ids, and a shore's cut is the XOR
    of its vertices' masks, so the cut of every choice of S is one XOR
    from a list built by doubling: per pm-edge, the XOR of its two ends'
    masks, under which the edge's own ids cancel.
    """
    incidence = dict.fromkeys(g.vertices, 0)
    for eid, (u, v) in g.edge_items():
        incidence[u] ^= 1 << eid
        incidence[v] ^= 1 << eid
    anchor = g.vertices[0]
    # edge ends are sorted, so the first pm-edge is the anchor's
    (_, mate), *others = sorted(map(g.edge_ends, pm.edges))
    # index s chooses others[i] iff bit i of s is set
    masks, chosen = [0], [()]
    for u, v in others:
        both = incidence[u] ^ incidence[v]
        masks += [mask ^ both for mask in masks]
        chosen += [members + (u, v) for members in chosen]
    # (fixed vertices, their cut, the bit of the crossing edge)
    walks = [((anchor,), incidence[anchor], 0)]
    held = incidence[anchor] ^ incidence[mate]
    for i, pair in enumerate(others):
        for x in pair:
            walks.append(((anchor, mate, x), held ^ incidence[x], 1 << i))
    for fixed, base, crossing in walks:
        for s, mask in enumerate(masks):
            if not s & crossing:
                yield fixed + chosen[s], base ^ mask


def _has_comatchable_pair(cut: int, partners: dict[int, int]) -> bool:
    """True iff some edge of the cut bitmask has a listed partner in
    it; partners maps each edge's bit to a mask of edges co-matchable
    with it (_matching_partners)."""
    left = cut
    while left:
        edge = left & -left
        if partners[edge] & cut:
            return True
        left ^= edge
    return False


def enumerate_tight_cuts(g: Graph, nontrivial_only=False) -> list[Cut]:
    """Every tight cut once, by shore size then lex order.

    Every shore is generated through the smallest vertex, which is
    exactly the canonical form, so no deduplication is needed. Only the
    shores the cached perfect matching M crosses once are walked
    (_shores_crossed_once): n * 2^(n/2 - 2) of them, against the
    2^(n - 2) odd shores through the smallest vertex, 192 against 1,024
    at n = 12. A tight cut is one of them, since M is a perfect matching.

    The walk is a bijection onto those shores. Let X be a shore M
    crosses only at e. Every other M-edge lies inside X or outside it,
    and M covers every vertex, so X is one end of e plus the M-edges
    inside it, and it determines e, that end and those edges. X holds
    the smallest vertex, so that vertex is the end of e inside X, or
    its M-edge is one of those inside. Conversely each such choice is a
    shore M crosses only at e, odd and proper: it misses e's other end.

    A trivial cut is kept without a test: every perfect matching has
    exactly one edge at each vertex. Any other shore is kept when no
    two edges of its cut are co-matchable (the lemma in the module
    docstring), which two steps decide.

    The refutation filter. _matching_partners lists, per edge, the
    edges that lie with it in one of a few perfect matchings: the
    cached one, those of the alternating cycles that g's coverage test
    closed, which the filter asks for first and rebuilds with no
    search, and, one search each, one through each edge class that none
    of these contains. On a matching covered g with an odd cycle the
    cycles hold every class, so the filter runs no search; on a
    bipartite g, or one that is not matching covered, the classes they
    miss get theirs. Two edges of one perfect matching are
    co-matchable, so a listed partner inside the cut proves the shore
    not tight, with a few bit operations (_has_comatchable_pair). The
    filter is sound, never refuting a tight shore, and not complete: a
    pair that no found matching holds is not listed.

    The exact test. A shore the filter leaves gets _comatchable_among
    on its cut's edges, with a memo that lives for this call only. The
    filter starts it with, for every edge class uv, a found perfect
    matching through uv, cut down to one of g - u - v when first read,
    or its own search's matching of g - u - v. Each row search of the
    test is kept, run to the end, so cuts that share edges pay for a
    row once. Both steps run only from n = 6, the
    first order with a nontrivial shore.

    Only kept shores get a Cut, built from the shore's own bitmask: an
    XOR of incidence masks holds exactly the edges with one end in the
    shore, so its set bits are the boundary, and the shore holds the
    smallest vertex, so it is the canonical one. The set bits are
    decoded straight from the mask (_edge_ids), with no scan of the
    graph's edge ids, and no boundary is read again from the graph.
    Graphs on more than TIGHT_CUT_LIMIT vertices raise
    EnumerationLimitError.
    """
    n = g.n
    if n > TIGHT_CUT_LIMIT:
        raise EnumerationLimitError(
            f"tight-cut enumeration on {n} vertices exceeds the guard "
            f"of {TIGHT_CUT_LIMIT}")
    pm = find_perfect_matching(g)
    if pm is None:
        raise GraphError("tight cuts are about perfect matchings; none exist")
    if n < 2:
        return []
    partners, memo = _matching_partners(g) if n >= 6 else ({}, {})
    kept = []
    for members, cut in _shores_crossed_once(g, pm):
        if len(members) in (1, n - 1):
            if nontrivial_only:
                continue
        elif _has_comatchable_pair(cut, partners) or _comatchable_among(
                g, _edge_ids(cut), memo):
            continue
        kept.append((len(members), sorted(members), cut))
    kept.sort()  # shores differ, so no two cut masks are compared
    return [Cut(frozenset(members), frozenset(_edge_ids(cut)), g)
            for _, members, cut in kept]


def _edge_ids(mask: int) -> list[int]:
    """The edge ids whose bits are set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class CutClassification:
    """The largest barrier witness per shore, and every two-separation,
    that classify_cut found for one cut.

    barrier_witnesses pairs each barrier with the index (into
    cut.shores()) of the shore that appears among the odd components
    of g minus the barrier; at most one barrier per shore. Every other
    barrier witness of that shore lies inside the listed one.
    twosep_witnesses lists the two-separations generating the cut.
    """

    cut: Cut
    barrier_witnesses: tuple[tuple[Barrier, int], ...]
    twosep_witnesses: tuple[TwoSeparation, ...]

    @property
    def witnessed(self) -> bool:
        return bool(self.barrier_witnesses or self.twosep_witnesses)


def classify_cut(g: Graph, c: Cut) -> CutClassification:
    """The largest barrier witness per shore, and every two-separation
    witness, of the tight cut c.

    This tests no tightness, and needs none to be sound: every listed
    witness is checked to generate c, and a cut that barriers or
    two-separations generate is tight (Fact 1 in verify.py), so a cut
    that is not gets empty lists. decompose_tight_cut and tightcut check
    rely on this; they classify before anything has proved c tight.
    That the lists are complete needs c tight. The two-separation
    witnesses are the O(n) candidates twoseps_generating derives from
    one cut edge.

    Barrier witnesses of a shore X, with opposite shore O: the barriers
    B of g that have X among the odd components of g - B; such a B
    avoids X, so B lies in O. Call u and v dependent in a graph when
    deleting both leaves it without a perfect matching. Let A be the
    neighbours of X outside it (nonempty: g is connected), fix a in A,
    and let F be a together with every v in O dependent with a in g.
    Rule: X has a barrier witness iff A lies in F, and then F is one
    that contains every other. g has a perfect matching, so F is O less
    the dependence row of a (the row omits a itself): one row per
    shore, cached on g (is_matching_covered caches none), and F is
    checked by is_barrier with X among its odd parts.

    Proof. Any two members u, v of a barrier B are dependent, in every
    graph: deleting the rest of B from g - u - v leaves |B| odd
    components against |B| - 2 deleted vertices (Tutte). Barriers of a
    matching covered graph leave only odd components (the lemma
    test_matching_covered_barriers_leave_only_odd_components checks),
    and are independent: a perfect matching uses one edge from each
    member into its own odd component, so an edge inside the barrier is
    in none.
    (a) Let B be a witness. X is a component of g - B, so every
    neighbour of X outside it lies in B: A lies in B. Every member of B
    is then dependent with a, and B lies in O, so B lies in F.
    (b) Let h = g/(X -> x), matching covered by Fact 3 of decompose.py.
    If h - u - v has a perfect matching M' for u, v in O, its edge e at
    x is an edge of c; e lies in a perfect matching N of g, which meets
    c only in e, so M' plus N's edges inside X is a perfect matching of
    g - u - v. Hence v dependent with a in g is dependent with a in h,
    and F lies in P, the dependence class of a in h. P is a barrier of
    h, a part of its Kotzig-Lovasz canonical partition (Lovasz-Plummer,
    Matching Theory, 1986, ch. 5;
    test_dependence_is_the_canonical_partition checks it), so P is
    independent, and x, adjacent to a, is not in P: P lies in O. X is
    connected: a perfect matching of g meets c once, so it matches every
    even component of g[X] inside itself, and the edges from such a
    component into O, which exist as g is connected, would be in none;
    so g[X] is one odd component. Hence the components of g - P are
    those of h - P with x expanded to X, and every one stays odd: P is
    a barrier of g, its members are pairwise dependent, and P lies in
    F. So F = P.
    If A lies in F, then every neighbour of x in h is in P, so {x} is a
    component of h - P and X one of g - F, odd: F is a witness, and it
    contains every witness by (a). If A does not lie in F, no witness
    exists by (a). The is_barrier check can fail only off the
    precondition, on a cut that is not tight.
    """
    if c.graph is not g:
        raise GraphError("cut belongs to a different graph")
    if not is_matching_covered(g):
        raise GraphError("classification needs a matching covered graph")
    shores = c.shores()
    ends = [g.edge_ends(eid) for eid in c.edge_ids]
    found: list[tuple[Barrier, int]] = []
    for i, keep in enumerate(shores):
        # the neighbours of keep outside it: each cut edge's far end
        attachments = frozenset(v if u in keep else u for u, v in ends)
        a = min(attachments)
        members = shores[1 - i] - _dependence_row(g, a)
        if attachments <= members:
            b = is_barrier(g, members)
            if b is not None and keep in b.odd_parts:
                found.append((b, i))
    return CutClassification(
        c, tuple(sorted(found, key=lambda t: (sorted(t[0].members), t[1]))),
        tuple(twoseps_generating(g, c)))
