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
vertices. enumerate_tight_cuts walks only the shores that each of a
few perfect matchings crosses once (_shores_crossed_once): the cached
one, and on a matching covered graph with an odd cycle those of the
alternating cycles its coverage test closed, found with no search
(matching._matching_partners). On 120 random graphs of 12 and 14
vertices it walks 1,642 shores, where the cached one alone crosses
33,280 once. Only the nontrivial ones get the searches, through a memo
shared by the cuts of one enumeration.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Cut, EnumerationLimitError, Graph, GraphError, _Value
from .matching import (
    TIGHT_CUT_LIMIT,
    _comatchable_among,
    _dependence_row,
    _matching_partners,
    find_perfect_matching,
    is_matching_covered,
)
from .structure import Barrier, is_barrier, twoseps_generating


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
    Edmonds searches, and no blossom run. It passes a fresh memo: a
    single cut shares no rows with another.
    """
    return meets_once(g, c) and not _comatchable_among(g, c.edge_ids, {})


def _shores_crossed_once(g: Graph, matchings: list[list[int]]
                         ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each shore through the smallest vertex that every perfect
    matching in matchings crosses once, once, as (its vertices,
    unsorted; its cut as an edge-id bitmask). The matchings are
    position lists, as _search_mates gives them, the first g's cached
    one, M; with M alone, n * 2^(n/2 - 2) shores.

    A shore is M's edge e that crosses it, the end of e inside it, and
    a union of blocks of M's other edges, the anchor's block among them
    unless e is the anchor's edge; each cycle through e is checked by
    one bit count (the bijection and the block rule of
    enumerate_tight_cuts). Per e, the blocks start as single M-edges,
    and each cycle of _alternating_cycles that avoids e joins those it
    meets. A shore's cut, the XOR of its vertices' incidence masks, is
    one lookup in a list built by doubling over M's edges, by the union
    of its blocks.
    """
    index, _ = g.positions()
    verts = g.vertices
    incidence = [0] * g.n
    for eid, (u, v) in g.edge_items():
        incidence[index[u]] ^= 1 << eid
        incidence[index[v]] ^= 1 << eid
    # M's edges by lower end, so the first is the anchor's, at position 0
    edges = [(i, j) for i, j in enumerate(matchings[0]) if i < j]
    cycles = _alternating_cycles(g, matchings, edges)
    # index s takes edges[k] iff bit k of s is set: their ends, and the
    # XOR of those ends' incidence masks
    masks, chosen = [0], [()]
    for i, j in edges:
        both = incidence[i] ^ incidence[j]
        masks += [mask ^ both for mask in masks]
        chosen += [members + (verts[i], verts[j]) for members in chosen]
    for e in range(len(edges)):
        blocks = [1 << k for k in range(len(edges)) if k != e]
        checks = [crossing for held, crossing in cycles if held >> e & 1]
        for held, _ in cycles:
            if len(blocks) == 1:
                break
            if held >> e & 1:
                continue
            joined, apart = held, []
            for block in blocks:
                if block & held:
                    joined |= block
                else:
                    apart.append(block)
            blocks = apart + [joined]
        if e:
            anchored = next(block for block in blocks if block & 1)
            blocks.remove(anchored)
            ends = edges[e]
        else:
            anchored, ends = 0, (0,)
        unions = [anchored]
        for block in blocks:
            unions += [s | block for s in unions]
        for x in ends:
            base, fixed = incidence[x], (verts[x],)
            for s in unions:
                cut = base ^ masks[s]
                for crossing in checks:
                    once = cut & crossing
                    if once & (once - 1):
                        break
                else:
                    yield fixed + chosen[s], cut


def _alternating_cycles(g: Graph, matchings: list[list[int]],
                        edges: list[tuple[int, int]]
                        ) -> set[tuple[int, int]]:
    """Every cycle of M xor N, for M the first of matchings and N each
    later one, once: (its M-edges as a bitmask, bit k for edges[k], the
    M-edges by lower end; its N-edges as an edge-id bitmask of the
    lowest id of each class). Empty, at no cost, for M alone."""
    mates, *others = matchings
    if not others:
        return set()
    index, _ = g.positions()
    n = g.n
    # the bit of the lowest edge id joining positions i and j, at i * n + j
    lowest = [0] * (n * n)
    for eid, (u, v) in g.edge_items():
        i, j = index[u], index[v]
        if not lowest[i * n + j]:
            lowest[i * n + j] = lowest[j * n + i] = 1 << eid
    at = [0] * n
    for k, (i, j) in enumerate(edges):
        at[i] = at[j] = 1 << k
    cycles = set()
    for other in others:
        done = [False] * n
        for start, mate in enumerate(mates):
            if done[start] or other[start] == mate:
                continue
            held = crossing = 0
            v = start
            while not done[v]:
                w = mates[v]
                done[v] = done[w] = True
                held |= at[v]
                v = other[w]
                crossing |= lowest[w * n + v]
            cycles.add((held, crossing))
    return cycles


def enumerate_tight_cuts(g: Graph, nontrivial_only=False) -> list[Cut]:
    """Every tight cut once, by shore size then lex order.

    Every shore is generated through the smallest vertex, which is
    exactly the canonical form, so no deduplication is needed. Only the
    shores that every perfect matching _matching_partners finds crosses
    once are walked (_shores_crossed_once), as a tight cut is one of
    them. The first is g's cached perfect matching M, which alone
    crosses n * 2^(n/2 - 2) shores once, against the 2^(n - 2) odd
    shores through the smallest vertex, 192 against 1,024 at n = 12.

    The walk is a bijection onto those shores. Let X be a shore M
    crosses only at e. Every other M-edge lies inside X or outside it,
    and M covers every vertex, so X is one end of e plus the M-edges
    inside it, and it determines e, that end and those edges. X holds
    the smallest vertex, so that vertex is the end of e inside X, or
    its M-edge is one of those inside. Conversely each such choice is a
    shore M crosses only at e, odd and proper: it misses e's other end.

    The block rule. Let another found matching N cross X once too.
    M xor N is a set of disjoint alternating cycles. Walking round one,
    Q, only e and Q's N-edges can switch sides, an even number of times
    in all, so Q's N-edges cross X an odd number of times if Q runs
    through e and an even number if not. An edge N shares with M
    crosses only if it is e. N crosses X once, so each cycle that
    avoids e has no crossing edge and lies on one side of X. Per e,
    the M-edges of every such cycle, of every found N, are joined into
    one block; and N crosses X once iff the N-edges of its cycle
    through e, if it has one, cross once: one bit count of the cut.
    Lying on one side is an equivalence, so the shores every found
    matching crosses once are exactly the choices of blocks, with the
    anchor's inside, that pass every check.

    Parallel edges. N's edges are classes of parallel edges, and a cut
    holds every edge of a class or none. A cycle's check mask holds the
    lowest edge id of each of its N-edges' classes, so the bit count
    counts classes.

    A trivial cut is kept without a test: every perfect matching has
    exactly one edge at each vertex. Any other shore is kept when no
    two edges of its cut are co-matchable (the lemma in the module
    docstring): _comatchable_among on its cut's edges, with a memo that
    lives for this call only. _matching_partners starts it with, for
    every edge class uv, a found perfect matching through uv, cut down
    to one of g - u - v when first read, or its own search's matching
    of g - u - v. Each row search of the test is kept, run to the end,
    so cuts that share edges pay for a row once. The walk takes every
    found matching at every order; below n = 6 every odd shore is
    trivial, crossed once by every perfect matching, so it keeps what M
    alone would.

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
    if find_perfect_matching(g) is None:
        raise GraphError("tight cuts are about perfect matchings; none exist")
    matchings, memo = _matching_partners(g)
    kept = []
    for members, cut in _shores_crossed_once(g, matchings):
        if len(members) in (1, n - 1):
            if nontrivial_only:
                continue
        elif _comatchable_among(g, _edge_ids(cut), memo):
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


class CutClassification(_Value):
    """The largest barrier witness per shore, and every two-separation,
    that classify_cut found for one cut.

    barrier_witnesses pairs each barrier with the index (into
    cut.shores()) of the shore that appears among the odd components
    of g minus the barrier; at most one barrier per shore. Every other
    barrier witness of that shore lies inside the listed one.
    twosep_witnesses lists the two-separations generating the cut.
    """

    __slots__ = ("cut", "barrier_witnesses", "twosep_witnesses")

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
