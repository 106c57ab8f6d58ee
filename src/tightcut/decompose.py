"""Witness search around a tight cut, and the full decomposition chain.

Every nontrivial tight cut of a matching covered graph admits a
witnessed tight cut (a barrier cut or a two-separation cut) that does
not cross it. find_noncrossing_witness locates one: either some cut
edge is good, meaning both endpoints leave their shores connected when
deleted, and witness_from_edge explains the cut directly; or the
canonical shore splits at a block boundary into a strictly smaller
instance whose answer pulls back.

decompose_tight_cut drives this to completion in one loop. Each round
contracts a barrier cut when a shore holds a candidate, a class of
dependent vertices inside it read off the graph's own dependence rows
(a class of the graph with the other shore contracted, though no
contraction is built); it stops when the reference cut is a
two-separation cut, and otherwise contracts the two-separation cut the
witness search finds. No round searches subsets.
The certificate records every step for independent replay.

Most intermediate claims here are theorems, not expectations; when one
fails the code raises InternalInvariantError rather than improvising,
because a violation means the implementation, not the input, is wrong.

Matching coverage is tested once, on the caller's input, by each
public entry point. find_noncrossing_witness and witness_from_edge
test tightness there too, with is_tight: a witness that does not cross
c proves nothing about c. decompose_tight_cut tests only the cheap
necessary conditions (meets_once: an odd shore, met once by the cached
perfect matching), and its certificate proves the rest. A returned
certificate implies a tight cut. Every step passed _finding_failure,
the WitnessFinding contract, and every final barrier passed is_barrier
with the shore among its odd parts (classify_cut), or every final
two-separation passed two_separation_cuts (twoseps_generating). So the
final cut is tight in the last graph by Fact 1 of verify.py (witnessed
cuts are tight), and tight in g by its Fact 2 (tightness pulls back
through a contraction), once per step back: each contracted shore lies
strictly inside a shore of the reference cut. On a cut that is not
tight the loop still ends within g.n rounds, since each step contracts
a shore of two or more vertices. It cannot return, so a guard raises
InternalInvariantError, and only then does decompose_tight_cut run
is_tight, with its at most |C|^2 / 2 co-matchable row searches, to
tell bad input from a bug.

Every graph and cut the reduction builds from a tight cut is valid by
the facts below, which continue the numbering of verify.py. Every step
cut passes witness_failure, so it is tight by Fact 1. Below, g is
matching covered, C is a tight cut of g with shore X, and
h = g/(X -> x) contracts X to one vertex x.
Fact 3: h is matching covered. A perfect matching M of g meets C in
one edge, so M less its edges inside X is a perfect matching of h that
keeps every edge of M outside X. Each edge of h is an edge of g not
inside X, and lies in some M; h is connected because g is.
Fact 4: a tight cut D of g with X inside one of its shores stays tight
in h; this is the converse of Fact 2. A perfect matching M' of h has
one edge e at x, an edge of C; e lies in a perfect matching N of g
(g is matching covered), and N meets C only in e, so M' plus N's edges
inside X is a perfect matching of g. It meets D in the edges M' does,
since no edge inside X is in D, so M' meets D once.
Fact 5: in the block split of find_noncrossing_witness, the cut around
f2 = X - f1 is tight, where v is an attached cut vertex of g[X] and f1
an even component of g[X] - v. The shores of a tight cut are odd, so
|f2| = |X| - |f1| is odd too, and a perfect matching M meets the cut
around f2 an odd number of times. Its edges there run from f2 across
C, where M has at most one, or from v into f1, where M has at most one
too; so M meets the cut once.
Fact 6: the two graphs _witness_from_edge hands to the dead-cut search
(structure._strict_barrier_in) are matchable, have two connected
shores, and their cut is dead, so the search's entry checks
(find_strict_barrier) would pass. Let uv be a good edge of C, u in X,
v in Y. Sole-cross setup, g - u - v at X - u: uv lies in a perfect
matching of g, which less uv is one of g - u - v; X - u and Y - v are
connected because the edge is good; and a perfect matching N of
g - u - v that used an edge between X - u and Y - v would make N + uv
meet C twice. Pivot setup, the pivot p with shore P and other shore O,
and g without p's edges into P, at P - p: a cut edge at p lies in a
perfect matching of g, which uses none of p's edges into P; P - p is
connected because the edge is good, and O + p is connected because O
is a shore of a tight cut (part (b) of classify_cut's proof) and p has
neighbours across C; and a perfect matching of the stripped graph
matches p across C, so it is one of g that meets C there, and nowhere
between P - p and O.
"""

from __future__ import annotations

from .certificate import DecompositionCertificate, Step
from .cuts import CutClassification, classify_cut, is_tight, meets_once
from .graph import Cut, Graph, GraphError, InternalInvariantError, _Value
from .matching import (
    _carry_rows,
    _dependence_row,
    _shore_missable,
    is_matching_covered,
)
from .structure import (
    Barrier,
    TwoSeparation,
    _lift,
    _strict_barrier_in,
    is_barrier,
    make_two_separation,
    twoseps_generating,
)
from .verify import witness_failure

BRANCH_SOLE_CROSS_NEIGHBORS = "sole_cross_neighbors"
BRANCH_FAR_SHORE_BARRIER = "detached_far_shore_barrier"
BRANCH_ODD_SIDE_BARRIER = "detached_odd_side_barrier"
BRANCH_ODD_SIDE_TWOSEP = "detached_odd_side_twosep"
BRANCH_GOOD_EDGE = "good_edge_delegation"
BRANCH_BLOCK_SPLIT = "block_split_recursion"
BRANCH_PULLBACK_BARRIER = "pullback_barrier"
BRANCH_PULLBACK_TWOSEP = "pullback_twosep"
BRANCH_ALREADY_WITNESSED = "already_witnessed"
BRANCH_BARRIER_PHASE = "barrier_cut_phase"
BRANCH_TWOSEP_STEP = "twosep_reduction_step"

# the branches a healthy corpus must exercise
REQUIRED_BRANCHES = frozenset({
    BRANCH_SOLE_CROSS_NEIGHBORS,
    BRANCH_ODD_SIDE_BARRIER,
    BRANCH_ODD_SIDE_TWOSEP,
    BRANCH_PULLBACK_BARRIER,
    BRANCH_PULLBACK_TWOSEP,
    BRANCH_BARRIER_PHASE,
    BRANCH_TWOSEP_STEP,
})


class BranchTally:
    """Counts how often each structural branch fired."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def hit(self, branch: str) -> None:
        self.counts[branch] = self.counts.get(branch, 0) + 1

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"BranchTally({inner})"


class WitnessFinding(_Value):
    """A witnessed tight cut that does not cross the reference cut.

    A Barrier witness is nontrivial and lies properly inside one shore
    of the reference cut; cut is the boundary of the odd component of
    g - barrier that holds the entire opposite shore. A TwoSeparation
    witness generates cut, whose off-reference shore lies inside one
    reference shore. _finding_failure states this contract; the
    producer and the sweep both check it there.
    """

    __slots__ = ("cut", "witness")


def _finding_failure(g: Graph, c: Cut, finding: WitnessFinding) -> str | None:
    """Why finding breaks the WitnessFinding contract for the reference
    cut c, or None. A two-separation is held to the verifier's witness
    rule, witness_failure. A barrier must be nontrivial and lie properly
    inside a shore of c, then pass witness_failure, and then the shore
    of its cut that misses it must hold the opposite shore of c."""
    cut, witness = finding.cut, finding.witness
    if isinstance(witness, TwoSeparation):
        return witness_failure(
            g, c, cut, (witness.pair, witness.side1, witness.side2))
    if not isinstance(witness, Barrier):
        return f"unknown witness {witness!r}"
    members = witness.members
    shore = next((side for side in c.shores() if members < side), None)
    if shore is None or not witness.is_nontrivial:
        return "barrier is trivial or not properly inside a reference shore"
    reason = witness_failure(g, c, cut, members)
    if reason is not None:
        return reason
    holder = next(side for side in cut.shores() if not side & members)
    if not g.vertex_set - shore <= holder:
        return "barrier cut shore does not hold the opposite shore"
    return None


def _require_decomposable(g: Graph, c: Cut) -> None:
    if c.graph is not g:
        raise GraphError("cut belongs to a different graph")
    if not is_matching_covered(g):
        raise GraphError("graph is not matching covered")
    if not meets_once(g, c):
        raise GraphError("cut is not tight")
    if c.is_trivial:
        raise GraphError("cut is trivial")


def _finish_barrier(g: Graph, c: Cut, members, shore: frozenset[int],
                    branch: str) -> WitnessFinding:
    """The finding of a barrier landed inside shore: its cut is the
    boundary of the odd part that holds the opposite shore, and the
    whole finding passes _finding_failure."""
    b = is_barrier(g, members)
    opposite = g.vertex_set - shore
    holder = None if b is None else next(
        (p for p in b.odd_parts if opposite <= p), None)
    if holder is None:
        raise InternalInvariantError(
            f"{branch}: {sorted(members)} is no barrier with an odd part "
            "holding the opposite shore")
    finding = WitnessFinding(g.boundary(holder), b)
    if (reason := _finding_failure(g, c, finding)) is not None:
        raise InternalInvariantError(f"{branch}: {reason}")
    return finding


def _finish_twosep(g: Graph, c: Cut, pair, side1, side2, cut_shore,
                   branch: str) -> WitnessFinding:
    """The finding of a two-separation that generates the cut with
    cut_shore, checked by _finding_failure."""
    try:
        ts = make_two_separation(g, pair, side1, side2)
    except GraphError as exc:
        raise InternalInvariantError(f"{branch}: {exc}") from exc
    finding = WitnessFinding(g.boundary(cut_shore), ts)
    if (reason := _finding_failure(g, c, finding)) is not None:
        raise InternalInvariantError(f"{branch}: {reason}")
    return finding


def _shore_cut_vertices(g: Graph, c: Cut) -> frozenset[int]:
    """The vertices that are cut vertices of their shore subgraph, read
    from the memoized cut vertices of g[c.shore] and g[c.other_shore].

    This is the one good-edge rule: a cut edge is good iff neither end
    is among them. The shores of a tight cut of a matching covered
    graph induce connected subgraphs (part (b) of classify_cut's
    proof), and in a connected g[X] an end u is a cut vertex iff
    g[X - u] is disconnected.
    """
    return (g.induced(c.shore).cut_vertices()
            | g.induced(c.other_shore).cut_vertices())


def witness_from_edge(g: Graph, c: Cut, eid: int,
                      tally: BranchTally | None = None) -> WitnessFinding:
    """Explain the reference cut starting from one good cut edge.

    The edge must be good: removing its endpoint from either shore
    leaves that shore subgraph connected. If each endpoint sees only
    the other across the cut, deleting both leaves a dead cut (Fact 6)
    and the confined barrier extends by the endpoint on its side.
    Otherwise a pivot endpoint with two distinct cross neighbors sheds
    its in-shore edges, the residual dead cut (Fact 6) yields a confined
    barrier, and the component structure around the pivot decides
    between three outcomes: a barrier on the pivot side, a barrier on
    the far side, or a two-separation.

    The pivot's component of stripped - confined is always odd, so the
    guard on an even one raises InternalInvariantError. Proof: let p be
    the pivot, P its shore (pshore) and O the other (oshore); S is g
    without p's edges into P (stripped), D = P - p, the dead shore, and B
    (confined) is the strict barrier of S tagged with O + p, with p not
    in B. D is connected (the edge is good) and avoids B, and every
    odd component of S - B lies in O + p, so the component of S - B
    holding D is even. Were p's component even too, putting back the
    edges between p and D would touch only even components, so g - B
    would have the same odd components as S - B: B would be a barrier
    of g leaving an even component. But in a matching covered graph no
    barrier leaves an even component (Lovasz-Plummer, Matching Theory,
    ch. 5): every perfect matching joins each member of B to a distinct
    odd component, and since g is connected some edge joins B to the
    even component, an edge in no perfect matching.
    """
    _require_decomposable(g, c)
    if not is_tight(g, c):
        raise GraphError("cut is not tight")
    tally = BranchTally() if tally is None else tally
    return _witness_from_edge(g, c, eid, tally)


def _witness_from_edge(g: Graph, c: Cut, eid: int,
                       tally: BranchTally) -> WitnessFinding:
    """witness_from_edge without its entry check.

    In the block split of find_noncrossing_witness the ordinary pivot
    rule picks the contraction vertex s. Proof, with w the far endpoint
    of the edge and f1 the block component s sits beside: w has no
    neighbour in f1. An edge xw with x in f1 is a cut edge of the
    original graph and not good, so x is an attached near cut vertex,
    which f1 avoids by construction, or w is a far cut vertex, which the
    split's candidates exclude. And s has two or more distinct far
    neighbours, since the far side plus s is 2-connected on at least 3
    vertices. So the rule takes u = s when s is on the canonical shore;
    otherwise u = w, whose one cross neighbour is s, and it takes v = s.
    With the pivot s, a barrier found here contains s (the far-shore
    branch) or lies in the far shore (the odd-side branch).
    """
    if eid not in c.edge_ids:
        raise GraphError(f"edge {eid} is not in the cut")
    a, b = g.edge_ends(eid)
    u, v = (a, b) if a in c.shore else (b, a)
    xu, xv = c.shore, c.other_shore
    cut_vertices = _shore_cut_vertices(g, c)
    for end in (u, v):
        if end in cut_vertices:
            raise GraphError(f"removing endpoint {end} disconnects its shore")

    u_cross = {w for w in g.neighbors(u) if w in xv}
    v_cross = {w for w in g.neighbors(v) if w in xu}
    if len(u_cross) >= 2:
        pivot = u
    elif len(v_cross) >= 2:
        pivot = v
    else:
        pivot = None

    if pivot is None:
        # the edge is the sole bridge between its endpoints' horizons
        tally.hit(BRANCH_SOLE_CROSS_NEIGHBORS)
        dead = xu - {u}
        found = _strict_barrier_in(g.without_vertices((u, v)), dead)
        members = found.barrier.members
        if found.shore == dead:
            return _finish_barrier(g, c, members | {u}, xu,
                                   BRANCH_SOLE_CROSS_NEIGHBORS)
        return _finish_barrier(g, c, members | {v}, xv,
                               BRANCH_SOLE_CROSS_NEIGHBORS)

    pshore, oshore = (xu, xv) if pivot in xu else (xv, xu)
    in_shore_edges = [
        inc for inc in g.incident(pivot)
        if (set(g.edge_ends(inc)) - {pivot}).pop() in pshore]
    stripped = g.without_edges(in_shore_edges)
    dead = pshore - {pivot}
    found = _strict_barrier_in(stripped, dead)
    confined = found.barrier.members
    if found.shore == dead:
        # barrier and components live away from the pivot's horizon
        tally.hit(BRANCH_FAR_SHORE_BARRIER)
        return _finish_barrier(g, c, confined | {pivot}, pshore,
                               BRANCH_FAR_SHORE_BARRIER)
    if pivot in confined:
        raise InternalInvariantError("pivot inside the confined barrier")
    parts = stripped.components_without(confined)
    pivot_part = next(p for p in parts if pivot in p)
    if len(pivot_part) % 2 == 0:
        raise InternalInvariantError(
            "pivot in an even component: the confined barrier would leave "
            "an even component of g, and no barrier of a matching covered "
            "graph does (Lovasz-Plummer, ch. 5)")

    if not pivot_part <= oshore | {pivot}:
        raise InternalInvariantError("odd pivot component escapes the tagged shore")
    if len(confined) >= 2:
        tally.hit(BRANCH_ODD_SIDE_BARRIER)
        return _finish_barrier(g, c, confined, oshore, BRANCH_ODD_SIDE_BARRIER)

    # single-member barrier: the pivot and that member separate the graph
    tally.hit(BRANCH_ODD_SIDE_TWOSEP)
    z = min(confined)
    finding = _finish_twosep(
        g, c, (pivot, z), pivot_part | {z},
        (g.vertex_set - pivot_part) | {pivot}, (pivot_part - {pivot}) | {z},
        BRANCH_ODD_SIDE_TWOSEP)
    if g.induced(oshore | {pivot}).is_2connected() and finding.cut != c:
        raise InternalInvariantError(
            "two-connected far side must reproduce the reference cut")
    return finding


def find_noncrossing_witness(g: Graph, c: Cut,
                             tally: BranchTally | None = None) -> WitnessFinding:
    """A witnessed tight cut of g that does not cross the tight cut c.

    Scans cut edges in id order for a good one and delegates to
    witness_from_edge. With no good edge, both shore subgraphs have cut
    vertices; the canonical shore then splits at an attached cut vertex
    into an even block component and the rest, the rest contracts to a
    single vertex, and the strictly smaller instance answers through
    one good edge at that vertex, which becomes the pivot. Its answer
    pulls back: barriers map through the contraction label, and a
    reproduced cut becomes a two-separation of g at the split vertex.
    """
    _require_decomposable(g, c)
    if not is_tight(g, c):
        raise GraphError("cut is not tight")
    tally = BranchTally() if tally is None else tally
    return _find_noncrossing_witness(g, c, tally)


def _find_noncrossing_witness(g: Graph, c: Cut,
                              tally: BranchTally) -> WitnessFinding:
    xu, xv = c.shore, c.other_shore
    near = g.induced(xu)
    far = g.induced(xv)
    if not near.is_connected() or not far.is_connected():
        raise InternalInvariantError("tight cut shore subgraph is disconnected")
    cut_vertices = _shore_cut_vertices(g, c)
    for eid in sorted(c.edge_ids):
        if cut_vertices.isdisjoint(g.edge_ends(eid)):
            tally.hit(BRANCH_GOOD_EDGE)
            return _witness_from_edge(g, c, eid, tally)

    tally.hit(BRANCH_BLOCK_SPLIT)
    attached = {w for e in c.edge_ids for w in g.edge_ends(e) if w in xu}
    bad = sorted(cut_vertices & attached)
    if not bad:
        raise InternalInvariantError(
            "no good edge, yet no attached cut vertex on the canonical shore")
    for v in bad:
        pieces = near.components_without(frozenset((v,)))
        f1 = next((comp for comp in pieces if comp.isdisjoint(bad)), None)
        if f1 is not None:
            break
    else:
        raise InternalInvariantError(
            "every split component touches an attached cut vertex")
    # v is attached across the cut, so every piece it cuts off is even
    if any(len(comp) % 2 for comp in pieces):
        raise InternalInvariantError("odd piece beside an attached cut vertex")
    # the boundary of f2 = xu - f1 is tight (Fact 5), so shrunk is matching
    # covered (Fact 3) and c2 is tight in it (Fact 4). f2 lies strictly
    # inside xu, so no edge of c lies inside it: c2 keeps every edge id,
    # with shores f1 + s_label and xv
    s_label = g.fresh_vertex()
    shrunk = g.contract(xu - f1, s_label)
    c2 = shrunk.boundary(f1 | {s_label})
    if not shrunk.induced(xv | {s_label}).is_2connected():
        raise InternalInvariantError("far side of the block split is not 2-connected")
    candidates = [
        w for w in shrunk.neighbors(s_label)
        if w in xv and w not in cut_vertices]
    if not candidates:
        raise InternalInvariantError(
            "split vertex has no non-cut neighbor on the far shore")
    w = min(candidates)
    e2 = min(shrunk.edges_between(s_label, w))
    try:
        sub = _witness_from_edge(shrunk, c2, e2, tally)
    except GraphError as exc:
        raise InternalInvariantError(
            f"block split instance rejected a theorem-backed edge: {exc}") from exc

    if isinstance(sub.witness, Barrier):
        # the pivot was s_label (_witness_from_edge's docstring), so the
        # barrier holds s_label, and lifts with v in its place into xu, or
        # lies in the far shore xv and lifts unchanged; one that escapes
        # both fails _finish_barrier with xv as its shore
        tally.hit(BRANCH_PULLBACK_BARRIER)
        lifted = _lift(g, shrunk, s_label, sub.witness.members, {v})
        if lifted is None:
            raise InternalInvariantError("inner witness is not a barrier")
        members = lifted.members
        return _finish_barrier(g, c, members, xu if v in members else xv,
                               BRANCH_PULLBACK_BARRIER)

    tally.hit(BRANCH_PULLBACK_TWOSEP)
    if sub.cut != c2:
        raise InternalInvariantError(
            "inner two-separation does not reproduce the reference cut")
    z = next(p for p in sub.witness.pair if p != s_label)
    if z not in xv:
        raise InternalInvariantError("inner separation pair lands off the far shore")
    return _finish_twosep(g, c, (v, z), f1 | {v, z}, g.vertex_set - f1,
                          f1 | {v}, BRANCH_PULLBACK_TWOSEP)


def _contract_step(g: Graph, tracked, step_cut: Cut, witness,
                   steps: list) -> tuple[Graph, Cut, list]:
    """Record one step, contract, and map the tracked shores.

    step_cut passed witness_failure, so it is tight (Fact 1 in verify.py);
    the contraction is matching covered (Fact 3) and keeps the
    reference cut tight (Fact 4). The contracted shore lies strictly
    inside a tracked shore, so no cut edge lies inside it: the image of
    the reference cut keeps every edge id, and both its shores keep two
    or more vertices. The contraction takes over the dependence rows g
    has cached outside the contracted shore (matching._carry_rows).
    """
    matches = [
        (zs, side) for zs in step_cut.shores() for side in tracked if zs < side]
    if len(matches) != 1:
        raise InternalInvariantError(
            f"expected exactly one contractible shore, found {len(matches)}")
    contracted, side = matches[0]
    label = g.fresh_vertex()
    steps.append(Step(g, step_cut, witness, contracted, label))
    new_g = g.contract(contracted, label)
    _carry_rows(g, new_g, contracted, label)
    new_tracked = [(t - contracted) | {label} if t == side else t
                   for t in tracked]
    return new_g, new_g.boundary(new_tracked[0]), new_tracked


def _min_holder_barrier(g: Graph, tracked,
                        start: int) -> tuple[Barrier, Cut, int] | None:
    """The barrier step's choice, as (barrier, cut of its holder, index
    into tracked of its shore), or None.

    For a shore S of tracked with opposite shore O, call v and w
    dependent in a graph when deleting both leaves it without a perfect
    matching. The candidates of S (_shore_candidates) are the sets
    P = S - row(v) with |P| >= 2, for v in D(g[S]): row(v) is v's cached
    dependence row of g, and D(g[S]) is the set of vertices that some
    maximum matching of g[S] misses (matching._shore_missable): one
    search on g's own rows with O dead, from g's cached perfect
    matching M less its one edge in the cut, rooted at that edge's end
    in S, and no blossom run on g[S]. In the first shore of tracked
    that has one, take the P whose holder (the odd component of g - P
    holding O) is smallest, ties broken by the sorted holder, then the
    sorted members. The step contracts V - H to one vertex y for the
    holder H of P.

    The candidates are the dependence classes P of h = g/(O -> o) with o
    not in P and |P| >= 2; h is matching covered by Fact 3, and the
    proof below reasons on h, which the code never builds. Lemma: g[S]
    = h - o has odd order, and the reference cut is tight, so M meets
    it once and M less that edge is a matching of g[S] that misses one
    vertex only. It is maximum, so every maximum matching of g[S]
    misses exactly one vertex. A None from _shore_missable means that M
    meets the cut more than once, which tightness rules out; it raises
    InternalInvariantError. So h - o - v = g[S] - v is matchable
    iff v is in D(g[S]): v is dependent with o in h iff v is not in
    D(g[S]). Classes match: for v in D(g[S]) the class of v in h is
    S - row(v). A w dependent with v in g is dependent with v in h, by
    the argument of part (b) of classify_cut's proof (with X = O); and
    the class of v in h avoids o, so it is a barrier of g by (a) below,
    and its members are pairwise dependent in g. Hence the classes of h
    that avoid o are exactly the sets S - row(v), for v in D(g[S]).

    The search starts at tracked[start]: the loop passes the shore index
    of the previous round's barrier step, and 0 after a two-separation
    step. A barrier step on the second shore contracts a part Z of it
    and leaves the first shore as it was. The first shore's h contracts
    the second shore, and contracting Z and then the rest of that shore
    contracts the whole of it, so h is the same graph as one round
    earlier, up to the label of o: it again has no candidate.

    (a) A candidate P is a barrier of g inside S, and has a holder. The
    classes of h are its Kotzig-Lovasz canonical partition into maximal
    barriers (Lovasz-Plummer, Matching Theory, 1986, ch. 5;
    test_dependence_is_the_canonical_partition checks it), so P is a
    barrier of h, and it avoids o, so it lies in S. As in part (b) of
    classify_cut's proof, O is connected, so the components of g - P are
    those of h - P with o expanded to O, and as |O| is odd each keeps
    its parity: P is a barrier of g. Every component of h - P is odd
    (test_matching_covered_barriers_leave_only_odd_components checks the
    lemma), so o's expands to the holder.
    (b) A barrier B of g inside P has a holder at least as large as P's.
    B lies in S and O is connected, so B's holder is o's component of
    h - B with o expanded, and h - P lies inside h - B: P's holder lies
    in B's. So the minimum over every barrier inside a candidate is
    reached at a candidate.
    (c) A barrier witness B of the reference cut inside S (O an odd
    component of g - B) lies in a candidate. By classify_cut's proof,
    with X = O, the largest such witness F is the set classify_cut
    builds, S less the row of an attachment a of O, from the same
    cached row; it is the class of a in h and avoids o, so a is in
    D(g[S]). And |F| >= 2, since F = {a} would leave g - a with the
    single component O, so S = {a}, a trivial cut.
    So F is a candidate, with holder O. The guard below, on a holder
    equal to O, thus fires whenever the reference cut has a barrier
    witness, and a round that gets None knows it has none: the final
    block's comment in decompose_tight_cut rests on this. The guard
    never fires: the initial classification lists no barrier witness,
    and a barrier step keeps it so. Were a shore X an odd component of
    the contraction minus a barrier B', then
    lift_barrier_over_odd_component makes B', or P + (B' - y) when y is
    in B', a barrier one graph earlier, with X (y expanded to the
    connected V - H) as an odd component: if y is in B', X lies in H,
    whose edges leaving H end in P. After a two-separation step no
    proof is known; that the guard never fires there is observed only,
    on the 26 rounds that follow one in the 72 fixture and 864 inflated
    decompositions.
    (d) Barriers inside o's class, less o, are not candidates, and no
    proof says that the witness search, run after a round that got
    None, returns none of them: the loop's "witness search returned a
    barrier" guard is observed only. It held on all 26 rounds that
    reached it in the same decompositions.
    """
    for i in range(start, len(tracked)):
        if found := _shore_candidates(g, tracked[i]):
            b, holder = min(found, key=lambda t: (
                len(t[1]), sorted(t[1]), sorted(t[0].members)))
            return b, g.boundary(holder), i
    return None


def _shore_candidates(g: Graph, side: frozenset[int]
                      ) -> list[tuple[Barrier, frozenset[int]]]:
    """The candidates of the shore side, as (barrier, holder) pairs in
    order of least member: see _min_holder_barrier's docstring."""
    opposite = g.vertex_set - side
    missable = _shore_missable(g, side)
    if missable is None:
        raise InternalInvariantError(
            "the cached perfect matching meets the cut of shore "
            f"{sorted(side)} more than once")
    left = set(missable)
    found = []
    while left:
        part = side - _dependence_row(g, min(left))
        left -= part
        if len(part) < 2:
            continue
        b = is_barrier(g, part)
        holder = None if b is None else next(
            (p for p in b.odd_parts if opposite <= p), None)
        if holder is None or holder == opposite:
            raise InternalInvariantError(
                f"class {sorted(part)} is no barrier, or has no holder "
                "but the opposite shore")
        found.append((b, holder))
    return found


def decompose_tight_cut(g: Graph, c: Cut,
                        tally: BranchTally | None = None) -> DecompositionCertificate:
    """Contract a nontrivial tight cut down to a witnessed one.

    Already-witnessed cuts return a one-graph certificate. Otherwise
    each round of one loop takes the first step that applies: contract
    the barrier cut of the dependence class _min_holder_barrier picks
    (its docstring proves the guards there, and says which are
    observed); stop once the reference cut is a two-separation cut; or
    contract the two-separation cut find_noncrossing_witness finds.
    Barrier steps come first: letting the witness search choose every
    step lengthens chains and can turn the reference into a barrier cut.

    The certificate proves c tight (the module docstring), so is_tight
    runs only when the reduction fails: a cut it rejects raises
    GraphError, and on a tight cut the internal error stands.
    """
    _require_decomposable(g, c)
    tally = BranchTally() if tally is None else tally
    try:
        return _reduce(g, c, tally)
    except InternalInvariantError:
        if not is_tight(g, c):
            raise GraphError("cut is not tight") from None
        raise


def _reduce(g: Graph, c: Cut, tally: BranchTally) -> DecompositionCertificate:
    """decompose_tight_cut without its entry check and failure test."""
    base = classify_cut(g, c)
    if base.witnessed:
        tally.hit(BRANCH_ALREADY_WITNESSED)
        return DecompositionCertificate(g, c, (), g, base)

    steps: list[Step] = []
    cur_g, cur_c = g, c
    tracked = [c.other_shore, c.shore]
    start = 0
    for _ in range(g.n):
        picked = _min_holder_barrier(cur_g, tracked, start)
        if picked is not None:
            witness, step_cut, start = picked
            finding = WitnessFinding(step_cut, witness)
            if (reason := _finding_failure(cur_g, cur_c, finding)) is not None:
                raise InternalInvariantError(
                    f"{BRANCH_BARRIER_PHASE}: {reason}")
            tally.hit(BRANCH_BARRIER_PHASE)
        elif twoseps := twoseps_generating(cur_g, cur_c):
            # a barrier witness would lie in a candidate class, on which
            # _min_holder_barrier had raised (part (c) of its docstring)
            final = CutClassification(cur_c, (), tuple(twoseps))
            return DecompositionCertificate(g, c, tuple(steps), cur_g, final)
        else:
            finding = _find_noncrossing_witness(cur_g, cur_c, tally)
            if not isinstance(finding.witness, TwoSeparation):
                raise InternalInvariantError(
                    "witness search returned a barrier despite clean shores")
            if finding.cut == cur_c:
                raise InternalInvariantError(
                    "reference reproduced without a classification witness")
            tally.hit(BRANCH_TWOSEP_STEP)
            step_cut, witness = finding.cut, finding.witness
            start = 0
        cur_g, cur_c, tracked = _contract_step(
            cur_g, tracked, step_cut, witness, steps)
    raise InternalInvariantError("reduction did not terminate")
