"""Dot rendering: deterministic source with edge and origin marks."""

from tightcut.cli import _write_dot_files
from tightcut.cuts import enumerate_tight_cuts
from tightcut.decompose import decompose_tight_cut
from tightcut.dot import graph_to_dot
from tightcut.graph import Graph
from tightcut.instances import fixture_instances

from conftest import cycle, sha256_of_lines


def test_plain_render(c6):
    text = graph_to_dot(c6)
    assert text.startswith('graph "G" {')
    assert text.rstrip().endswith("}")
    assert text.count(" -- ") == 6
    assert "shape=box" not in text
    assert graph_to_dot(c6) == text  # deterministic


def test_highlight_and_secondary(c6):
    text = graph_to_dot(c6, highlight=frozenset({0}),
                        secondary=frozenset({1}), name="step one")
    assert 'graph "step one" {' in text
    assert '0 -- 1 [label="0", color=red, penwidth=2];' in text
    assert '1 -- 2 [label="1", color=blue, style=dashed];' in text
    assert '2 -- 3 [label="2"];' in text


def test_highlight_wins_over_secondary(c6):
    text = graph_to_dot(c6, highlight=frozenset({0}),
                        secondary=frozenset({0}))
    assert "color=red" in text and "color=blue" not in text


def test_provenance_boxes():
    g = cycle(6).contract({3, 4, 5}, 6)
    text = graph_to_dot(g, origins={6: frozenset({3, 4, 5})})
    assert '6 [shape=box, label="6 {3,4,5}"];' in text
    assert "  0;" in text


def test_parallel_edges_render_separately():
    g = Graph(range(2), [(0, 1), (0, 1)])
    text = graph_to_dot(g)
    assert text.count("0 -- 1") == 2


def test_name_quoting():
    text = graph_to_dot(cycle(6), name='say "hi"')
    assert text.startswith('graph "say \\"hi\\"" {')


# sha256 (sha256_of_lines) of the dot files that cli._write_dot_files
# writes for the certificates of the 72 nontrivial tight cuts of the
# fixtures, in cut order and then file-name order: 98 files, 26 of them
# with a contraction vertex's box
FIXTURE_DOT_FILES_SHA256 = (
    "8843aca2b073fc17d94ad6a2880932f4700cc4affd22a2640f48a4d34ca56c5e")


def test_fixture_dot_files_match_their_pin(tmp_path):
    """The dot files of every fixture certificate match their pin. The
    bridged_triangle cut with shore {0, 1, 2} is the one whose second
    step contracts the first step's label (10, into 11), so its final
    graph's box stands for the union of both contracted shores."""
    files = []
    for name, g, _ in fixture_instances():
        for c in enumerate_tight_cuts(g, nontrivial_only=True):
            out = tmp_path / f"{len(files):03d}"
            _write_dot_files(decompose_tight_cut(g, c), str(out))
            files.append((name, c.shore, [
                path.read_text() for path in sorted(out.iterdir())]))
    assert len(files) == 72
    texts = [text for *_, group in files for text in group]
    assert len(texts) == 98
    assert sum("shape=box" in text for text in texts) == 26
    assert sha256_of_lines(texts) == FIXTURE_DOT_FILES_SHA256
    # final.dot sorts before the step files
    [final] = [group[0] for name, shore, group in files
               if name == "bridged_triangle" and shore == {0, 1, 2}]
    assert final.startswith('graph "final" {')
    assert '  11 [shape=box, label="11 {3,4,7,8,9}"];' in final
