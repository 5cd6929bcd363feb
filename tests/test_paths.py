"""Unit tests for the Path algebra."""

import pytest

from repro.core.errors import PathError
from repro.core.paths import Path, path_from_parents


class TestConstruction:
    def test_basic(self):
        p = Path([0, 1, 2])
        assert p.source == 0 and p.target == 2
        assert len(p) == 2
        assert p.vertices == (0, 1, 2)

    def test_single_vertex(self):
        p = Path([7])
        assert len(p) == 0
        assert p.last_edge() is None
        assert p.first_edge() is None

    def test_empty_rejected(self):
        with pytest.raises(PathError):
            Path([])

    def test_repeat_rejected(self):
        with pytest.raises(PathError):
            Path([0, 1, 0])

    def test_repeat_caught_without_an_index(self):
        # concat slices vertex tuples, so neither operand ever builds
        # its vertex -> position index; the repeat is still caught, and
        # named as the first vertex that occurs twice.
        head, tail = Path([4, 1, 2]), Path([2, 3, 1, 5])
        with pytest.raises(PathError) as err:
            head.concat(tail)
        assert str(err.value) == "vertex 1 repeats in path [4, 1, 2, 3, 1, 5]"
        assert head._pos is None and tail._pos is None

    def test_hash_and_eq(self):
        assert Path([0, 1]) == Path([0, 1])
        assert Path([0, 1]) != Path([1, 0])
        assert len({Path([0, 1]), Path([0, 1]), Path([1, 0])}) == 2
        assert Path([0, 1]) != "x"

    def test_repr_short_and_long(self):
        assert "0-1" in repr(Path([0, 1]))
        long = Path(list(range(20)))
        assert "..." in repr(long)


class TestEdges:
    def test_edges_normalized(self):
        p = Path([3, 1, 2])
        assert p.edges() == [(1, 3), (1, 2)]

    def test_directed_edges(self):
        p = Path([3, 1, 2])
        assert p.directed_edges() == [(3, 1), (1, 2)]

    def test_last_first_edge(self):
        p = Path([0, 1, 2])
        assert p.last_edge() == (1, 2)
        assert p.first_edge() == (0, 1)

    def test_edge_membership(self):
        p = Path([0, 1, 2, 3])
        assert (2, 1) in p
        assert (0, 2) not in p
        assert 2 in p
        assert 9 not in p

    def test_edge_position(self):
        p = Path([5, 4, 3])
        assert p.edge_position((5, 4)) == 1
        assert p.edge_position((3, 4)) == 2
        with pytest.raises(PathError):
            p.edge_position((5, 3))


class TestSubpaths:
    def test_position(self):
        p = Path([4, 5, 6])
        assert p.position(5) == 1
        with pytest.raises(PathError):
            p.position(9)

    def test_subpath_forward(self):
        p = Path([0, 1, 2, 3, 4])
        assert p.subpath(1, 3).vertices == (1, 2, 3)

    def test_subpath_reverse(self):
        p = Path([0, 1, 2, 3, 4])
        assert p.subpath(3, 1).vertices == (3, 2, 1)

    def test_prefix_suffix(self):
        p = Path([0, 1, 2, 3])
        assert p.prefix(2).vertices == (0, 1, 2)
        assert p.suffix(2).vertices == (2, 3)

    def test_reversed(self):
        assert Path([0, 1, 2]).reversed().vertices == (2, 1, 0)

    def test_concat(self):
        p = Path([0, 1]).concat(Path([1, 2, 3]))
        assert p.vertices == (0, 1, 2, 3)

    def test_concat_endpoint_mismatch(self):
        with pytest.raises(PathError):
            Path([0, 1]).concat(Path([2, 3]))

    def test_concat_revisit_rejected(self):
        with pytest.raises(PathError):
            Path([0, 1, 2]).concat(Path([2, 0]))


class TestRelations:
    def test_common_vertices(self):
        a = Path([0, 1, 2, 3])
        b = Path([5, 2, 1, 6])
        assert a.common_vertices(b) == {1, 2}

    def test_internally_disjoint(self):
        a = Path([0, 1, 2])
        b = Path([0, 3, 2])
        assert a.is_internally_disjoint(b, ignore=[0, 2])
        assert not a.is_internally_disjoint(b)

    def test_first_last_common_vertex(self):
        a = Path([0, 1, 2, 3])
        b = Path([9, 2, 1])
        assert a.first_common_vertex(b) == 1
        assert a.last_common_vertex(b) == 2
        assert b.first_common_vertex(a) == 2
        assert a.first_common_vertex(Path([8, 9])) is None
        assert a.last_common_vertex(Path([8, 9])) is None

    def test_divergence_point(self):
        pi = Path([0, 1, 2, 3])
        p = Path([0, 1, 9, 3])
        assert p.divergence_point(pi) == 1
        assert p.divergence_points(pi) == [1]

    def test_multiple_divergence_points(self):
        pi = Path([0, 1, 2, 3, 4])
        p = Path([0, 9, 1, 8, 4])
        assert p.divergence_points(pi) == [0, 1]

    def test_no_divergence(self):
        pi = Path([0, 1, 2])
        assert pi.divergence_point(pi) is None


class TestParents:
    def test_reconstruction(self):
        parents = [0, 0, 1, 2]
        assert path_from_parents(parents, 3).vertices == (0, 1, 2, 3)

    def test_unreached(self):
        with pytest.raises(PathError):
            path_from_parents([0, -1], 1)

    def test_source_only(self):
        assert path_from_parents([0], 0).vertices == (0,)
