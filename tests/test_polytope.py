from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from objred import linalg, polytope, verify
from objred.errors import InfeasibleRegion, UnboundedObjective
from objred.instances import degenerate_cube, ladder_region, ordered_cone
from objred.linalg import dot
from objred.polytope import (
    Polytope,
    contains,
    enumerate_vertices,
    face_vertex_sets,
    find_interior_point,
    is_bounded,
    nonempty,
    optimal_face_vertices,
    zero_set,
)

from objred.verify import check_step

from helpers import (
    CUBE,
    SEGMENT,
    SQUARE,
    _raise_on_lp,
    count_feasible_bases,
    faces_reference,
    find_interior_point_reference,
    frows,
    fvec,
    is_bounded_reference,
    nonempty_reference,
    optimal_face_vertices_reference,
    zero_set_reference,
)


def test_segment_vertices():
    assert enumerate_vertices(SEGMENT) == (fvec([0, 1]), fvec([1, 0]))


def test_cube_vertices():
    vs = enumerate_vertices(CUBE)
    assert len(vs) == 8
    assert all(all(c in (0, 1) for c in v) for v in vs)


def test_triangle_vertices():
    tri = Polytope(frows([1, 1], [-1, 0], [0, -1]), fvec([2, 0, 0]))
    assert enumerate_vertices(tri) == (fvec([0, 0]), fvec([0, 2]), fvec([2, 0]))


def test_degenerate_vertex_not_duplicated():
    # The corner (1, 1) lies on three constraint planes; it must appear once.
    p = Polytope(frows([1, 0], [0, 1], [1, 1]), fvec([1, 1, 2]))
    vs = enumerate_vertices(p)
    assert vs == (fvec([0, 0]), fvec([0, 1]), fvec([1, 0]), fvec([1, 1]))


def test_empty_region_has_no_vertices():
    empty = Polytope(frows([1, 1]), fvec([-1]))
    assert enumerate_vertices(empty) == ()
    assert not nonempty(empty)


def test_nonempty_on_fixtures():
    assert nonempty(SEGMENT)
    assert nonempty(CUBE)


def test_contains():
    assert contains(SQUARE, fvec([Fraction(1, 2), Fraction(1, 2)]))
    assert contains(SQUARE, fvec([1, 1]))
    assert not contains(SQUARE, fvec([1, 2]))
    assert not contains(SQUARE, fvec([-1, 0]))


def test_zero_set():
    # Columns 0 and 1 are x1 and x2, columns 2 to 4 the rows.  The corner
    # (1, 1) of this square lies on all three rows; (1, 0) on the first row
    # and on x2 = 0, and the point outside has no answer.
    p = Polytope(frows([1, 0], [0, 1], [1, 1]), fvec([1, 1, 2]))
    assert zero_set(p, fvec([1, 1])) == {2, 3, 4}
    assert zero_set(p, fvec([1, 0])) == {1, 2}
    assert zero_set(p, fvec([Fraction(1, 2), 0])) == {1}
    assert zero_set(p, fvec([1, 2])) is None
    assert zero_set(p, fvec([1])) is None
    # Fractional rows and points: x1/2 + x2/3 <= 5/6 and 3x1/4 <= 1/2 are
    # both tight at (2/3, 3/2), and (1, 0) violates the second.
    q = Polytope(frows(["1/2", "1/3"], ["3/4", 0]), fvec(["5/6", "1/2"]))
    assert zero_set(q, fvec(["2/3", "3/2"])) == {2, 3}
    assert zero_set(q, fvec(["1/3", "1/2"])) == set()
    assert zero_set(q, fvec([0, "5/2"])) == {0, 2}
    assert zero_set(q, fvec([1, 0])) is None


def test_interior_point_is_strict():
    x = find_interior_point(SQUARE)
    assert x is not None
    for row, rhs in zip(SQUARE.a, SQUARE.b):
        assert dot(row, x) < rhs
    assert all(c > 0 for c in x)


def test_interior_empty_for_flat_region():
    # x1 + x2 == 1 carved out of the nonnegative quadrant: no interior.
    flat = Polytope(frows([1, 1], [-1, -1]), fvec([1, -1]))
    assert nonempty(flat)
    assert find_interior_point(flat) is None
    assert flat.interior_point is None


def test_interior_empty_for_empty_region():
    empty = Polytope(frows([1, 1]), fvec([-1]))
    assert empty.interior_point is None


def test_is_bounded():
    assert is_bounded(SEGMENT)
    assert is_bounded(CUBE)
    assert not is_bounded(Polytope(frows([1, -1]), fvec([0])))
    # Empty regions count as bounded: there is nothing to escape with.
    assert is_bounded(Polytope(frows([1, 1]), fvec([-1])))


def test_optimal_face_vertices_cube_edge():
    # Maximizing x1 + x2 over the unit cube selects the edge x1 = x2 = 1.
    face = optimal_face_vertices(CUBE, fvec([1, 1, 0]))
    assert face == (fvec([1, 1, 0]), fvec([1, 1, 1]))


def test_optimal_face_vertices_single_corner():
    face = optimal_face_vertices(SQUARE, fvec([1, 2]))
    assert face == (fvec([1, 1]),)


def test_optimal_face_rejects_an_objective_of_the_wrong_length():
    # zip cut (1,) short, so it answered ((4, 0),), and the third entry of
    # (0, 0, 1) multiplied each vertex key's denominator, so it answered
    # every vertex.  A point of the wrong length is still just not inside.
    p = Polytope(frows([1, 1]), fvec([4]))
    for c in (fvec([1]), fvec([0, 0, 1])):
        with pytest.raises(ValueError, match=f"c has {len(c)} entries and the region 2 columns"):
            optimal_face_vertices(p, c)
    assert not contains(p, fvec([1]))
    assert not contains(p, fvec([1, 1, 1]))


def test_optimal_face_raises_on_empty_region():
    empty = Polytope(frows([1, 1]), fvec([-1]))
    with pytest.raises(InfeasibleRegion):
        optimal_face_vertices(empty, fvec([1, 0]))


def test_optimal_face_raises_on_unbounded_objective():
    half = Polytope(frows([1, -1]), fvec([0]))
    with pytest.raises(UnboundedObjective):
        optimal_face_vertices(half, fvec([1, 1]))


def test_face_lattice_of_segment():
    assert face_vertex_sets(SEGMENT) == (
        (fvec([0, 1]),),
        (fvec([1, 0]),),
        (fvec([0, 1]), fvec([1, 0])),
    )


def test_face_lattice_of_square():
    faces = face_vertex_sets(SQUARE)
    assert len(faces) == 9
    by_size = [len(f) for f in faces]
    assert by_size.count(1) == 4 and by_size.count(2) == 4 and by_size.count(4) == 1
    assert faces[-1] == enumerate_vertices(SQUARE)


def test_face_lattice_of_cube():
    faces = face_vertex_sets(CUBE)
    # 8 corners, 12 edges, 6 square facets, and the cube itself.
    by_size = [len(f) for f in faces]
    assert [by_size.count(n) for n in (1, 2, 4, 8)] == [8, 12, 6, 1]
    assert len(faces) == 27


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(frows([1, 2], [3, 4]), fvec([1]))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def polytopes(draw, max_rows=4, max_cols=3):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    a = frows(*[[draw(small_fracs) for _ in range(n)] for _ in range(m)])
    b = fvec([draw(st.integers(0, 4)) for _ in range(m)])
    return Polytope(a, b)


@st.composite
def degenerate_polytopes(draw, max_rows=4, max_cols=3):
    """Fractional rows, zero leading entries, zero right-hand sides, and
    often a row that is the sum of two others with the summed bound: it is
    tight wherever both are, so several bases give one vertex."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entries = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=9)
    )
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    rhs = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-1, max_value=5, max_denominator=7)
    )
    b = [draw(rhs) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        a.append([x + y for x, y in zip(a[i], a[j])])
        b.append(b[i] + b[j])
    return Polytope(frows(*a), fvec(b))


# b_1 < 0: phase 1 leaves the search a dictionary over d = -4, and it meets
# the vertex (1/2, 0) at two bases, over d = -4 and d = -2.
NEGATIVE_D = Polytope(frows([-2, -2], [2, 0], [0, -2]), fvec([-1, 1, 0]))
# b >= 0, row 3 = row 1 + row 2: the vertex (3/2, 0) is met over d = 8 and 2.
SHARED_FRACTIONAL = Polytope(frows([2, -1], [2, 3], [4, 2]), fvec([3, 3, 6]))


@settings(deadline=None, max_examples=150)
@given(degenerate_polytopes())
@example(NEGATIVE_D)
@example(SHARED_FRACTIONAL)
def test_vertices_match_fraction_reference(p):
    assert enumerate_vertices(p) == tuple(sorted(verify.vertices(p.a, p.b)))
    assert_search_zero_sets(p)


def assert_search_zero_sets(p):
    # The zero set the search read off a dictionary is the one of the point,
    # and the vertices are distinct and sorted.
    vertices = p.vertices
    assert all(u < v for u, v in zip(vertices, vertices[1:]))
    assert len(p.zero_sets) == len(vertices)
    for v, zeros in zip(vertices, p.zero_sets):
        assert zeros == zero_set(p, v), v


def test_vertex_keys_are_primitive_over_a_positive_d():
    # Each vertex x / d is keyed (x, d) over gcd(x, d) with d > 0 however
    # the bases that meet it scale it, so each vertex is kept once.
    assert NEGATIVE_D.start[2] < 0
    assert NEGATIVE_D.walk[0] == ((0, 1, 2), (1, 0, 2))
    assert NEGATIVE_D.vertices == (fvec([0, "1/2"]), fvec(["1/2", 0]))
    assert SHARED_FRACTIONAL.walk[0] == ((0, 0, 1), (0, 1, 1), (3, 0, 2))
    assert SHARED_FRACTIONAL.vertices == (fvec([0, 0]), fvec([0, 1]), fvec(["3/2", 0]))


@settings(deadline=None, max_examples=150)
@given(degenerate_polytopes(), st.lists(small_fracs, min_size=3, max_size=3))
def test_tight_sets_and_faces_match_fraction_reference(p, shift):
    # Integer zero sets against one Fraction dot product per row, at the
    # vertices, at the centroids of the faces and at those points moved by
    # a shift that may leave the region; and the faces built from the
    # vertices' zero sets against the facets built from dot products.
    faces = face_vertex_sets(p)
    assert faces == faces_reference(p.vertices, p.a, p.b)
    points = [tuple(sum(column) / Fraction(len(face)) for column in zip(*face)) for face in faces]
    points += [tuple(c + s for c, s in zip(x, shift)) for x in points]
    for x in points:
        assert zero_set(p, x) == zero_set_reference(p, x), x


@settings(deadline=None, max_examples=60)
@given(polytopes())
def test_vertices_are_members(p):
    for v in enumerate_vertices(p):
        assert contains(p, v)


@settings(deadline=None, max_examples=100)
@given(st.one_of(polytopes(), degenerate_polytopes()))
def test_interior_point_when_found_is_strictly_inside(p):
    # The point is read off the phase 1 of the strict system, not the LP's
    # optimal margin: it must exist exactly when the LP finds a positive
    # margin, and pass the step-3 check.
    x = find_interior_point(p)
    assert (x is None) == (find_interior_point_reference(p) is None)
    assert check_step(3, x is not None, x, [], (0,) * p.dim, p.a, p.b) is None
    if x is None:
        return
    assert all(c > 0 for c in x)
    for row, rhs in zip(p.a, p.b):
        assert dot(row, x) < rhs


@settings(deadline=None, max_examples=40)
@given(polytopes(max_rows=3, max_cols=3))
def test_face_lattice_covers_vertices(p):
    vs = enumerate_vertices(p)
    if not vs or not is_bounded(p):
        return
    faces = face_vertex_sets(p)
    assert faces[-1] == vs
    assert {f[0] for f in faces if len(f) == 1} == set(vs)
    assert all(set(f) <= set(vs) for f in faces)


@settings(deadline=None, max_examples=40)
@given(polytopes(max_rows=3, max_cols=2))
def test_optimal_face_value_dominates_all_vertices(p):
    vs = enumerate_vertices(p)
    if not vs or not is_bounded(p):
        return
    c = fvec([1, -1])[: p.dim]
    face = optimal_face_vertices(p, c)
    best = max(dot(c, v) for v in vs)
    assert face
    assert all(dot(c, v) == best for v in face)
    assert set(face) == {v for v in vs if dot(c, v) == best}


@st.composite
def regions_of_every_kind(draw, max_rows=4, max_cols=3):
    """Empty, unbounded and bounded regions, each built on purpose, plus
    free draws with right-hand sides of either sign.

    - empty: one row made nonnegative with a negative right-hand side;
    - unbounded: b >= 0 keeps the origin feasible and a nonpositive
      column j makes the unit vector e_j a recession direction;
    - bounded: b >= 0 and a cap row sum(x) <= c.
    """
    kind = draw(st.sampled_from(["free", "empty", "unbounded", "bounded"]))
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    a = [[draw(small_fracs) for _ in range(n)] for _ in range(m)]
    b = [Fraction(draw(st.integers(-3, 4))) for _ in range(m)]
    if kind != "free":
        b = [abs(x) for x in b]
    if kind == "empty":
        i = draw(st.integers(0, m - 1))
        a[i] = [abs(x) for x in a[i]]
        b[i] = -Fraction(draw(st.integers(1, 3)))
    elif kind == "unbounded":
        j = draw(st.integers(0, n - 1))
        for row in a:
            row[j] = -abs(row[j])
    elif kind == "bounded":
        a.append([Fraction(1)] * n)
        b.append(Fraction(draw(st.integers(0, 4))))
    return kind, Polytope(frows(*a), fvec(b))


def _face_or_error(find, p, c):
    try:
        return find(p, c)
    except (InfeasibleRegion, UnboundedObjective) as exc:
        return type(exc)


@st.composite
def regions_with_redundant_rows(draw):
    """``regions_of_every_kind`` up to 6 rows x 4 columns, often with one
    row repeated or the sum of two rows appended with the summed bound:
    such a row is tight wherever its sources are, so vertices degenerate."""
    kind, p = draw(regions_of_every_kind(max_rows=4, max_cols=4))
    a, b = list(p.a), list(p.b)
    extra = draw(st.sampled_from(["none", "repeat", "sum"]))
    if extra == "repeat":
        i = draw(st.integers(0, len(a) - 1))
        a.append(a[i])
        b.append(b[i])
    elif extra == "sum" and len(a) >= 2:
        i, j = draw(st.permutations(range(len(a))))[:2]
        a.append(tuple(x + y for x, y in zip(a[i], a[j])))
        b.append(b[i] + b[j])
    return kind, Polytope(tuple(a), tuple(b))


@st.composite
def pair_row_regions(draw):
    """Rows, in drawn order, of ``degenerate_cube(k)`` and ``ordered_cone(k)``
    together for k <= 4: unit, sum and difference rows that tie for the
    minimum ratio at many bases of one vertex, so the search's tie-break
    decides which bases it visits.  Up to 8 rows for k <= 3 and 6 for k = 4
    keep the all-bases reference to at most C(11, 8) = 165 and C(10, 6) = 210
    bases."""
    k = draw(st.integers(2, 4))
    cube, cone = degenerate_cube(k), ordered_cone(k)
    rows = list(zip(cube.a + cone.a, cube.b + cone.b))
    most = 8 if k < 4 else 6
    chosen = draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=most, unique=True))
    a, b = zip(*(rows[i] for i in chosen))
    return "pair-rows", Polytope(a, b)


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(regions_of_every_kind(), regions_with_redundant_rows(), pair_row_regions()),
    st.data(),
)
def test_optimal_face_matches_lp_reference(drawn, data):
    # On a fresh region optimal_face climbs to the face and searches it
    # alone; on a region whose vertex search has run it reads the face off
    # the vertex list, and an unbounded objective off the rays the search
    # meets.  The reference solves max c . x on every region.  Faces, zero
    # sets and errors must agree.  Repeated, summed and pair rows give
    # degenerate vertices with rays leaving them.
    _, p = drawn
    c = fvec(data.draw(st.lists(st.integers(-3, 3), min_size=p.dim, max_size=p.dim)))
    fresh = Polytope(p.a, p.b)
    climbed = _face_or_error(polytope.optimal_face, fresh, c)
    assert not fresh.walked
    p.walk
    assert _face_or_error(polytope.optimal_face, p, c) == climbed
    expected = _face_or_error(optimal_face_vertices_reference, p, c)
    if not isinstance(climbed, type):
        assert climbed == (expected, tuple(zero_set(p, v) for v in expected))
    else:
        assert climbed == expected


@pytest.mark.parametrize(
    "p, bounded, faces",
    [
        (
            Polytope(CUBE.a, CUBE.b),
            True,
            {(1, 1, 1): (fvec([1, 1, 1]),), (1, -1, 0): (fvec([1, 0, 0]), fvec([1, 0, 1]))},
        ),
        # 0 <= x2 <= min(x1, 1): the ray (1, 0) leaves the degenerate origin.
        (
            Polytope(frows([-1, 1], [0, 1]), fvec([0, 1])),
            False,
            {
                (-1, 0): (fvec([0, 0]),),
                (-1, 1): (fvec([0, 0]), fvec([1, 1])),
                (1, 0): UnboundedObjective,
            },
        ),
        # 0 <= x1 <= ... <= x5: c = 0 is optimal on every vertex, and the
        # origin is the only one.
        (
            ordered_cone(5),
            False,
            {
                (0, 0, 0, 0, 0): (fvec([0] * 5),),
                (-1, -1, -1, -1, -1): (fvec([0] * 5),),
                (0, 0, 0, 0, 1): UnboundedObjective,
            },
        ),
    ],
    ids=["cube", "ray-from-degenerate-vertex", "ordered-cone-5"],
)
def test_nonempty_runs_no_phase_1_when_b_is_nonnegative(monkeypatch, p, bounded, faces):
    # With b >= 0 the slack basis is feasible, so emptiness is known with
    # no phase 1 and no LP.  Boundedness and each optimal face are climbs of
    # Bland's rule from that basis, which build no vertex search.  Each
    # region is fresh, so no fact is cached yet.
    monkeypatch.setattr(linalg, "bland", _raise_on_lp)
    monkeypatch.setattr(polytope, "bland", _raise_on_lp)
    monkeypatch.setattr(linalg, "phase1", _raise_on_lp)
    assert nonempty(p)
    monkeypatch.undo()
    monkeypatch.setattr(polytope, "_search", _raise_on_search)
    assert is_bounded(p) is bounded
    for c, expected in faces.items():
        assert _face_or_error(optimal_face_vertices, p, fvec(c)) == expected


def _raise_on_search(*args, **kwargs):
    raise AssertionError("the whole vertex search was run")


@pytest.mark.parametrize(
    "p, c, expected",
    [
        # Unbounded region x1 + x2 >= 1 on which c is bounded: the LP decides
        # the value, and both vertices attain it.
        (Polytope(frows([-1, -1]), fvec([-1])), fvec([-1, -1]), (fvec([0, 1]), fvec([1, 0]))),
        (Polytope(frows([-1, -1]), fvec([-1])), fvec([1, -1]), UnboundedObjective),
        (Polytope(frows([1, 1]), fvec([-1])), fvec([1, 0]), InfeasibleRegion),
        # The cone x2 <= x1 / 2, its row repeated twice over: every basis
        # sits at the degenerate origin, and the ray (2, 1) is met only with
        # x1 or x2 basic at value 0.
        (Polytope(frows([-1, 2], [-2, 4]), fvec([0, 0])), fvec([0, 1]), UnboundedObjective),
    ],
    ids=[
        "unbounded-region-bounded-objective",
        "unbounded-objective",
        "empty-region",
        "ray-with-degenerate-basic-column",
    ],
)
def test_optimal_face_pinned_cases_match_lp_reference(p, c, expected):
    assert _face_or_error(optimal_face_vertices_reference, p, c) == expected
    assert _face_or_error(optimal_face_vertices, p, c) == expected


# The feasible-basis search against the all-bases reference.


@settings(deadline=None, max_examples=200)
@given(regions_with_redundant_rows())
def test_one_status_lp_matches_two_lp_reference(drawn):
    # Phase 1 and the rays of the vertex search against a phase-1 LP and the
    # LP max sum(x).  Repeated and summed rows give tied ratios in phase 1,
    # and an auxiliary column that ends basic at zero and is pivoted out.
    kind, p = drawn
    expected = (nonempty_reference(p), is_bounded_reference(p))
    if kind != "free":
        assert expected == {
            "empty": (False, True),
            "unbounded": (True, False),
            "bounded": (True, True),
        }[kind]
    assert (nonempty(p), is_bounded(p)) == expected


@settings(deadline=None, max_examples=150)
@given(st.one_of(regions_with_redundant_rows(), pair_row_regions()))
def test_vertex_search_matches_all_bases_reference(drawn):
    # Free draws cover nonempty regions whose slack basis is infeasible
    # (some b_i < 0), where the search starts from another basis; pair rows
    # cover vertices where many bases tie.
    _, p = drawn
    assert enumerate_vertices(p) == tuple(sorted(verify.vertices(p.a, p.b)))
    assert_search_zero_sets(p)


@pytest.mark.parametrize(
    "p, expected",
    [
        # 1 <= x1 + x2 <= 2: nonempty, but b has a negative entry, so the
        # slack basis is infeasible.
        (
            Polytope(frows([-1, -1], [1, 1]), fvec([-1, 2])),
            (fvec([0, 1]), fvec([0, 2]), fvec([1, 0]), fvec([2, 0])),
        ),
        # A pyramid over the square [0, 2]^2 whose apex (1, 1, 1) lies on
        # all four slanted rows: four bases, one vertex.
        (
            Polytope(
                frows([-1, 0, 1], [0, -1, 1], [1, 0, 1], [0, 1, 1]), fvec([0, 0, 2, 2])
            ),
            (
                fvec([0, 0, 0]),
                fvec([0, 2, 0]),
                fvec([1, 1, 1]),
                fvec([2, 0, 0]),
                fvec([2, 2, 0]),
            ),
        ),
        # 0 <= x2 <= min(x1, 1): the origin lies on three planes in the
        # plane, and the ray (1, 0) leaves it.
        (Polytope(frows([-1, 1], [0, 1]), fvec([0, 1])), (fvec([0, 0]), fvec([1, 1]))),
        # Many bases at each vertex: three rows per pair i, j meet where
        # x_i = x_j = 1 on the cube, and every row meets at the cone's origin.
        (degenerate_cube(4), tuple(fvec(v) for v in product((0, 1), repeat=4))),
        (ordered_cone(4), (fvec([0] * 4),)),
    ],
    ids=[
        "slack-basis-infeasible",
        "apex-with-four-tight-rows",
        "ray-from-degenerate-vertex",
        "degenerate-cube-4",
        "ordered-cone-4",
    ],
)
def test_vertex_search_pinned_cases(p, expected):
    assert tuple(sorted(verify.vertices(p.a, p.b))) == expected
    assert enumerate_vertices(p) == expected


@pytest.mark.parametrize(
    "p, rays",
    [
        # random_problem(Random(1001), ensure_bounded=False): x1 <= 3 and
        # 3 x1 - 2 x2 <= 5.  The search meets the one direction (0, 1) as
        # x2 entering and as the slack of the second row entering, (0, 1/2).
        (Polytope(frows([1, 0], [3, -2]), fvec([3, 5])), {(0, 1)}),
        # random_problem(Random(1090), ensure_bounded=False): five rays met,
        # two of them along (2, 1, 0).
        (
            Polytope(frows([-1, 2, -2], [-3, 2, 1]), fvec([0, 3])),
            {(1, 0, 0), (1, 0, 3), (2, 1, 0), (6, 7, 4)},
        ),
    ],
    ids=["two-scales-of-one-ray", "three-dimensional"],
)
def test_each_ray_direction_is_kept_once(p, rays):
    # Each x-part is primitive, so two scales of one direction are one key.
    assert p.walk[2] == rays


@pytest.fixture
def pivots(monkeypatch):
    """A one-item list that counts the calls of ``linalg.pivot``: the
    elimination behind ``Polytope.start``, its phase 1 and the search."""
    count = [0]
    original = linalg.pivot

    def counted(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(linalg, "pivot", counted)
    monkeypatch.setattr(polytope, "pivot", counted)
    return count


def test_vertex_search_pivots_grow_with_feasible_bases(pivots):
    # k = 6, m = 10: brute force eliminates all C(16, 10) = 8008 bases.  The
    # slack dictionary takes no pivot (b >= 0); each other feasible basis
    # costs one pivot of the search.
    p = ladder_region(6)
    feasible = count_feasible_bases(p)
    assert len(enumerate_vertices(p)) > 1
    assert pivots[0] <= feasible
    assert feasible < 8008 // 50


def test_start_takes_no_pivot_when_b_is_nonnegative(pivots):
    # The slack basis of [A | I | b], put over one denominator, is already a
    # feasible dictionary; rational rows do not need eliminating.
    p = Polytope(frows(["1/2", "1/3"], [2, "3/4"]), fvec(["5/6", 1]))
    basis, rows, d = p.start
    assert pivots[0] == 0
    assert (basis, d) == ([2, 3], 24)
    assert rows == [[12, 8, 24, 0, 20], [48, 18, 0, 24, 24]]


def test_empty_region_is_proved_empty_in_few_pivots(pivots):
    # The k = 6 ladder region has rows in [0, 3] and b <= 9 and is bounded,
    # so sum(x) <= 54 on it, and adding -sum(x) <= -1000 empties it.  The
    # phase 1 behind Polytope.start proves that; a scan for a feasible basis
    # would eliminate all C(17, 11) = 12376 bases.
    ladder = ladder_region(6)
    p = Polytope(ladder.a + ((Fraction(-1),) * 6,), ladder.b + (Fraction(-1000),))
    m = len(p.a)
    assert enumerate_vertices(p) == ()
    assert not nonempty(p)
    assert pivots[0] < 10 * (m + 1)


def test_degenerate_cube_takes_one_pivot_per_vertex(pivots):
    # k = 6: 6 unit rows and 15 pair rows.  Each vertex with x_i = x_j = 1
    # lies on three rows per pair, so it has many bases, and a search that
    # pivots on every tied row visits 32,963 of them.  Bland's edges reach
    # each of the 64 vertices by 63 pivots from the slack dictionary, which
    # takes none.
    p = degenerate_cube(6)
    assert enumerate_vertices(p) == tuple(fvec(v) for v in product((0, 1), repeat=6))
    assert pivots[0] < 200


@pytest.mark.parametrize(
    "query, arg, message",
    [
        (contains, (Fraction(1, 2), 0.5), r"x\[1\] is a float"),
        (zero_set, (1.0, 0), r"x\[0\] is a float"),
        (optimal_face_vertices, (1.0, Fraction(1, 2)), r"c\[0\] is a float"),
    ],
)
def test_queries_refuse_a_float_naming_the_argument(query, arg, message):
    p = Polytope(((1, 1),), (4,))
    with pytest.raises(TypeError, match=message):
        query(p, arg)
    # Ints and Fractions pass.
    assert query(p, (0, 4)) == {
        contains: True,
        zero_set: frozenset({0, 2}),
        optimal_face_vertices: (fvec([0, 4]),),
    }[query]
