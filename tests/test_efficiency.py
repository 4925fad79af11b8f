import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objred import efficiency, simplex
from objred.efficiency import (
    ObjectiveStack,
    efficient_at,
    efficient_point_outside,
    efficient_vertices,
    equalizing_weights,
    find_cone_point,
    is_efficient,
)
from objred.engine import classify, combination_multipliers, reduce_objectives
from objred.errors import InfeasibleInput, UnboundedRegion
from objred.instances import ladder_problem, ladder_region, random_problem
from objred.linalg import dot, mat_vec
from objred.polytope import Polytope, enumerate_vertices, face_vertex_sets, is_bounded, zero_set
from objred.verify import check_step

from helpers import (
    CUBE,
    SEGMENT,
    SQUARE,
    _raise_on_lp,
    box5_4obj,
    combination_multipliers_reference,
    cube_3obj,
    dominance_oracle,
    equalizing_weights_reference,
    find_cone_point_reference,
    frows,
    fvec,
    is_efficient_reference,
    segment_3obj,
    segment_4obj,
)


def test_stack_validation():
    with pytest.raises(ValueError):
        ObjectiveStack(())
    with pytest.raises(ValueError):
        ObjectiveStack((fvec([1, 2]), fvec([1])))
    with pytest.raises(IndexError):
        ObjectiveStack(frows([1, 2])).drop(1)


def test_stack_width_must_match_region():
    # A wider stack was cut to the region's first columns, and a narrower
    # one ran off the end of its rows.
    for rows in (frows([1, 0, 1], [0, 1, 1]), frows([1], [2])):
        f = ObjectiveStack(rows)
        with pytest.raises(ValueError):
            is_efficient(SQUARE, f, fvec([1, 1]))
        with pytest.raises(ValueError):
            efficient_vertices(SQUARE, f)


def test_stack_values_and_drop():
    f = ObjectiveStack(frows([1, 0], [0, 2], [1, 1]))
    assert f.count == 3 and f.dim == 2
    assert f.values(fvec([1, 2])) == fvec([1, 4, 3])
    assert f.drop(1).rows == frows([1, 0], [1, 1])


def test_combination_and_drop_refuse_an_index_that_is_not_a_row():
    # Row 2 of (1, 0), (0, 1), (-1, -1) is no combination of the others.
    # Unchecked, combination(-1) would slice its way to multipliers (0, 0)
    # and keep them, True would stand for row 1, and drop(1.0) would fail
    # only after building the kept stack.
    f = ObjectiveStack(frows([1, 0], [0, 1], [-1, -1]))
    for index, error, message in (
        (1.0, TypeError, "objective index is a float, not an int"),
        (Fraction(1), TypeError, "objective index is a Fraction, not an int"),
        (True, TypeError, "objective index is a bool, not an int"),
        (-1, IndexError, r"objective index -1 out of range 0\.\.2"),
        (f.count, IndexError, r"objective index 3 out of range 0\.\.2"),
    ):
        for method in (f.combination, f.drop):
            with pytest.raises(error, match=message):
                method(index)
    assert f.combinations == {}
    assert f.combination(2)[0] is None


def test_cone_empty_for_balanced_segment_stack():
    assert find_cone_point(segment_3obj().stack().rows) is None
    assert find_cone_point(segment_4obj().stack().rows) is None


def test_cone_point_found_after_dropping_last_objective():
    reduced = segment_3obj().stack().drop(2)
    assert find_cone_point(reduced.rows) is not None


def test_cone_point_found_for_cube_stack():
    assert find_cone_point(cube_3obj().stack().rows) is not None


def test_cone_point_is_a_certificate():
    c = cube_3obj().stack().rows
    x = find_cone_point(c)
    image = mat_vec(c, x)
    assert all(a >= 0 for a in image)
    assert any(a > 0 for a in image)


def test_efficiency_on_segment():
    f = ObjectiveStack(frows([1, 1], [1, 0]))
    assert is_efficient(SEGMENT, f, fvec([1, 0]))
    assert not is_efficient(SEGMENT, f, fvec([0, 1]))
    assert is_efficient(SEGMENT, f, fvec([Fraction(1, 2), Fraction(1, 2)])) is False


def test_efficiency_rejects_outside_point():
    f = ObjectiveStack(frows([1, 1], [1, 0]))
    with pytest.raises(InfeasibleInput):
        is_efficient(SEGMENT, f, fvec([1, 1]))


def test_efficiency_rejects_a_point_of_the_wrong_length():
    # (1, 1, 1) was reported as a point outside the region.
    p = Polytope(frows([1, 1]), fvec([4]))
    f = ObjectiveStack(frows([1, 0], [0, 1]))
    for x0 in (fvec([1]), fvec([1, 1, 1])):
        with pytest.raises(ValueError, match=f"x0 has {len(x0)} entries and the region 2 columns"):
            is_efficient(p, f, x0)


def test_efficiency_refuses_a_float_point_naming_it():
    f = ObjectiveStack(frows([1, 1], [1, 0]))
    with pytest.raises(TypeError, match=r"x0\[1\] is a float"):
        is_efficient(SEGMENT, f, (1, 0.0))
    assert is_efficient(SEGMENT, f, (1, 0))  # ints pass


def test_unbounded_domination_means_inefficient():
    # Half-plane x1 <= x2; pushing x2 up improves the second objective forever.
    half = __import__("objred").Polytope(frows([1, -1]), fvec([0]))
    f = ObjectiveStack(frows([1, 0], [0, 1]))
    assert not is_efficient(half, f, fvec([0, 0]))


def test_cube_efficient_vertices_under_reduced_stack():
    reduced = cube_3obj().stack().drop(2)
    assert efficient_vertices(CUBE, reduced) == (fvec([0, 1, 1]), fvec([1, 1, 1]))


def test_cube_face_vertices_split_under_reduced_stack():
    reduced = cube_3obj().stack().drop(2)
    assert not is_efficient(CUBE, reduced, fvec([1, 1, 0]))
    assert is_efficient(CUBE, reduced, fvec([1, 1, 1]))


def test_whole_segment_efficient_under_opposing_objectives():
    f = segment_3obj().stack()
    assert efficient_vertices(SEGMENT, f) == (fvec([0, 1]), fvec([1, 0]))


def test_no_efficient_point_escapes_on_cube():
    full = cube_3obj().stack()
    assert efficient_point_outside(CUBE, full, full.drop(2)) is None


def _recording_tests(monkeypatch):
    """A list that collects (stack, zero set) for each call of
    ``efficient_at`` made inside ``efficiency``."""
    tested = []
    test = efficiency.efficient_at

    def recorded(p, f, zeros):
        tested.append((f, zeros))
        return test(p, f, zeros)

    monkeypatch.setattr(efficiency, "efficient_at", recorded)
    return tested


def test_vertices_and_faces_are_tested_on_search_zero_sets(monkeypatch):
    # Every vertex and every face of the cube is tested on the zero sets the
    # vertex search recorded, so no point is scanned and no centroid built.
    def scanned(*args):
        raise AssertionError("a zero set was scanned")

    monkeypatch.setattr(efficiency, "zero_set", scanned)
    tested = _recording_tests(monkeypatch)
    region = Polytope(CUBE.a, CUBE.b)
    full = cube_3obj().stack()
    assert efficient_vertices(region, full) == (fvec([0, 1, 1]), fvec([1, 1, 1]))
    assert efficient_point_outside(region, full, full.drop(2)) is None
    # The edge between them, x2 = x3 = 1, was tested on its own zero set.
    assert {zeros for _, zeros in tested} - set(region.zero_sets) == {frozenset({4, 5})}


@pytest.mark.parametrize(
    "region, stack",
    [
        (CUBE, cube_3obj().stack()),
        # The last objective is the sum of the others, so no point escapes
        # and the sweep tests faces across the whole lattice.
        (ladder_region(5, 0), ObjectiveStack(frows([1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [1, 1, 1, 0, 0]))),
    ],
    ids=["cube", "ladder-5"],
)
def test_search_lattice_and_sweep_hash_and_compare_no_fraction(monkeypatch, region, stack):
    # Vertices are integer keys and faces index tuples until a Fraction is
    # returned, so no vertex tuple is hashed, compared or sorted.
    region = Polytope(region.a, region.b)
    inner = stack.drop(stack.count - 1)
    stack.row_set, inner.row_set
    tested = _recording_tests(monkeypatch)
    counts = collections.Counter()
    for name in ("__hash__", "__eq__", "__lt__"):
        original = getattr(Fraction, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    region.vertices
    faces = face_vertex_sets(region)
    escaped = efficient_point_outside(region, stack, inner)
    monkeypatch.undo()
    assert counts == {}
    assert escaped is None and len(faces) == {3: 27, 5: 279}[region.dim]
    assert len({(f.row_set, zeros) for f, zeros in tested}) > len(region.vertices)


def test_escaping_efficient_vertex_found():
    region = Polytope(frows([2, 2, -2], [1, 1, 1]), fvec([0, 9]))
    full = ObjectiveStack(frows([-3, -1, -1], [1, 1, 3], [1, -1, -2]))
    reduced = full.drop(2)
    out = efficient_point_outside(region, full, reduced)
    assert out == fvec(["9/2", 0, "9/2"])
    assert is_efficient(region, full, out)
    assert not is_efficient(region, reduced, out)


def test_face_sweep_raises_on_an_unbounded_region():
    # On the strip 0 <= x2 <= 1, (1, 1) is efficient for the outer stack and
    # not for the inner one, yet no vertex or bounded face shows it: the
    # sweep returned None here.
    region = Polytope(frows([0, 1]), fvec([1]))
    outer = ObjectiveStack(frows([1, 0], [-1, 0], [0, 1]))
    inner = ObjectiveStack(frows([-1, 0], [0, 1]))
    assert is_efficient(region, outer, fvec([1, 1]))
    assert not is_efficient(region, inner, fvec([1, 1]))
    with pytest.raises(UnboundedRegion, match="needs a bounded region"):
        efficient_point_outside(region, outer, inner)


def test_escaping_efficient_point_inside_an_edge():
    # Both endpoints of the edge x3 = 0, x1 + x2 = 1 stay efficient without
    # the third objective, but the edge interior becomes dominated, so the
    # witness has to be a face representative rather than a vertex.
    region = Polytope(frows([1, 1, 1]), fvec([1]))
    full = ObjectiveStack(frows([1, 0, "3/5"], [0, 1, "3/5"], [0, 0, -1]))
    out = efficient_point_outside(region, full, full.drop(2))
    assert out == fvec(["1/2", "1/2", 0])
    assert out not in enumerate_vertices(region)


@pytest.mark.parametrize(
    "a, b, objectives, vertex, expected",
    [
        # With its denominators dropped, the objective (1/3, 1) would enter
        # as (1, 1), and the answer would turn to False.
        (
            frows(["1/2", 1], [0, 3], [1, 1]),
            fvec([3, 1, 4]),
            frows([0, -1], ["1/3", 1]),
            fvec(["11/3", "1/3"]),
            True,
        ),
        # Likewise the tight row (-1/2, 1) would enter as (-1, 1), and the
        # answer would turn to True.
        (
            frows([-1, 1], ["-1/2", 1], [1, 1]),
            fvec([1, 0, 1]),
            frows([-3, "3/2"], ["-1/2", 1]),
            fvec(["2/3", "1/3"]),
            False,
        ),
    ],
    ids=["fractional-objective", "fractional-tight-row"],
)
def test_efficiency_with_mixed_denominators(a, b, objectives, vertex, expected):
    # Each objective is scaled to integers by the LCM of its own
    # denominators, and the tight rows come from [A | b] over one common
    # denominator (``Polytope.frame``); the hypothesis property divides
    # whole rows by one number, which leaves such scaling faults mostly
    # unseen.
    p = Polytope(a, b)
    stack = ObjectiveStack(objectives)
    assert vertex in enumerate_vertices(p)
    assert is_efficient_reference(p, stack, vertex) == expected
    assert is_efficient(p, stack, vertex) == expected


@pytest.mark.parametrize(
    "make, expected_vertices, expected_outside",
    [
        (
            cube_3obj,
            (fvec([0, 1, 1]), fvec([1, 1, 1])),
            (None, fvec([0, 1, 1]), None),
        ),
        (
            box5_4obj,
            (fvec([0, 0, 1, 1, 1]), fvec([0, 1, 1, 1, 1]), fvec([1, 1, 1, 1, 1])),
            (None, None, fvec([0, 0, 1, 1, 1]), None),
        ),
    ],
    ids=["cube_3obj", "box5_4obj"],
)
def test_efficiency_solves_no_lp(monkeypatch, make, expected_vertices, expected_outside):
    # Vertices, faces and every efficiency answer come from integer pivots
    # on the region and on the normal-cone system, never from the simplex.
    # The pinned answers are the ones the LP-based test gave.
    problem = make()
    stack = problem.stack()
    monkeypatch.setattr(simplex, "solve", _raise_on_lp)
    region = problem.region()
    assert efficient_vertices(region, stack) == expected_vertices
    for i, expected in enumerate(expected_outside):
        assert efficient_point_outside(region, stack, stack.drop(i)) == expected


def test_equalizing_weights_found():
    f = ObjectiveStack(frows([1, 0], [0, 1]))
    w = equalizing_weights(f, (fvec([1, 0]), fvec([0, 1])))
    assert w == fvec([Fraction(1, 2), Fraction(1, 2)])


def test_equalizing_weights_for_segment_triple():
    f = ObjectiveStack(frows([1, 3], [2, 1], [3, 0]))
    w = equalizing_weights(f, (fvec([0, 1]), fvec([1, 0])))
    assert w == fvec(["1/2", "1/4", "1/4"])


def test_equalizing_weights_absent():
    f = ObjectiveStack(frows([1, 1], [1, 0]))
    assert equalizing_weights(f, (fvec([0, 1]), fvec([1, 0]))) is None


def test_equalizing_weights_single_point():
    f = ObjectiveStack(frows([1, 1], [1, 0]))
    w = equalizing_weights(f, (fvec([1, 0]),))
    assert w is not None and sum(w) == 1 and all(a > 0 for a in w)


def test_oracle_agreement_sweep():
    rng = random.Random(20260814)
    checked = 0
    for _ in range(25):
        problem = random_problem(rng)
        region = problem.region()
        stack = problem.stack()
        for v in enumerate_vertices(region):
            vs = enumerate_vertices(region)
            assert is_efficient(region, stack, v) == dominance_oracle(vs, stack, v)
            checked += 1
    assert checked >= 25


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def stacks(draw, max_rows=3, max_cols=3):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return frows(*[[draw(small_fracs) for _ in range(c)] for _ in range(r)])


@settings(deadline=None, max_examples=60)
@given(stacks())
def test_mirrored_stack_has_empty_cone(rows):
    mirrored = rows + tuple(tuple(-a for a in row) for row in rows)
    assert find_cone_point(mirrored) is None


@settings(deadline=None, max_examples=80)
@given(stacks(), st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]), min_size=3, max_size=3))
def test_steps_0_to_2_match_lp_reference(rows, weights):
    # Step 0's multipliers are the end point of the phase 1 that decides it,
    # which makes the LP's phase-1 pivots: they must be the LP's.  A step-1
    # or step-2 direction is the Farkas vector of the phase 1 that decides
    # the cone test, not the LP's optimum: the answer must be the LP's, and
    # the direction a certificate.  A mirrored stack has no cone point, and
    # a planted nonnegative combination of the rows has multipliers.
    mirrored = rows + tuple(tuple(-a for a in row) for row in rows)
    planted = rows + (tuple(sum(w * a for w, a in zip(weights, column)) for column in zip(*rows)),)
    for c in (rows, mirrored, planted):
        x = find_cone_point(c)
        assert (x is None) == (find_cone_point_reference(c) is None)
        assert check_step(1, x is not None, x, list(c[:-1]), c[-1], (), ()) is None
        if len(c) >= 2:
            stack = ObjectiveStack(c)
            assert combination_multipliers(stack) == combination_multipliers_reference(stack)


@settings(deadline=None, max_examples=60)
@given(stacks())
def test_cone_point_certificate_property(rows):
    x = find_cone_point(rows)
    if x is None:
        return
    image = mat_vec(rows, x)
    assert all(a >= 0 for a in image)
    assert any(a > 0 for a in image)


@st.composite
def capped_problems(draw):
    """A bounded region (a cap row sum(x) <= c closes it) and a stack."""
    k = draw(st.integers(2, 3))
    ints = st.integers(-3, 3)
    a = [[draw(ints) for _ in range(k)] for _ in range(draw(st.integers(1, 3)))]
    b = [draw(st.integers(0, 4)) for _ in a]
    objectives = [[draw(ints) for _ in range(k)] for _ in range(draw(st.integers(2, 4)))]
    return frows(*a, [1] * k), fvec(b + [draw(st.integers(1, 4))]), frows(*objectives)


@settings(deadline=None, max_examples=40)
@given(capped_problems(), st.data())
def test_efficiency_answers_do_not_leak_between_stacks(problem, data):
    # A region keeps is_efficient answers keyed by the set of stack rows and
    # the point's zero set.  A region that has already answered for a
    # row-permuted stack and for a reduced stack must still answer each
    # stack as a fresh one does.
    # The reduced stack with one row repeated has the reduced efficient set but
    # the full row count, so a table keyed by row count would fail here.
    a, b, rows = problem
    stack = ObjectiveStack(rows)
    order = data.draw(st.permutations(range(stack.count)))
    permuted = ObjectiveStack(tuple(rows[i] for i in order))
    reduced = stack.drop(data.draw(st.integers(0, stack.count - 1)))
    padded = ObjectiveStack(reduced.rows + reduced.rows[:1])
    warm = Polytope(a, b)
    vertices = enumerate_vertices(warm)
    centroid = tuple(sum(c) / len(vertices) for c in zip(*vertices))
    points = vertices + (centroid,)
    for x in points:
        is_efficient(warm, padded, x)
        is_efficient(warm, permuted, x)
        is_efficient(warm, reduced, x)
    for x in points:
        assert is_efficient(warm, stack, x) == is_efficient(Polytope(a, b), stack, x)
        assert is_efficient(warm, reduced, x) == is_efficient(Polytope(a, b), reduced, x)


@settings(deadline=None, max_examples=60)
@given(capped_problems(), st.data())
def test_equalizing_weights_match_lp_reference(problem, data):
    # The weights are the end point of a Stiemke system's phase 1, not the
    # LP's optimum: they must exist exactly when the LP finds some, and
    # pass the step-4 check over every vertex.  A stack of equal rows, or
    # of rows that tie on the vertices, always has weights.
    a, b, rows = problem
    vertices = enumerate_vertices(Polytope(a, b))
    if data.draw(st.booleans()):
        rows = rows[:1] * len(rows)
    f = ObjectiveStack(rows)
    w = equalizing_weights(f, vertices)
    assert (w is None) == (equalizing_weights_reference(f, vertices) is None)
    if w is not None:
        assert check_step(4, True, w, list(rows), rows[0], a, b) is None


@st.composite
def regions_and_stacks(draw):
    """A bounded or an unbounded region, possibly made degenerate, and a stack.

    - bounded: b >= 0 and a cap row sum(x) <= c;
    - unbounded: b >= 0 keeps the origin feasible, no cap row, and a
      nonpositive column j makes e_j a recession direction;
    - degenerate: a repeated row, or the sum of two rows with the sum of
      their right-hand sides, which is redundant and tight wherever both
      of its parts are;
    - fractional: one row and its b_i, or one objective, divided by 2 or 3,
      which changes neither the region nor the efficient set but makes the
      efficiency test scale rows and points to integers.
    """
    kind = draw(st.sampled_from(["bounded", "unbounded"]))
    k = draw(st.integers(2, 3))
    ints = st.integers(-3, 3)
    a = [[draw(ints) for _ in range(k)] for _ in range(draw(st.integers(1, 3)))]
    b = [draw(st.integers(0, 4)) for _ in a]
    if kind == "bounded":
        a.append([1] * k)
        b.append(draw(st.integers(1, 4)))
    else:
        j = draw(st.integers(0, k - 1))
        for row in a:
            row[j] = -abs(row[j])
    extra = draw(st.sampled_from(["none", "repeat", "redundant"]))
    if extra == "repeat":
        i = draw(st.integers(0, len(a) - 1))
        a.append(list(a[i]))
        b.append(b[i])
    elif extra == "redundant" and len(a) >= 2:
        i, j = draw(st.lists(st.integers(0, len(a) - 1), min_size=2, max_size=2, unique=True))
        a.append([x + y for x, y in zip(a[i], a[j])])
        b.append(b[i] + b[j])
    objectives = [[draw(ints) for _ in range(k)] for _ in range(draw(st.integers(1, 3)))]
    divided = draw(st.sampled_from(["none", "row", "objective"]))
    divisor = Fraction(draw(st.sampled_from([2, 3])))
    if divided == "row":
        i = draw(st.integers(0, len(a) - 1))
        a[i] = [x / divisor for x in a[i]]
        b[i] /= divisor
    elif divided == "objective":
        i = draw(st.integers(0, len(objectives) - 1))
        objectives[i] = [x / divisor for x in objectives[i]]
    return kind, Polytope(frows(*a), fvec(b)), ObjectiveStack(frows(*objectives))


def sample_points(p):
    """Vertices, centroids of the vertex sets of faces, midpoints of the
    two-vertex ones (edges), a strictly interior point when there is one,
    and on an unbounded region each vertex moved along a recession ray."""
    vertices = enumerate_vertices(p)
    points = list(vertices)
    for face in face_vertex_sets(p):
        if len(face) >= 2:
            size = Fraction(len(face))
            points.append(tuple(sum(column) / size for column in zip(*face)))
    if p.interior_point is not None:
        points.append(p.interior_point)
    if not is_bounded(p):
        for j in range(p.dim):
            if all(row[j] <= 0 for row in p.a):
                points.extend(v[:j] + (v[j] + 1,) + v[j + 1 :] for v in vertices)
    return points


@settings(deadline=None, max_examples=80)
@given(regions_and_stacks())
def test_normal_cone_efficiency_matches_slack_lp_reference(drawn):
    # Efficiency is decided on the normal cone of the constraints tight at
    # the point (Isermann's theorem); the vertex oracle cannot check that at
    # non-vertex points or on unbounded regions, so the old two-phase slack
    # LP is the reference there, and the answers must be equal.
    kind, p, stack = drawn
    assert is_bounded(p) == (kind == "bounded")
    for x in sample_points(p):
        assert is_efficient(p, stack, x) == is_efficient_reference(p, stack, x), x


def _recording_covers(monkeypatch):
    """A list that collects (region, stack, zero set, d) for each "no"
    that ``efficient_at`` reads off a kept direction d."""
    covered = []
    covering = efficiency._covering

    def recorded(p, f, zeros):
        d = covering(p, f, zeros)
        if d is not None:
            covered.append((p, f, zeros, d))
        return d

    monkeypatch.setattr(efficiency, "_covering", recorded)
    return covered


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.booleans())
def test_each_no_read_from_a_cover_is_an_improving_direction(seed, bounded):
    # A "no" read off a direction d that an earlier "no" of the same stack
    # found runs no phase 1.  d must improve the stack semipositively and
    # stay feasible at the zero set, and a fresh region's phase 1 must say
    # "no" too.
    with pytest.MonkeyPatch.context() as monkeypatch:
        covered = _recording_covers(monkeypatch)
        try:
            reduce_objectives(random_problem(random.Random(seed), max_objectives=5, ensure_bounded=bounded))
        except UnboundedRegion:
            pass
    for p, f, zeros, d in covered:
        values = [dot(row, d) for row in f.rows]
        assert min(values) >= 0 and sum(values) > 0
        assert all(d[j] >= 0 if j < p.dim else dot(p.a[j - p.dim], d) <= 0 for j in zeros)
        assert not efficient_at(Polytope(p.a, p.b), f, zeros)


def test_covers_answer_some_tests_of_a_seeded_stream(monkeypatch):
    # The property above is not vacuous: a seeded stream of reductions reads
    # many "no"s off covers.
    covered = _recording_covers(monkeypatch)
    rng = random.Random(28)
    for _ in range(40):
        reduce_objectives(random_problem(rng, max_objectives=5))
    assert len(covered) > 20


def _recording_supports(monkeypatch):
    """A list that collects (region, stack, zero set, S) for each "yes"
    that ``efficient_at`` reads off a kept support S."""
    supported = []
    supporting = efficiency._supporting

    def recorded(p, f, zeros):
        support = supporting(p, f, zeros)
        if support is not None:
            supported.append((p, f, zeros, support))
        return support

    monkeypatch.setattr(efficiency, "_supporting", recorded)
    return supported


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.booleans())
def test_each_yes_read_from_a_support_is_efficient(seed, bounded):
    # A "yes" read off the support S of an earlier "yes" of the same stack
    # runs no phase 1.  The zero set must contain S, and a fresh region's
    # phase 1 must say "yes" too, on unbounded regions as well.
    with pytest.MonkeyPatch.context() as monkeypatch:
        supported = _recording_supports(monkeypatch)
        try:
            reduce_objectives(random_problem(random.Random(seed), max_objectives=5, ensure_bounded=bounded))
        except UnboundedRegion:
            pass
    for p, f, zeros, support in supported:
        assert support <= zeros
        assert efficient_at(Polytope(p.a, p.b), f, zeros)


def test_supports_answer_some_tests_of_a_seeded_stream(monkeypatch):
    # The property above is not vacuous: a seeded stream of reductions reads
    # many "yes"s off supports, some of them on unbounded regions.
    supported = _recording_supports(monkeypatch)
    rng = random.Random(30)
    for bounded in [True, False] * 20:
        try:
            reduce_objectives(random_problem(rng, max_objectives=5, ensure_bounded=bounded))
        except UnboundedRegion:
            pass
    assert len(supported) > 20
    assert any(not is_bounded(p) for p, _, _, _ in supported)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32), st.booleans())
def test_a_zero_set_runs_one_phase_1_for_every_order_of_the_rows(seed, bounded):
    # Each certificate settles its own zero set: a "yes" support is made of
    # the zero set's columns, and a "no" direction stays feasible at it.  So
    # right after a phase 1 the region's record answers that zero set, and
    # testing it again, for the stack or for its rows in another order,
    # gives the same answer with no phase 1.
    problem = random_problem(random.Random(seed), max_objectives=5, ensure_bounded=bounded)
    p, f = problem.region(), problem.stack()
    rotated = ObjectiveStack(f.rows[1:] + f.rows[:1])
    found = []
    run = efficiency.alternative
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(efficiency, "alternative", lambda rows: found.append(run(rows)) or found[-1])
        for x in sample_points(p):
            zeros = zero_set(p, x)
            before = len(found)
            answer = efficient_at(p, f, zeros)
            assert len(found) <= before + 1
            if len(found) > before and answer:
                support = efficiency._supporting(p, f, zeros)
                assert support is not None and support <= zeros
            elif len(found) > before:
                assert efficiency._covering(p, f, zeros) == [-a for a in found[-1][1]]
            ran = len(found)
            assert efficient_at(p, f, zeros) == answer
            assert efficient_at(p, rotated, zeros) == answer
            assert len(found) == ran


def test_classify_ladder_k9_runs_few_efficiency_phase_1s(monkeypatch):
    # The k = 9 case of scripts/bench.py's classify ladder sweeps the faces
    # of its region at step 7.  The supports of the "yes"s answer almost
    # every test of the sweep: 48 phase 1s, against 3,985 when each zero set ran
    # its own.
    calls = []
    run = efficiency.alternative
    monkeypatch.setattr(efficiency, "alternative", lambda rows: calls.append(rows) or run(rows))
    verdict = classify(ladder_problem(9))
    assert verdict.decided_at == 7
    assert len(calls) <= 100
