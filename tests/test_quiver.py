"""Quiver data model, Euler form, linking and unlinking case tables."""

import enum
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

import quivercalc
from quivercalc.quiver import (
    Quiver,
    QuiverFormatError,
    disjoint_union,
    euler_form,
    euler_quadratic_form,
    fresh_label,
    link,
    one_vertex,
    unlink,
)
from quivercalc.series import iter_multidegrees

A2 = Quiver(("a", "b"), ((0, 1), (1, 0)))


def rand_quiver(rng, max_n=4, max_m=3):
    n = rng.randint(1, max_n)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randint(0, max_m)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(0, max_m)
    return Quiver(tuple(f"v{k}" for k in range(n)),
                  tuple(tuple(row) for row in m))


# -- validation ----------------------------------------------------------------

def test_rejects_asymmetric_matrix():
    with pytest.raises(QuiverFormatError) as exc:
        Quiver(("a", "b"), ((0, 1), (2, 0)))
    assert "matrix[0][1]" in str(exc.value)


def test_rejects_negative_and_bool_entries():
    with pytest.raises(QuiverFormatError):
        Quiver(("a",), ((-1,),))
    with pytest.raises(QuiverFormatError):
        Quiver(("a",), ((True,),))


def test_rejects_shape_and_label_problems():
    with pytest.raises(QuiverFormatError):
        Quiver(("a", "b"), ((0,),))
    with pytest.raises(QuiverFormatError):
        Quiver(("a", "a"), ((0, 0), (0, 0)))
    with pytest.raises(QuiverFormatError):
        Quiver(("a", ""), ((0, 0), (0, 0)))


@pytest.mark.parametrize("vertices, matrix, message", [
    (("a",), ((True,),), "matrix[0][0] is not an integer"),
    (("a", "b"), ((0, 1), (1, 1.0)), "matrix[1][1] is not an integer"),
    (("a", "b"), ((0, -1), (-1, 0)), "matrix[0][1] is negative"),
    (("a", "b"), ((0, 1), (2, 0)), "matrix[0][1] != matrix[1][0] (1 vs 2)"),
    (("a", "b"), ((0, 1), (1,)), "matrix[1] has 1 entries, expected 2"),
    (("a", "b"), ((0, 1),), "matrix has 1 rows for 2 vertices"),
    (("a", "b", "a"), ((0,) * 3,) * 3, "vertex labels must be distinct"),
    (("a", ""), ((0, 0), (0, 0)), "vertices[1] must be a nonempty string"),
    ((["a"], "b"), ((0, 0), (0, 0)), "vertices[0] must be a nonempty string"),
    (("a", 1), ((0, 0), (0, 0)), "vertices[1] must be a nonempty string"),
    # one bad entry after many good ones
    (tuple(f"v{i}" for i in range(30)),
     tuple(tuple(2 if (i, j) == (29, 28) else 0 for j in range(30)) for i in range(30)),
     "matrix[28][29] != matrix[29][28] (0 vs 2)"),
    (tuple(f"v{i}" for i in range(30)),
     tuple(tuple(-1 if i == j == 29 else 1 for j in range(30)) for i in range(30)),
     "matrix[29][29] is negative"),
    # a negative entry is named before a later asymmetric pair
    (("a", "b", "c"), ((0, -1, 0), (-1, 0, 2), (0, 1, 0)), "matrix[0][1] is negative"),
    (tuple(f"v{i}" for i in range(30)),
     tuple(tuple(True if i == j == 29 else 1 for j in range(30)) for i in range(30)),
     "matrix[29][29] is not an integer"),
    (tuple(f"v{i}" for i in range(30)),
     tuple(tuple(3.0 if (i, j) == (17, 23) else 3 for j in range(30)) for i in range(30)),
     "matrix[17][23] is not an integer"),
])
def test_malformed_quivers_name_the_first_offending_entry(vertices, matrix, message):
    with pytest.raises(QuiverFormatError) as exc:
        Quiver(vertices, matrix)
    assert str(exc.value) == message


def test_pickled_quiver_hashes_afresh_in_another_process():
    # string hashes depend on PYTHONHASHSEED, so a cached hash must not
    # travel with the pickle: the loaded quiver hashes like one built there
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(
        None, (os.path.dirname(os.path.dirname(quivercalc.__file__)),
               os.environ.get("PYTHONPATH")))))
    script = (
        "import pickle, sys\n"
        "from quivercalc.quiver import Quiver\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Quiver(('a', 'b'), ((0, 3), (3, 1)))\n"
        "assert loaded == fresh and hash(loaded) == hash(fresh)\n"
        "assert {fresh: 1}[loaded] == 1\n"
        "print(hash('a'))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=False,
                          input=pickle.dumps(Quiver(("a", "b"), ((0, 3), (3, 1)))),
                          capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    # the child really hashed strings under another seed
    assert int(done.stdout) != hash("a")


def test_well_formed_quivers_are_kept_as_given():
    class Count(int):
        pass
    for vertices, matrix in (((), ()), (("a",), ((Count(2),),)),
                             (("a", "b"), [[0, 3], [3, 1]])):
        q = Quiver(vertices, matrix)
        assert q.matrix == tuple(tuple(row) for row in matrix)
        assert type(q.matrix) is tuple and all(type(row) is tuple for row in q.matrix)


def test_int_enum_entries_are_accepted():
    class Arrows(enum.IntEnum):
        NONE = 0
        TWO = 2
    q = Quiver(("a", "b"), ((Arrows.NONE, Arrows.TWO), (2, 0)))
    assert q == Quiver(("a", "b"), ((0, 2), (2, 0)))
    assert q.matrix[0][1] == 2 and q.arrows("a", "b") == 2


def test_index_and_accessors():
    assert A2.index("b") == 1
    with pytest.raises(KeyError):
        A2.index("z")
    assert A2.loops("a") == 0
    assert A2.arrows("a", "b") == 1
    assert one_vertex(3).max_loops() == 3
    assert len(A2) == 2


# -- Euler form ----------------------------------------------------------------

def test_euler_form_values():
    assert euler_form(A2, (0, 0), (1, 1)) == 0
    assert euler_form(one_vertex(1), (2,), (2,)) == 0
    assert euler_form(A2, (1, 1), (1, 1)) == 0
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    with pytest.raises(ValueError):
        euler_form(A2, (1,), (1, 1))


def test_euler_form_symmetry():
    rng = random.Random(8)
    for _ in range(120):
        q = rand_quiver(rng)
        d = tuple(rng.randint(0, 3) for _ in range(len(q)))
        e = tuple(rng.randint(0, 3) for _ in range(len(q)))
        assert euler_form(q, d, e) == euler_form(q, e, d)


def test_euler_quadratic_form_matches_euler_form():
    # on the fleet, its links and unlinks, and random quivers with up to
    # five vertices, including the empty quiver and all-zero degrees
    fleet = [one_vertex(k) for k in range(4)] + [
        A2, Quiver(("a", "b"), ((0, 2), (2, 0))), Quiver(("a", "b"), ((1, 2), (2, 0))),
        Quiver(("a", "b", "c"), ((1, 1, 0), (1, 0, 2), (0, 2, 1)))]
    moved = [move(q, a, b) for q in fleet for move in (link, unlink)
             for a in q.vertices for b in q.vertices
             if a != b and (move is link or q.arrows(a, b))]
    rng = random.Random(27)
    randoms = [rand_quiver(rng, max_n=5, max_m=4) for _ in range(150)]
    for q in fleet + moved + randoms + [Quiver((), ())]:
        chi = euler_quadratic_form(q)
        degrees = list(iter_multidegrees(len(q), 4))
        degrees += [tuple(rng.randint(0, 9) for _ in range(len(q))) for _ in range(20)]
        for d in degrees:
            assert chi(d) == euler_form(q, d, d), (q, d)


# -- linking -------------------------------------------------------------------

def test_link_doubled_a2():
    linked = link(A2, "a", "b")
    assert linked.vertices == ("a", "b", "a+b#1")
    assert linked.matrix == ((0, 2, 1), (2, 0, 1), (1, 1, 2))


def test_link_isolated_pair():
    q = Quiver(("a", "b"), ((0, 0), (0, 0)))
    linked = link(q, "a", "b")
    assert linked.matrix == ((0, 1, 0), (1, 0, 0), (0, 0, 0))


def test_link_preconditions():
    with pytest.raises(ValueError):
        link(one_vertex(0, "a"), "a", "a")
    with pytest.raises(KeyError):
        link(A2, "a", "missing")


# -- unlinking -----------------------------------------------------------------

def test_unlink_doubled_a2():
    unlinked = unlink(A2, "a", "b")
    assert unlinked.vertices == ("a", "b", "a*b#1")
    assert unlinked.matrix == ((0, 0, 0), (0, 0, 0), (0, 0, 1))


def test_unlink_looped_pair():
    q = Quiver(("a", "b"), ((1, 2), (2, 0)))
    unlinked = unlink(q, "a", "b")
    assert unlinked.arrows("a", "b") == 1
    assert unlinked.arrows("a", "a*b#1") == 2
    assert unlinked.arrows("b", "a*b#1") == 1
    assert unlinked.loops("a*b#1") == 4


def test_unlink_requires_edge():
    q = Quiver(("a", "b"), ((0, 0), (0, 0)))
    with pytest.raises(ValueError) as exc:
        unlink(q, "a", "b")
    assert "arrow" in str(exc.value)


def test_link_unlink_composite_matrix():
    # link(unlink(Q)) carries m_aa + m_bb + 2m_ab - 2 at both (star,diamond)
    # and (diamond,diamond)
    rng = random.Random(99)
    quivers = [A2, Quiver(("a", "b"), ((0, 2), (2, 0))),
               Quiver(("a", "b", "c"), ((1, 1, 0), (1, 0, 2), (0, 2, 1)))]
    for _ in range(40):
        q = rand_quiver(rng, max_n=3)
        if len(q) >= 2 and q.matrix[0][1] >= 1:
            quivers.append(q)
    for q in quivers:
        a, b = q.vertices[0], q.vertices[1]
        if q.arrows(a, b) < 1:
            continue
        m = q.arrows(a, a) + q.arrows(b, b) + 2 * q.arrows(a, b) - 2
        composite = link(unlink(q, a, b), a, b)
        star, diamond = composite.vertices[-2], composite.vertices[-1]
        assert composite.arrows(star, diamond) == m
        assert composite.loops(diamond) == m
        assert composite.arrows(a, b) == q.arrows(a, b)


def test_transforms_stay_symmetric_nonnegative():
    rng = random.Random(1234)
    count = 0
    while count < 120:
        q = rand_quiver(rng)
        if len(q) < 2:
            continue
        a, b = q.vertices[0], q.vertices[1]
        out = link(q, a, b)
        if q.arrows(a, b) >= 1:
            out = unlink(out, a, b)
        n = len(out)
        for i in range(n):
            for j in range(n):
                assert out.matrix[i][j] == out.matrix[j][i]
                assert out.matrix[i][j] >= 0
        count += 1


def test_fresh_label_collision():
    q = Quiver(("a", "b", "a+b#1"), ((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert fresh_label(q.vertices, "a+b") == "a+b#2"
    linked = link(q, "a", "b")
    assert linked.vertices[-1] == "a+b#2"


def test_disjoint_union():
    u = disjoint_union(one_vertex(1, "x"), A2)
    assert u.vertices == ("x", "a", "b")
    assert u.matrix == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    with pytest.raises(QuiverFormatError):
        disjoint_union(one_vertex(1, "a"), A2)


# -- serialization --------------------------------------------------------------

def test_json_round_trip(tmp_path):
    rng = random.Random(55)
    for _ in range(25):
        q = rand_quiver(rng)
        path = tmp_path / "q.json"
        q.save(path)
        assert Quiver.load(path) == q
    obj = A2.to_json()
    assert obj == {"vertices": ["a", "b"], "matrix": [[0, 1], [1, 0]]}
    assert Quiver.from_json(json.loads(json.dumps(obj))) == A2


def test_load_errors_name_the_problem(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a", "b"], "matrix": [[0, 1], [2, 0]]}')
    with pytest.raises(QuiverFormatError) as exc:
        Quiver.load(bad)
    assert "matrix[0][1]" in str(exc.value)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    with pytest.raises(QuiverFormatError):
        Quiver.load(notjson)
    # nesting too deep for the JSON parser is invalid JSON, not a RecursionError
    notjson.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(QuiverFormatError, match=r"^invalid JSON \("):
        Quiver.load(notjson)
    with pytest.raises(QuiverFormatError):
        Quiver.from_json([1, 2])
