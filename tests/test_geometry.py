"""Geometry tests: quaternion/SE(3) algebra against independent matrix oracles."""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.transform import Rotation

from crossview import geometry
from crossview._files import _LEAVES, frozen_array
from crossview.geometry import RotationDelta, error_quaternion, se3_compose

RNG = np.random.default_rng(12345)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
IDENTITY_SE3 = (IDENTITY, np.zeros(3))


def unit(q):
    return geometry.unit_quaternions(np.array([q], dtype=float))[0]


def matrix(q):
    return geometry.rotation_matrices(q[None])[0]


def product(a, b):
    return geometry.quaternion_products(a[None], b[None])[0]


def rotate(q, v):
    return geometry.rotate_points(q[None], np.asarray(v, dtype=float)[None])[0]


def homogeneous(transform):
    rotation, translation = transform
    m = np.eye(4)
    m[:3, :3] = matrix(rotation)
    m[:3, 3] = translation
    return m


def inverse(transform):
    rotation, translation = transform
    conjugate = unit(rotation * [1.0, -1.0, -1.0, -1.0])
    return conjugate, -rotate(conjugate, translation)


def random_unit_quaternion(rng):
    return unit(rng.normal(size=4))


def random_se3(rng):
    return random_unit_quaternion(rng), rng.normal(size=3)


@st.composite
def rotation_vectors(draw, max_angle=math.pi - 1e-3):
    direction = np.array(
        [
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
        ]
    )
    norm = np.linalg.norm(direction)
    if norm < 1e-6:
        direction = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    angle = draw(st.floats(0.0, max_angle, allow_nan=False))
    return direction / norm * angle


class TestErrorQuaternion:
    def test_zero_branch_is_exact_identity(self):
        q = error_quaternion(RotationDelta([0.0, 0.0, 0.0]))
        assert tuple(q) == (1.0, 0.0, 0.0, 0.0)

    def test_half_turn_about_x(self):
        q = error_quaternion([math.pi, 0.0, 0.0])
        np.testing.assert_allclose(q, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        # independent oracle: rotation-vector exponential via scipy
        delta = np.array([0.1, -0.2, 0.05])
        q = error_quaternion(RotationDelta(delta))
        expected = Rotation.from_rotvec(delta).as_matrix()
        np.testing.assert_allclose(matrix(q), expected, atol=1e-9)

    def test_small_angle_branch_continuous(self):
        for theta in (1e-10, 1e-8, 9.9e-8, 1.01e-7, 1e-6):
            q = error_quaternion([theta, 0.0, 0.0])
            expected = Rotation.from_rotvec([theta, 0.0, 0.0]).as_matrix()
            np.testing.assert_allclose(matrix(q), expected, atol=1e-12)

    def test_result_is_unit_norm(self):
        for _ in range(100):
            q = error_quaternion(RNG.normal(size=3))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_huge_finite_angle_gives_its_unit_quaternion(self):
        # |d|^2 overflows; the angle itself is finite and so is its exponential
        q = error_quaternion([1e160, 0.0, 0.0])
        np.testing.assert_allclose(q, [math.cos(5e159), math.sin(5e159), 0.0, 0.0], rtol=0.0, atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            error_quaternion([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            error_quaternion([np.inf, 0.0, 0.0])

    @pytest.mark.parametrize("make, name", [(list, "rotation vector"), (RotationDelta, "delta_theta")])
    @pytest.mark.parametrize(
        "vector, problem",
        [
            ([1.0, 0.0], "have shape"),
            ([0.0, 0.0, 0.0, 1.0], "have shape"),
            ([0.0, np.nan, 0.0], "be finite"),
            ([0.0, 0.0, -np.inf], "be finite"),
            (["0.5", 0.0, 0.0], "hold numbers, got str"),
            ([True, 0.0, 0.0], "hold numbers, got bool"),
            ([None, 0.0, 0.0], "hold numbers, got NoneType"),
        ],
        ids=["two", "four", "nan", "-inf", "string", "true", "null"],
    )
    def test_bad_vector_named(self, make, name, vector, problem):
        with pytest.raises(ValueError, match=f"{name} must {problem}"):
            error_quaternion(make(vector))

    @given(rotation_vectors())
    @example(np.array([1e-6, 0.0, 0.0]))
    @example(np.array([0.0, 6e-10, -8e-10]))
    @settings(max_examples=200, deadline=None)
    def test_log_recovers_rotation_vector(self, delta):
        recovered = geometry.rotation_vectors(error_quaternion(RotationDelta(delta))[None])[0]
        error = np.linalg.norm(recovered - delta)
        assert error < 1e-8
        # small angles keep their relative precision too (|d|^2 underflows
        # below about 1e-154 rad, hence the floor)
        assert error <= 1e-10 * max(np.linalg.norm(delta), 1e-150)


class TestQuatCompose:
    def test_identity_neutral(self):
        q = random_unit_quaternion(RNG)
        out = product(IDENTITY, q)
        np.testing.assert_allclose(out, q, atol=1e-12)

    def test_conjugate_gives_identity(self):
        q = random_unit_quaternion(RNG)
        out = product(q, inverse((q, np.zeros(3)))[0])
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=1e-9)

    def test_matches_rotation_matrix_product(self):
        for _ in range(200):
            a, b = random_unit_quaternion(RNG), random_unit_quaternion(RNG)
            np.testing.assert_allclose(matrix(product(a, b)), matrix(a) @ matrix(b), atol=1e-9)

    def test_associative(self):
        for _ in range(100):
            a, b, c = (random_unit_quaternion(RNG) for _ in range(3))
            lhs = product(product(a, b), c)
            rhs = product(a, product(b, c))
            assert np.abs(matrix(lhs) - matrix(rhs)).max() < 1e-9

    def test_error_quaternion_left_increment(self):
        # composing the increment on the left equals rotating by q then exp(delta)
        for _ in range(50):
            delta = RNG.normal(size=3) * 0.5
            q = random_unit_quaternion(RNG)
            v = RNG.normal(size=3)
            composed = product(error_quaternion(delta), q)
            oracle = Rotation.from_rotvec(delta).as_matrix() @ (matrix(q) @ v)
            np.testing.assert_allclose(rotate(composed, v), oracle, atol=1e-8)


class TestUnitQuaternion:
    def test_constructor_normalizes(self):
        q = unit([2.0, 0.0, 0.0, 0.0])
        assert q[0] == 1.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit([0.0, 0.0, 0.0, 0.0])

    def test_matrix_round_trip_covers_branches(self):
        # large-angle rotations about each axis hit all from_matrix branches
        cases = [Rotation.from_rotvec(v).as_matrix() for v in ([3.1, 0, 0], [0, 3.1, 0], [0, 0, 3.1])]
        cases += [Rotation.random(20, rng=np.random.default_rng(0)).as_matrix()[i] for i in range(20)]
        for m in cases:
            q = geometry.quaternions_from_matrices(m[None])[0]
            np.testing.assert_allclose(matrix(q), m, atol=1e-9)

    def test_from_matrix_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            geometry.quaternions_from_matrices(np.eye(3)[None] * 2.0)

    @pytest.mark.parametrize(
        "components, expected",
        [((1e200, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)), ((1e154, 1e154, 0.0, 0.0), (0.5**0.5, 0.5**0.5, 0.0, 0.0))],
    )
    def test_components_whose_squares_overflow_normalize(self, components, expected):
        # the squared norm is above the float range; the scaled norm is not
        np.testing.assert_allclose(unit(components), expected, rtol=0.0, atol=1e-15)

    def test_components_whose_squares_underflow_are_a_zero_quaternion(self):
        with pytest.raises(ValueError, match="zero quaternion"):
            unit([1e-170, 0.0, 0.0, 0.0])


class TestSE3:
    def test_identity_composition_noop(self):
        t = random_se3(RNG)
        for out in (se3_compose(IDENTITY_SE3, t), se3_compose(t, IDENTITY_SE3)):
            np.testing.assert_allclose(out[1], t[1], atol=1e-12)
            np.testing.assert_allclose(matrix(out[0]), matrix(t[0]), atol=1e-12)

    def test_pure_translations_add(self):
        a = (IDENTITY, [1.0, 2.0, 3.0])
        b = (IDENTITY, [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(se3_compose(a, b)[1], [11.0, 22.0, 33.0])

    def test_matches_homogeneous_matrix_product(self):
        for _ in range(200):
            a, b = random_se3(RNG), random_se3(RNG)
            np.testing.assert_allclose(
                homogeneous(se3_compose(a, b)), homogeneous(a) @ homogeneous(b), atol=1e-9
            )

    def test_inverse_gives_identity(self):
        for _ in range(50):
            t = random_se3(RNG)
            out = se3_compose(t, inverse(t))
            np.testing.assert_allclose(homogeneous(out), np.eye(4), atol=1e-9)

    def test_associative(self):
        for _ in range(100):
            a, b, c = (random_se3(RNG) for _ in range(3))
            lhs = homogeneous(se3_compose(se3_compose(a, b), c))
            rhs = homogeneous(se3_compose(a, se3_compose(b, c)))
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_rotation_used_as_given(self):
        # a rotation off unit norm by less than 1e-9 is not renormalized
        a = (unit([0.3, -0.1, 0.8, 0.5]) * (1.0 + 1e-12), np.array([0.5, -1.0, 2.0]))
        b = random_se3(RNG)
        out = se3_compose(a, b)
        assert out[1].tobytes() == (rotate(a[0], b[1]) + a[1]).tobytes()
        assert out[0].tobytes() == product(a[0], b[0]).tobytes()


def bad_pair(part, problem):
    """A transform pair whose rotation or translation has the given problem."""
    rotation, translation = IDENTITY.copy(), np.zeros(3)
    value = {
        "shape": {"rotation": IDENTITY[:3], "translation": np.zeros(4)},
        "nan": {"rotation": np.array([np.nan, 0.0, 0.0, 1.0]), "translation": np.array([0.0, np.nan, 0.0])},
        "inf": {"rotation": np.array([np.inf, 0.0, 0.0, 0.0]), "translation": np.array([0.0, 0.0, -np.inf])},
    }[problem][part]
    return (value, translation) if part == "rotation" else (rotation, value)


class TestSE3Boundary:
    """se3_compose checks each pair and names the argument and the part at fault."""

    @pytest.mark.parametrize("argument", ["a", "b"])
    @pytest.mark.parametrize("norm", [2.0, 1.0 + 2e-9, 1.0 - 2e-9])
    def test_non_unit_rotation_rejected(self, argument, norm):
        bad = (IDENTITY * norm, np.zeros(3))
        pairs = {"a": IDENTITY_SE3, "b": IDENTITY_SE3, argument: bad}
        with pytest.raises(ValueError, match=f"rotation of {argument} must be a unit quaternion"):
            se3_compose(pairs["a"], pairs["b"])

    @pytest.mark.parametrize("argument", ["a", "b"])
    @pytest.mark.parametrize("part", ["rotation", "translation"])
    @pytest.mark.parametrize(
        "problem, message", [("shape", "must have shape"), ("nan", "must be finite"), ("inf", "must be finite")]
    )
    def test_bad_part_named(self, argument, part, problem, message):
        pairs = {"a": IDENTITY_SE3, "b": IDENTITY_SE3, argument: bad_pair(part, problem)}
        with pytest.raises(ValueError, match=f"{part} of {argument} {message}"):
            se3_compose(pairs["a"], pairs["b"])

    @pytest.mark.parametrize("argument", ["a", "b"])
    @pytest.mark.parametrize(
        "value", [np.zeros(7), (IDENTITY, np.zeros(3), np.zeros(3)), None], ids=["array", "triple", "none"]
    )
    def test_not_a_pair_rejected(self, argument, value):
        pairs = {"a": IDENTITY_SE3, "b": IDENTITY_SE3, argument: value}
        with pytest.raises(ValueError, match=f"{argument} must be a \\(rotation, translation\\) pair"):
            se3_compose(pairs["a"], pairs["b"])


class TestFrozenArray:
    """The array rule: an ndarray, also one inside lists, is checked by its dtype and not walked."""

    def test_arrays_in_a_list_are_not_walked(self):
        class Unwalkable(np.ndarray):
            def __iter__(self):
                raise AssertionError("walked element by element")

        clips = [np.full((8, 19, 3), float(i)).view(Unwalkable) for i in range(5)]
        got = frozen_array(clips, "clips", ("M", 8, 19, 3))
        assert got.shape == (5, 8, 19, 3) and got[3, 7, 18, 2] == 3.0 and not got.flags.writeable

    @pytest.mark.parametrize(
        "value, shape, dtype, text",
        [
            ([np.zeros(2), np.zeros(2, str)], (2, 2), float, "x must hold numbers, got str_"),
            ([np.zeros(2), np.zeros(2, bool)], (2, 2), float, "x must hold numbers, got bool"),
            ([[np.zeros(2)], [np.zeros(2, bool)]], (2, 1, 2), float, "x must hold numbers, got bool"),
            ([np.arange(2), np.arange(2.0)], (2, 2), int, "x must hold integers, got float64"),
            ([np.ones(2, bool), np.ones(2, np.int8)], (2, 2), bool, "x must hold true or false, got int8"),
            ([np.zeros(2), ["0.5", 0.0]], (2, 2), float, "x must hold numbers, got str"),
        ],
    )
    def test_arrays_of_another_kind_in_a_list_rejected(self, value, shape, dtype, text):
        with pytest.raises(ValueError, match=text):
            frozen_array(value, "x", shape, dtype)

    @pytest.mark.parametrize(
        "value, shape, dtype",
        [
            ([np.zeros(2), np.arange(2), [0.5, 1]], (3, 2), float),
            ([np.arange(2, dtype=np.uint8), [3, 4]], (2, 2), int),
            ([np.ones(2, bool), [True, False]], (2, 2), bool),
            ([np.zeros((7, 2, 3)), np.ones((7, 2, 3))], ("M", 7, 2, 3), float),
        ],
    )
    def test_lists_of_arrays_of_a_taken_kind_read_like_one_array(self, value, shape, dtype):
        want = np.array([np.asarray(v) for v in value]).astype(dtype)
        got = frozen_array(value, "x", shape, dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "dtype, text",
        [(float, "x must hold numbers within the range of float64"), (int, "x must hold integers within the range")],
    )
    def test_int_beyond_the_dtype_rejected_naming_the_field(self, dtype, text):
        # numpy raises OverflowError for it, which no other input gives
        with pytest.raises(ValueError, match=text):
            frozen_array([[1, 10**400]], "x", (1, 2), dtype)

    @pytest.mark.parametrize("dtype, good", [(float, 0.5), (int, 1), (bool, True)], ids=["float", "int", "bool"])
    @pytest.mark.parametrize(
        "leaf",
        [0.5, 1, np.float64(0.5), np.int64(1), True, np.bool_(True)]
        + ["0.5", None, [1.0], np.array(0.5), np.array([0.5])],
        ids=lambda leaf: repr(leaf).replace(" ", ""),
    )
    @pytest.mark.parametrize("container", [list, tuple, type("ListSubclass", (list,), {})])
    def test_one_level_list_reads_like_the_walk(self, dtype, good, leaf, container):
        # the walk starts at the value's items; the messages are those of the walk that started at [value]
        cases = [([good, leaf], (2,)), ([leaf], ("n",)), ([], (2,)), ([], ("n",)), ([[good, leaf]] * 2, ("n", 2))]
        for items, shape in cases:
            got = self.verdict(container(items), shape, dtype)
            want = _walked_leaf_message(container(items), shape, dtype)
            assert got == want if want else not (isinstance(got, str) and " must hold " in got), (items, got)

    @pytest.mark.parametrize("value", [0.5, True, None, "ab", range(2), {0.5: 1}], ids=repr)
    def test_a_value_that_is_no_list_reads_like_the_walk(self, value):
        got, want = self.verdict(value, (2,), float), _walked_leaf_message(value, (2,), float)
        assert got == want if want else not (isinstance(got, str) and " must hold " in got), got

    @staticmethod
    def verdict(value, shape, dtype):
        try:
            got = frozen_array(value, "x", shape, dtype)
        except ValueError as exc:
            return str(exc)
        return got.dtype, got.shape, got.tobytes(), got.flags.writeable


# frozen_array's leaf-type check as it was when its walk started at [value],
# kept as the reference of its messages: the message it raised, or None.
def _walked_leaf_message(value, shape, dtype):
    kinds, takes, refuses, noun = _LEAVES[dtype]
    found, leaves = set(), [value]
    try:
        for _ in range(len(shape)):
            leaves = list(leaves)
            if any(issubclass(t, np.ndarray) for t in set(map(type, leaves))):
                arrays = [a for a in leaves if isinstance(a, np.ndarray)]
                found.update(a.dtype.type.__name__ for a in arrays if a.dtype.kind not in kinds)
                leaves = [x for x in leaves if not isinstance(x, np.ndarray)]
            leaves = chain.from_iterable(leaves)
        types = set(map(type, leaves))
    except (TypeError, ValueError):
        types = ()
    found.update(t.__name__ for t in types if not issubclass(t, takes) or issubclass(t, refuses))
    return f"x must hold {noun}, got {', '.join(sorted(found))}" if found else None


# The one-rotation code as it was before the array kernels, kept here as the
# reference the kernels must reproduce bit for bit.


def scalar_unit(w, x, y, z):
    q = np.array([w, x, y, z], dtype=float)
    return q / math.sqrt(float(q @ q))


def scalar_from_matrix(m):
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        return scalar_unit((0.25 * s), (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        return scalar_unit((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
    if m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        return scalar_unit((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
    s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
    return scalar_unit((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)


def scalar_log(q):
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return np.array([2.0 * x, 2.0 * y, 2.0 * z])
    return (2.0 * math.atan2(s, w) / s) * np.array([x, y, z])


def scalar_exp(v):
    theta = float(np.linalg.norm(v))
    if theta == 0.0:
        return scalar_unit(1.0, 0.0, 0.0, 0.0)
    scale = 0.5 - theta * theta / 48.0 if theta < 1e-7 else math.sin(0.5 * theta) / theta
    return scalar_unit(math.cos(0.5 * theta), scale * v[0], scale * v[1], scale * v[2])


def scalar_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def scalar_product(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return scalar_unit(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def scalar_rotate(q, v):
    u = q[1:]
    t = 2.0 * np.cross(u, v)
    return v + q[0] * t + np.cross(u, t)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def branch_matrices():
    """Rotation matrices hitting each from_matrix branch, ties included, plus random ones."""
    cases = [np.eye(3), Rotation.from_rotvec([0.0, 0.0, 3.0]).as_matrix()]
    # about (0.76, 0, 0.65) and (0, 0.76, 0.65) by acos(-0.6): a negative
    # trace with the largest diagonal term at m00, then at m11
    for axis in ([0.76, 0.0, 0.65], [0.0, 0.76, 0.65], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]):
        axis = np.array(axis) / np.linalg.norm(axis)
        cases.append(Rotation.from_rotvec(axis * math.acos(-0.6)).as_matrix())
    for v in ([math.pi, 0, 0], [0, math.pi, 0], [0, 0, math.pi], [3.1, 0, 0], [0, 3.1, 0]):
        cases.append(Rotation.from_rotvec(v).as_matrix())
    # exact ties: half turns about two-axis diagonals, and a zero trace
    for rows in ([1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1]):
        m = np.eye(3)[rows]
        cases.append(m if np.linalg.det(m) > 0 else -m)
    cases += list(Rotation.random(40, rng=np.random.default_rng(3)).as_matrix())
    return np.stack(cases)


def matrix_branch(m):
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        return 0
    if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        return 1
    return 2 if m[1, 1] >= m[2, 2] else 3


def log_cases(rng):
    """Unit quaternions with either sign of w, tiny and zero vector parts."""
    q = rng.normal(size=(40, 4))
    q[:5, 1:] *= 1e-13  # below the 1e-12 first-order log cut
    q[5:10, 1:] *= 1e-9
    q[10] = (1.0, 0.0, 0.0, 0.0)
    q[11] = (-1.0, 0.0, -0.0, 0.0)
    q[12] = (0.0, 1.0, 0.0, 0.0)
    return geometry.unit_quaternions(q)


def exp_cases(rng):
    """Rotation vectors: zero, below and at the series cut, and large."""
    direction = rng.normal(size=(60, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    angles = np.concatenate([rng.uniform(0.0, 1e-7, 20), [1e-7, 1e-300, 0.0], rng.uniform(0.0, 3 * math.pi, 37)])
    v = direction * angles[:, None]
    v[-1] = (-0.0, 0.0, -0.0)
    return v


class TestKernelsMatchScalarCode:
    """Each array kernel, whole or as a batch of one, gives the scalar code's bits."""

    def test_from_matrix_covers_every_branch(self):
        matrices = branch_matrices()
        assert {matrix_branch(m) for m in matrices} == {0, 1, 2, 3}
        batch = geometry.quaternions_from_matrices(matrices)
        for m, row in zip(matrices, batch):
            assert_same_bits(row, scalar_from_matrix(m))
            assert_same_bits(geometry.quaternions_from_matrices(m[None])[0], scalar_from_matrix(m))

    def test_from_matrix_rejects_non_orthonormal_row(self):
        matrices = branch_matrices()
        matrices[3] *= 1.01
        with pytest.raises(ValueError, match="orthonormal"):
            geometry.quaternions_from_matrices(matrices)

    def test_log(self):
        q = log_cases(np.random.default_rng(5))
        batch = geometry.rotation_vectors(q)
        for row, out in zip(q, batch):
            assert_same_bits(out, scalar_log(row))
            assert_same_bits(geometry.rotation_vectors(row[None])[0], scalar_log(row))

    def test_exp(self):
        v = exp_cases(np.random.default_rng(6))
        batch = geometry.exp_rotations(v)
        for row, out in zip(v, batch):
            assert_same_bits(out, scalar_exp(row))
            assert_same_bits(error_quaternion(row), scalar_exp(row))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exp_rejects_non_finite_row(self, bad):
        v = exp_cases(np.random.default_rng(6))
        v[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            geometry.exp_rotations(v)

    def test_unit_quaternions_reject_non_finite_and_zero_rows(self):
        q = np.random.default_rng(8).normal(size=(6, 4))
        q[4, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geometry.unit_quaternions(q)
        q[4] = 0.0
        with pytest.raises(ValueError, match="zero quaternion"):
            geometry.unit_quaternions(q)

    @pytest.mark.parametrize("case", ["random", "signed_zeros", "near_1e150"])
    def test_cross3_gives_numpys_cross_bits(self, case):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(2, 100_000, 3))
        if case == "signed_zeros":
            # each component is +0.0, -0.0 or a normal number, in every mix
            a *= rng.choice([0.0, -0.0, 1.0], size=a.shape)
            b *= rng.choice([0.0, -0.0, 1.0], size=b.shape)
            assert (np.signbit(a) & (a == 0.0)).any() and (~np.signbit(b) & (b == 0.0)).any()
        elif case == "near_1e150":
            # the products reach about 1e300, the edge of overflow, and some pass it
            a *= 1e150 * rng.uniform(0.5, 2e4, size=a.shape)
            b *= 1e150 * rng.uniform(0.5, 2e4, size=b.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.cross(a, b)
            assert_same_bits(geometry.cross3(a, b), want)
            assert_same_bits(geometry.cross3(a[:8], b[:8]), want[:8])
            assert_same_bits(geometry.cross3(a[:6].reshape(2, 3, 3), b[:6].reshape(2, 3, 3)), want[:6].reshape(2, 3, 3))
        if case == "near_1e150":
            assert np.isfinite(want).any() and not np.isfinite(want).all()

    def test_matrices_products_rotations_and_norms(self):
        rng = np.random.default_rng(9)
        a, b = log_cases(rng), log_cases(rng)
        points = rng.normal(size=(len(a), 3)) * 10.0
        matrices = geometry.rotation_matrices(a)
        products = geometry.quaternion_products(a, b)
        rotated = geometry.rotate_points(a, points)
        norms = geometry.norms(points)
        for i in range(len(a)):
            assert_same_bits(matrices[i], scalar_matrix(a[i]))
            assert_same_bits(products[i], scalar_product(a[i], b[i]))
            assert_same_bits(rotated[i], scalar_rotate(a[i], points[i]))
            assert_same_bits(norms[i, 0], np.linalg.norm(points[i]))
            assert_same_bits(matrix(a[i]), scalar_matrix(a[i]))
            rotation, translation = se3_compose((a[i], points[i]), (b[i], points[i]))
            assert_same_bits(rotation, scalar_product(a[i], b[i]))
            assert_same_bits(translation, scalar_rotate(a[i], points[i]) + points[i])
            assert_same_bits(rotate(a[i], points[i]), scalar_rotate(a[i], points[i]))
            assert_same_bits(unit(b[i] * 3.0), scalar_unit(*b[i] * 3.0))

    @staticmethod
    def edge_rows(case, width, rng):
        """Rows of signed zeros, of +-1 components or of components near 1e150 or 1e-150, in every mix."""
        shape = (3000, width)
        if case == "signed_zeros":
            return rng.normal(size=shape) * rng.choice([0.0, -0.0, 1.0], size=shape)
        if case == "unit_components":
            return rng.choice([1.0, -1.0, 0.0, -0.0], size=shape)
        scale = 1e150 if case == "near_1e150" else 1e-150
        return rng.choice([-scale, scale], size=shape) * rng.uniform(0.5, 2.0, size=shape)

    @pytest.mark.parametrize("case", ["signed_zeros", "unit_components", "near_1e150", "near_1e-150"])
    def test_matrices_of_edge_rows(self, case):
        # every matrix entry is gathered from one outer product; the products
        # of components near 1e150 reach about 1e300, and near 1e-150 the
        # subnormal range
        q = self.edge_rows(case, 4, np.random.default_rng(14))
        matrices = geometry.rotation_matrices(q)
        for row, m in zip(q, matrices):
            assert_same_bits(m, scalar_matrix(row))
            assert_same_bits(matrix(row), scalar_matrix(row))

    @pytest.mark.parametrize("case", ["signed_zeros", "unit_components", "near_1e150", "near_1e-150"])
    def test_exp_of_edge_rows(self, case):
        # zero vectors, vectors below the series cut and angles near 1e150 radians
        v = self.edge_rows(case, 3, np.random.default_rng(15))
        batch = geometry.exp_rotations(v)
        for row, q in zip(v, batch):
            assert_same_bits(q, scalar_exp(row))
            assert_same_bits(error_quaternion(row), scalar_exp(row))

    @pytest.mark.parametrize("case", ["unit_components", "near_1e-150"])
    def test_cross3_of_edge_rows(self, case):
        a, b = (self.edge_rows(case, 3, np.random.default_rng(seed)) for seed in (16, 17))
        want = np.cross(a, b)
        assert_same_bits(geometry.cross3(a, b), want)
        for i in range(0, len(a), 97):
            assert_same_bits(geometry.cross3(a[i], b[i]), want[i])

    def test_norms_of_a_batch_holding_a_nan_row_match_each_row_alone(self):
        # a NaN row once sent the whole batch past the rescaling of dot
        # products that overflow, so a row's norm depended on its batch
        v = np.array([[np.nan, 1.0, 2.0], [3e160, -4e160, 0.0], [1.0, 2.0, 2.0], [np.inf, 0.0, 0.0], [2e-170, 0.0, 0.0]])
        batch = geometry.norms(v)
        for row, n in zip(v, batch):
            assert_same_bits(n, geometry.norms(row[None])[0])
        assert np.isfinite(batch[1, 0]) and batch[2, 0] == 3.0 and batch[3, 0] == np.inf
