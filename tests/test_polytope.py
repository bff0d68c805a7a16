import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyhead import polytope
from polyhead.polytope import (ClassCountError, ClassifierWeights, PolytopeKind,
                               embedding_dim, expected_angle, make_cube,
                               make_orthoplex, make_simplex, simplex_rows,
                               verify_geometry)
from reference import (all_pair_angles, bits, loop_cube, loop_orthoplex, simplex_reference,
                       traced_peak, whole_gram_angles)

ALL_KINDS = list(PolytopeKind)


class TestEmbeddingDim:
    @pytest.mark.parametrize("kind,K,expected", [
        (PolytopeKind.SIMPLEX, 10, 9),
        (PolytopeKind.ORTHOPLEX, 10, 5),
        (PolytopeKind.CUBE, 47, 6),
        (PolytopeKind.CUBE, 2, 1),
        (PolytopeKind.CUBE, 10, 4),
        (PolytopeKind.ORTHOPLEX, 3, 2),
        (PolytopeKind.SIMPLEX, 2, 1),
    ])
    def test_values(self, kind, K, expected):
        assert embedding_dim(kind, K) == expected

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_small_class_counts(self, kind):
        for K in (0, 1, -3):
            with pytest.raises(ClassCountError):
                embedding_dim(kind, K)

    def test_size_bound_edge(self):
        # the simplex of 4097 classes is a 4097 x 4096 matrix, just over the bound
        assert 4096 * 4095 <= polytope.MAX_HEAD_ENTRIES < 4097 * 4096
        with pytest.raises(ClassCountError):
            make_simplex(4097)
        with pytest.raises(ClassCountError):
            make_cube(4, dim=polytope.MAX_HEAD_ENTRIES // 4 + 1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_in_class_count(self, kind):
        dims = [embedding_dim(kind, K) for K in range(2, 201)]
        assert all(a <= b for a, b in zip(dims, dims[1:]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vertex_budget_covers_classes(self, kind):
        budget = {
            PolytopeKind.SIMPLEX: lambda d: d + 1,
            PolytopeKind.ORTHOPLEX: lambda d: 2 * d,
            PolytopeKind.CUBE: lambda d: 2 ** d,
        }[kind]
        for K in range(2, 201):
            assert budget(embedding_dim(kind, K)) >= K


class TestExpectedAngle:
    def test_simplex_closed_form(self):
        assert expected_angle(PolytopeKind.SIMPLEX, 9) == pytest.approx(
            math.acos(-1.0 / 9.0), abs=0)

    def test_orthoplex_right_angle(self):
        assert expected_angle(PolytopeKind.ORTHOPLEX, 5) == math.pi / 2

    def test_cube_closed_form(self):
        assert expected_angle(PolytopeKind.CUBE, 6) == pytest.approx(
            math.acos(2.0 / 3.0), abs=0)

    def test_cube_d3(self):
        # evaluate the closed form independently at d=3
        assert expected_angle(PolytopeKind.CUBE, 3) == pytest.approx(
            math.acos(1.0 / 3.0), abs=1e-15)
        assert expected_angle(PolytopeKind.CUBE, 3) == pytest.approx(1.23096,
                                                                    abs=1e-5)


class TestSimplex:
    def test_k10_pairwise_cosines(self):
        w = make_simplex(10)
        assert w.dim == 9
        gram = w.rows @ w.rows.T
        off = gram[~np.eye(10, dtype=bool)]
        assert np.allclose(off, -1.0 / 9.0, atol=1e-12)

    def test_k2_antipodal(self):
        w = make_simplex(2)
        assert w.rows.shape == (2, 1)
        assert np.allclose(sorted(w.rows[:, 0]), [-1.0, 1.0], atol=1e-12)
        assert w.rows[0, 0] * w.rows[1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_k4_gram_matrix_oracle(self):
        w = make_simplex(4)
        expected = (-1.0 / 3.0) * np.ones((4, 4)) + (4.0 / 3.0) * np.eye(4)
        assert np.allclose(w.rows @ w.rows.T, expected, atol=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 5, 17, 50])
    def test_gram_structure(self, K):
        w = make_simplex(K)
        d = K - 1
        expected = (1.0 + 1.0 / d) * np.eye(K) - (1.0 / d) * np.ones((K, K))
        assert np.allclose(w.rows @ w.rows.T, expected, atol=1e-10)


class TestSimplexRows:
    # K on both sides of the first block edges, at and past the benchmark's 1000
    @pytest.mark.parametrize("K", [*range(2, 34), 127, 128, 129, 255, 256, 257,
                                   383, 384, 385, 511, 512, 513, 999, 1000, 1001, 4096])
    def test_matches_reference_bitwise(self, K):
        assert polytope.SIMPLEX_BLOCK_ROWS == 128
        for dim in sorted({K - 1, K, K + 5, 2 * K}):
            if (dim + 1) * dim > polytope.MAX_HEAD_ENTRIES:
                continue
            expected = simplex_reference(K, dim)
            assert bits(make_simplex(K, dim).rows) == bits(expected)
            for columns in {1, 2, 10, 32, dim} & set(range(1, dim + 1)):
                assert bits(simplex_rows(K, dim, columns)) == bits(expected[:, :columns])

    def test_simplex_1000_holds_its_rows_and_one_block(self):
        # the whole-matrix construction held two (d+1) x d arrays at its peak
        assert traced_peak(make_simplex, 1000) < 1.5 * 1000 * 999 * 8


class TestOrthoplex:
    def test_k10_dot_products(self):
        w = make_orthoplex(10)
        assert w.dim == 5
        gram = w.rows @ w.rows.T
        off = gram[~np.eye(10, dtype=bool)]
        assert set(np.round(off, 12)) <= {0.0, -1.0}

    def test_k3_selection_order(self):
        # hand-enumerated: +e1, -e1, +e2
        w = make_orthoplex(3)
        expected = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(w.rows, expected)

    def test_k4_square(self):
        w = make_orthoplex(4)
        assert w.dim == 2
        gram = w.rows @ w.rows.T
        assert gram[0, 1] == -1.0 and gram[2, 3] == -1.0
        assert gram[0, 2] == 0.0 and gram[1, 3] == 0.0


class TestCube:
    def test_k47_coordinates(self):
        w = make_cube(47)
        assert w.dim == 6
        assert np.allclose(np.abs(w.rows), 1.0 / math.sqrt(6), atol=0)
        assert np.allclose(np.linalg.norm(w.rows, axis=1), 1.0, atol=1e-15)

    def test_k4_square_vertices(self):
        w = make_cube(4)
        s = 1.0 / math.sqrt(2)
        expected = np.array([[-s, -s], [-s, s], [s, -s], [s, s]])
        assert np.allclose(w.rows, expected, atol=0)
        # adjacent vertices at right angle
        assert np.dot(w.rows[0], w.rows[1]) == pytest.approx(0.0, abs=1e-15)

    def test_k8_phi(self):
        w = make_cube(8)
        assert w.phi == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)
        assert w.phi == pytest.approx(1.23096, abs=1e-5)

    def test_lexicographic_enumeration(self):
        w = make_cube(3)
        s = 1.0 / math.sqrt(2)
        expected = np.array([[-s, -s], [-s, s], [s, -s]])
        assert np.allclose(w.rows, expected, atol=0)


class TestVerifyGeometry:
    @pytest.mark.parametrize("maker,K", [(make_simplex, 10),
                                         (make_orthoplex, 6),
                                         (make_cube, 8)])
    def test_generated_weights_pass(self, maker, K):
        check = verify_geometry(maker(K), tol=1e-10)
        assert check.passed
        assert check.worst_deviation <= 1e-10

    def test_orthoplex_min_angle(self):
        check = verify_geometry(make_orthoplex(6), tol=1e-10)
        assert check.min_angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_duplicated_row_fails(self):
        w = make_simplex(4)
        rows = w.rows.copy()
        rows[1] = rows[0]
        bad = polytope.ClassifierWeights(w.kind, rows, w.phi)
        check = verify_geometry(bad, tol=1e-10)
        assert not check.passed
        assert check.min_angle == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")  # inf * 0 in the Gram matrix warns nothing
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("maker", [make_simplex, make_orthoplex, make_cube])
    def test_a_non_finite_or_zero_row_fails(self, maker, value):
        w = maker(8)
        rows = w.rows.copy()
        rows[3] = value
        check = verify_geometry(ClassifierWeights(w.kind, rows, w.phi), tol=1e-10)
        assert not check.passed
        assert check.message.startswith("row norm deviates by")

    def test_a_large_head_builds_its_gram_matrix_in_blocks(self):
        # the whole Gram matrix alone is 200 MB; a head file of cube-40000's
        # would need 12.8 GB
        w = make_cube(5000)
        assert w.num_classes ** 2 > 5 * polytope.GRAM_BLOCK_ENTRIES
        check = verify_geometry(w)
        assert check.passed
        assert bits(check.min_angle) == bits(whole_gram_angles(w.rows)[-1])
        assert traced_peak(verify_geometry, w) < traced_peak(whole_gram_angles, w.rows) / 3

    @pytest.mark.parametrize("entries, rows_per_dim", [
        *[pytest.param(n, polytope.GRAM_ROWS_PER_DIM, id=str(n))
          for n in (1, 100, 1000, 47 * 47 - 1, 47 * 47)],
        pytest.param(polytope.GRAM_BLOCK_ENTRIES, 1, id="1-row-per-dim"),
        pytest.param(polytope.GRAM_BLOCK_ENTRIES, 16, id="16-rows-per-dim")])
    def test_every_block_size_gives_the_whole_matrix_angles(self, monkeypatch, entries,
                                                            rows_per_dim):
        # blocks of one row, of a few, a short last block, and one block, by
        # the entry cap; then blocks of d rows, and one block, by the row cap
        # (16 rows of the narrowest input's 3 entries hold all 47).  A product
        # of a few rows may round otherwise than the whole (see
        # network.SCORE_BLOCK_ROWS), so only one block is held to its bits
        monkeypatch.setattr(polytope, "GRAM_BLOCK_ENTRIES", entries)
        monkeypatch.setattr(polytope, "GRAM_ROWS_PER_DIM", rows_per_dim)
        one_block = entries >= 47 * 47 and rows_per_dim * 3 >= 47
        rng = np.random.default_rng(4)
        unit = rng.normal(size=(47, 6))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        for rows in (make_simplex(47).rows, make_orthoplex(47).rows,
                     make_cube(47).rows, unit, unit[:, ::2]):
            for largest in (False, True):
                blocked = polytope._extreme_angles(rows, largest)
                expected = whole_gram_angles(rows, largest)
                if one_block:
                    assert bits(blocked) == bits(expected)
                np.testing.assert_allclose(blocked, expected, rtol=0, atol=1e-14)


class TestMinPairwiseAngle:
    def test_matches_min_of_all_angles_bitwise(self):
        heads = [maker(K) for maker in (make_simplex, make_orthoplex, make_cube)
                 for K in [*range(2, 70), 128]]
        # cube-2000 is 12 blocks of 176 rows, cube-4096 22 of 192
        heads += [make_orthoplex(1000), make_cube(1000), make_cube(2000), make_cube(4096)]
        row_sets = [w.rows for w in heads]
        rng = np.random.default_rng(3)
        for K, d in [(2, 1), (2, 3), (5, 2), (47, 6), (300, 10), (1000, 10)]:
            unit = rng.normal(size=(K, d))
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            row_sets += [unit, rng.normal(size=(K, d)) * 3.0]  # the latter clips
            twin = unit.copy()
            twin[-1] = twin[0]
            row_sets.append(twin)
        # strided views, whose own Gram matrices need not be symmetric; with a
        # near-twin pair, the largest cosine turns on its last bits
        row_sets.append(rng.normal(size=(300, 20))[:, ::2])
        twin_rng = np.random.default_rng(1)
        near = twin_rng.normal(size=(24, 64)) / 8.0
        near[7] = near[9] + 1e-9 * twin_rng.normal(size=64)
        row_sets.append(near[:, ::2])
        unit = np.random.default_rng(6).normal(size=(2000, 8))  # 16 blocks of 128 rows
        row_sets.append(unit / np.linalg.norm(unit, axis=1, keepdims=True))
        for rows in row_sets:
            # one max over the whole Gram matrix stands for the max of its upper
            # triangle only if the matrix is symmetric bit for bit
            contiguous = np.ascontiguousarray(rows)
            g = contiguous @ contiguous.T
            assert np.array_equal(g, g.T)
            expected = all_pair_angles(rows).min()
            assert bits(polytope.min_pairwise_angle(rows)) == bits(expected)

    def test_verify_geometry_reports_the_same_min_angle(self):
        w = make_cube(1000)
        check = verify_geometry(w)
        assert check.passed
        assert bits(check.min_angle) == bits(
            all_pair_angles(w.rows).min())

    def test_cube_1000_check_holds_only_the_gram_matrix(self):
        w = make_cube(1000)
        assert traced_peak(verify_geometry, w) < 1.25 * 1000 * 1000 * 8

    def test_cube_2000_check_holds_a_few_rows_of_the_gram_matrix(self):
        # blocks of 16 d = 176 rows, 2.8 MB; the whole Gram matrix is 32 MB
        w = make_cube(2000)
        assert traced_peak(verify_geometry, w) < 4e6


class TestGeometryProperty:
    @settings(max_examples=80)
    @given(kind=st.sampled_from(ALL_KINDS), K=st.integers(2, 200),
           extra_dims=st.integers(0, 8), nudge_seed=st.integers(0, 2**32 - 1))
    def test_check_matches_brute_force(self, kind, K, extra_dims, nudge_seed):
        w = polytope._MAKERS[kind](K, embedding_dim(kind, K) + extra_dims)
        heads = [w]
        if kind is PolytopeKind.SIMPLEX and w.dim > 1:
            # one row turned by about 1e-6 rad: a FAIL on the angle
            rows = w.rows.copy()
            rng = np.random.default_rng(nudge_seed)
            i = rng.integers(K)
            rows[i] += 1e-6 * rng.normal(size=w.dim)
            rows[i] /= np.linalg.norm(rows[i])
            heads.append(ClassifierWeights(w.kind, rows, w.phi))
        for head in heads:
            check = verify_geometry(head, tol=1e-10)
            assert check.passed is (head is w), check.message
            angles = all_pair_angles(head.rows)
            assert bits(check.min_angle) == bits(angles.min())
            if kind is PolytopeKind.SIMPLEX:
                norm_dev = np.abs(np.linalg.norm(head.rows, axis=1) - 1.0).max()
                expected = max(norm_dev, np.abs(angles - w.phi).max())
                assert bits(check.worst_deviation) == bits(expected)
        assert check.passed or check.message.startswith("pairwise angle deviates")


class TestInvariants:
    # explicit dims past 64 shift the cube's bit matrix beyond an int64
    @pytest.mark.parametrize("maker,reference", [(make_orthoplex, loop_orthoplex),
                                                 (make_cube, loop_cube)])
    def test_matches_loop_reference_bitwise(self, maker, reference):
        sizes = [(K, None) for K in [*range(2, 130), 1000, 4096]]
        for K, dim in sizes + [(3, 7), (5, 8), (4, 70), (7, 65)]:
            w = maker(K, dim)
            assert w.rows.tobytes() == reference(K, w.dim).tobytes()

    @pytest.mark.parametrize("maker", [make_simplex, make_orthoplex, make_cube])
    def test_unit_norms_k2_to_200(self, maker):
        for K in range(2, 201):
            rows = maker(K).rows
            assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("K", range(2, 40))
    def test_cube_min_angle(self, K):
        w = make_cube(K)
        angles = all_pair_angles(w.rows)
        assert abs(angles.min() - w.phi) <= 1e-10

    @pytest.mark.parametrize("maker", [make_simplex, make_orthoplex, make_cube])
    def test_deterministic(self, maker):
        a, b = maker(23), maker(23)
        assert np.array_equal(a.rows, b.rows)
        assert a.phi == b.phi

    @pytest.mark.parametrize("maker", [make_simplex, make_orthoplex, make_cube])
    def test_phi_matches_expected_angle(self, maker):
        w = maker(12)
        assert w.phi == expected_angle(w.kind, w.dim)


class TestSerialization:
    def test_json_round_trip_exact(self, tmp_path):
        w = make_simplex(10)
        path = tmp_path / "w.json"
        polytope.save_json(w, path)
        again = polytope.load_json(path)
        assert again.kind == w.kind
        assert again.num_classes == w.num_classes
        assert again.dim == w.dim
        assert again.phi == w.phi
        assert np.array_equal(again.rows, w.rows)

    def test_schema_keys(self, tmp_path):
        path = tmp_path / "w.json"
        polytope.save_json(make_cube(5), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"kind", "K", "d", "phi", "rows"}
        assert payload["kind"] == "cube"
        assert payload["rows"]["shape"] == [5, 3] and set(payload["rows"]) == {"shape", "base64"}

    @pytest.mark.parametrize("shape", [[2 ** 12, 2 ** 12 + 1], [10 ** 400, 1]],
                             ids=["just_over", "beyond_float"])
    def test_too_many_rows_refused_before_decoding(self, tmp_path, monkeypatch, shape):
        payload = polytope.to_dict(make_cube(4))
        payload["rows"]["shape"] = shape
        path = tmp_path / "w.json"
        path.write_text(json.dumps(payload))

        def no_decoding(*args, **kwargs):
            raise AssertionError("base64 was decoded")
        monkeypatch.setattr(polytope.base64, "b64decode", no_decoding)
        with pytest.raises(polytope.StructuralError,
                           match=f"^rows shape .* holds more than {polytope.MAX_HEAD_ENTRIES} "
                                 "entries$"):
            polytope.load_json(path)


class TestJsonField:
    @pytest.mark.parametrize("value,kind,items,expected", [
        (3, int, int, 3), (3, float, int, 3.0), (2.5, float, int, 2.5),
        (-10 ** 308, float, int, -1e308), (True, bool, int, True), ("a", str, int, "a"),
        ({}, dict, int, {}), ([1, 2], list, int, [1, 2]), ([{}], list, dict, [{}]),
    ], ids=["int", "int_as_number", "float", "large_int_as_number", "bool", "str",
            "object", "list_of_ints", "list_of_objects"])
    def test_accepts_its_kind(self, value, kind, items, expected):
        got = polytope.json_field({"k": value}, "k", kind, items=items)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_numbers(self, value):
        got = polytope.json_field({"k": value}, "k", float)
        assert got is value or (math.isnan(got) and math.isnan(value))

    @pytest.mark.parametrize("value,kind,items,noun", [
        (True, int, int, "integer"), (3.0, int, int, "integer"),
        (True, float, int, "number in float range"),
        ("1", float, int, "number in float range"),
        (10 ** 400, float, int, "number in float range"),
        (-10 ** 400, float, int, "number in float range"),
        (1, bool, int, "true/false"), (None, str, int, "string"),
        ([], dict, int, "object"), ([True], list, int, "list of integers"),
        ([1.0], list, int, "list of integers"), ({}, list, dict, "list of objects"),
        ([{}, 1], list, dict, "list of objects"),
    ], ids=["bool_as_int", "float_as_int", "bool_as_number", "str_as_number",
            "int_beyond_float", "negative_int_beyond_float", "int_as_bool", "null_as_str",
            "list_as_object", "bool_in_int_list", "float_in_int_list", "object_as_list",
            "int_in_object_list"])
    def test_refuses_and_names_the_key(self, value, kind, items, noun):
        with pytest.raises(polytope.StructuralError) as info:
            polytope.json_field({"k": value}, "k", kind, items=items)
        assert str(info.value) == f"k must be a JSON {noun}, got {value!r:.40}"

    def test_name_replaces_the_key_and_none_reads_the_value_itself(self):
        with pytest.raises(polytope.StructuralError, match="^section key 'k' must"):
            polytope.json_field({"k": "x"}, "k", int, "section key 'k'")
        assert polytope.json_field([1], None, list, "doc") == [1]
        with pytest.raises(polytope.StructuralError,
                           match=r"^doc must be a JSON object, got \[1\]$"):
            polytope.json_field([1], None, dict, "doc")

    def test_every_integer_in_float_range_is_a_number(self):
        largest = int(sys.float_info.max)
        assert polytope.json_field({"k": largest}, "k", float) == sys.float_info.max
        with pytest.raises(polytope.StructuralError):
            polytope.json_field({"k": largest + 1}, "k", float)
