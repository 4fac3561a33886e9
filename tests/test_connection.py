"""Tests for connection packaging and split-structure validation."""

from __future__ import annotations

import math

import pytest

from ehresmann import connection
from ehresmann.connection import (
    ConnectionDataError, K_HORIZONTAL, K_VERTICAL, SplitStructure,
    build_connection, canonical_endos, validate_split,
)
from ehresmann.geometry import (
    ChartedSpace, CheckConfig, Frame, VectorField,
)
from ehresmann.report import CheckRecord, max_abs

CFG = CheckConfig(samples=8)


@pytest.fixture(scope="module")
def flat_tr2():
    """TR^2 with zero connection coefficients."""
    space = ChartedSpace("flat-tr2", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    h = Frame((VectorField.coordinate(space, "x1", "H1"),
               VectorField.coordinate(space, "x2", "H2")), "H")
    v = Frame((VectorField.coordinate(space, "u1", "V1"),
               VectorField.coordinate(space, "u2", "V2")), "V")
    return space, v, h


@pytest.fixture(scope="module")
def tilted_circle():
    space = ChartedSpace("tilted", ("x", "y", "th"), base_coords=("x", "y"))
    h1 = VectorField.from_exprs(space, ["1", "0", "cos(th)"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "sin(th)"], "H2")
    v = VectorField.from_exprs(space, ["0", "0", "1"], "V")
    return space, Frame((v,), "V"), Frame((h1, h2), "H")


@pytest.fixture(scope="module")
def affine_tm():
    """Adapted frame for coefficients G^1_12 = x1, G^2_21 = x2."""
    space = ChartedSpace("affine-tm", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    h1 = VectorField.from_exprs(space, ["1", "0", "-(x1*u2)", "0"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "0", "-(x2*u1)"], "H2")
    v1 = VectorField.coordinate(space, "u1", "V1")
    v2 = VectorField.coordinate(space, "u2", "V2")
    return space, Frame((v1, v2), "V"), Frame((h1, h2), "H")


# ---------------------------------------------------------------------------
# connection construction
# ---------------------------------------------------------------------------


def test_flat_connection_projectors(flat_tr2):
    space, v, h = flat_tr2
    conn = build_connection(space, v, h, CFG)
    dx = VectorField.coordinate(space, "x1")
    du = VectorField.coordinate(space, "u1")
    p = space.point((0.3, -0.1, 0.8, 0.2))
    assert conn.p_h(dx).values(p) == pytest.approx([1, 0, 0, 0], abs=1e-12)
    assert conn.p_v(du).values(p) == pytest.approx([0, 0, 1, 0], abs=1e-12)


def test_tilted_connection_is_valid(tilted_circle):
    conn = build_connection(*tilted_circle, CFG)
    assert conn.vertical.rank == 1
    assert conn.horizontal.rank == 2


def test_rank_mismatch_rejected(flat_tr2):
    space, v, h = flat_tr2
    short = Frame((v.fields[0],), "V-short")
    with pytest.raises(ConnectionDataError):
        build_connection(space, short, h, CFG)


def test_nonvertical_frame_rejected(flat_tr2):
    space, v, h = flat_tr2
    # a "vertical" field with a base component
    bad = Frame((v.fields[0],
                 VectorField.from_exprs(space, ["1", "0", "0", "1"], "bad")),
                "V-bad")
    with pytest.raises(ConnectionDataError):
        build_connection(space, bad, h, CFG)


# ---------------------------------------------------------------------------
# canonical endomorphisms
# ---------------------------------------------------------------------------


def test_affine_endos_map_h_to_v(affine_tm):
    space, v, h = affine_tm
    conn = build_connection(space, v, h, CFG)
    split = canonical_endos(conn, [h], K_VERTICAL, CFG)
    s, q = split.s_total, split.q_total
    for p in space.sample_points(CFG):
        for a in range(2):
            assert s(h.fields[a]).values(p) == pytest.approx(
                v.fields[a].values(p), abs=1e-10)
            assert max(abs(c) for c in s(v.fields[a]).values(p)) < 1e-10
            assert q(v.fields[a]).values(p) == pytest.approx(
                h.fields[a].values(p), abs=1e-10)


def test_equal_rank_aggregates_give_both_projectors(affine_tm):
    space, v, h = affine_tm
    conn = build_connection(space, v, h, CFG)
    split = canonical_endos(conn, [h], K_VERTICAL, CFG)
    s, q = split.s_total, split.q_total
    for p in space.sample_points(CFG):
        for f in split.all_fields:
            sq = s(q(f)).values(p)
            pk = split.p_k(f).values(p)
            assert sq == pytest.approx(pk, abs=1e-10)
            qs = q(s(f)).values(p)
            pl = split.p_blocks[0](f).values(p)
            assert qs == pytest.approx(pl, abs=1e-10)


def test_two_block_split_identities(tilted_circle):
    space, v, h = tilted_circle
    conn = build_connection(space, v, h, CFG)
    blocks = [Frame((h.fields[0],), "H1"), Frame((h.fields[1],), "H2")]
    split = canonical_endos(conn, blocks, K_VERTICAL, CFG)
    records = validate_split(split, CFG)
    assert all(r.passed for r in records)
    assert max_abs(r.max_dev for r in records) < 1e-10


def test_split_shares_the_connection_solver_when_the_frames_agree(
        tilted_circle):
    # under k-vertical with the horizontal frame's fields as blocks, in
    # order, both solvers would invert the same matrix
    space, v, h = tilted_circle
    conn = build_connection(space, v, h, CFG)
    blocks = [Frame((h.fields[0],), "H1"), Frame((h.fields[1],), "H2")]
    assert canonical_endos(conn, blocks, K_VERTICAL, CFG).solver is \
        conn.solver
    swapped = canonical_endos(conn, blocks[::-1], K_VERTICAL, CFG)
    assert swapped.solver is not conn.solver
    assert swapped.solver.fields == (v.fields[0], h.fields[1], h.fields[0])


def test_flipped_orientation_frame_blocks():
    # two fibre blocks of rank 1 over a rank-1 horizontal distribution
    space = ChartedSpace("flip", ("x", "u1", "u2"), base_coords=("x",))
    h = Frame((VectorField.coordinate(space, "x", "H"),), "H")
    v1 = VectorField.coordinate(space, "u1", "V1")
    v2 = VectorField.coordinate(space, "u2", "V2")
    conn = build_connection(space, Frame((v1, v2), "V"), h, CFG)
    blocks = [Frame((v1,), "V1"), Frame((v2,), "V2")]
    split = canonical_endos(conn, blocks, K_HORIZONTAL, CFG)
    # horizontal-valued maps are named Q, vertical-valued ones S
    assert split.s_endos[0].name.startswith("Q")
    assert split.q_endos[0].name.startswith("S")
    p = space.point((0.1, 0.2, 0.3))
    # s_endos (role: block -> K) send the block field to its K partner
    assert split.s_endos[0](v1).values(p) == pytest.approx(
        h.fields[0].values(p), abs=1e-12)
    assert max(abs(c) for c in split.s_endos[0](v2).values(p)) < 1e-12


def test_block_rank_mismatch_rejected(tilted_circle):
    space, v, h = tilted_circle
    conn = build_connection(space, v, h, CFG)
    with pytest.raises(ConnectionDataError):
        canonical_endos(conn, [Frame(h.fields, "H-all")], K_VERTICAL, CFG)


def test_corrupted_pairing_fails_validation(tilted_circle):
    space, v, h = tilted_circle
    conn = build_connection(space, v, h, CFG)
    blocks = [Frame((h.fields[0],), "H1"), Frame((h.fields[1],), "H2")]
    split = canonical_endos(conn, blocks, K_VERTICAL, CFG)
    # swap the block pairing of the q-endomorphisms by hand
    corrupted = SplitStructure(
        split.conn, split.orientation, split.k, split.blocks,
        split.s_endos, (split.q_endos[1], split.q_endos[0]),
        split.s_total, split.q_total, split.p_k, split.p_blocks,
        split.solver)
    records = validate_split(corrupted, CFG)
    assert not all(r.passed for r in records)
    failed = {r.check_id for r in records if not r.passed}
    assert any("∘" in cid and "=0" in cid for cid in failed) or \
        any("P_block" in cid for cid in failed)


def test_pairing_reorder_is_metamorphic(affine_tm):
    # reordering the block and the K frame by the same permutation leaves
    # every identity valid
    space, v, h = affine_tm
    v2 = Frame((v.fields[1], v.fields[0]), "V")
    h2 = Frame((h.fields[1], h.fields[0]), "H")
    conn = build_connection(space, v2, h2, CFG)
    split = canonical_endos(conn, [h2], K_VERTICAL, CFG)
    assert all(r.passed for r in validate_split(split, CFG))


def test_explicit_pairing_matrix(affine_tm):
    space, v, h = affine_tm
    conn = build_connection(space, v, h, CFG)
    pairing = [[0.0, 1.0], [1.0, 0.0]]  # swap the two K fields
    split = canonical_endos(conn, [h], K_VERTICAL, CFG, pairings=[pairing])
    assert all(r.passed for r in validate_split(split, CFG))
    p = space.point((0.2, -0.3, 0.5, 0.7))
    assert split.s_endos[0](h.fields[0]).values(p) == pytest.approx(
        v.fields[1].values(p), abs=1e-10)


def test_singular_pairing_matrix_rejected(affine_tm):
    space, v, h = affine_tm
    conn = build_connection(space, v, h, CFG)
    with pytest.raises(ConnectionDataError):
        canonical_endos(conn, [h], K_VERTICAL, CFG,
                        pairings=[[[1.0, 1.0], [1.0, 1.0]]])


def test_nan_pairing_matrix_rejected(affine_tm):
    space, v, h = affine_tm
    conn = build_connection(space, v, h, CFG)
    with pytest.raises(ConnectionDataError, match="pairing matrix is singular"):
        canonical_endos(conn, [h], K_VERTICAL, CFG,
                        pairings=[[[math.nan, 1.0], [1.0, 0.0]]])


def test_split_report_keeps_nan_in_second_record(tilted_circle,
                                                 monkeypatch):
    # the construction error reports the worst deviation of the records
    # validate_split returns: a NaN in the second record is not dropped
    recs = [CheckRecord(f"r{i}", "", dev, 1e-10, dev < 1e-10)
            for i, dev in enumerate([1e-12, math.nan, 1e-3])]
    monkeypatch.setattr(connection, "validate_split", lambda split, cfg: recs)
    space, v, h = tilted_circle
    conn = build_connection(space, v, h, CFG)
    blocks = [Frame((h.fields[0],), "H1"), Frame((h.fields[1],), "H2")]
    with pytest.raises(ConnectionDataError,
                       match=r"\['r1', 'r2'\] \(worst deviation nan\)"):
        canonical_endos(conn, blocks, K_VERTICAL, CFG)


@pytest.mark.parametrize("mat,shape", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "3x3"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "2x3"),
    ([1.0, 0.0], "2"),
], ids=["3x3", "2x3", "flat"])
def test_pairing_matrix_shape_rejected(affine_tm, mat, shape):
    space, v, h = affine_tm
    conn = build_connection(space, v, h, CFG)
    with pytest.raises(ConnectionDataError) as err:
        canonical_endos(conn, [h], K_VERTICAL, CFG, pairings=[mat])
    message = str(err.value)
    assert repr(h.name) in message
    assert f"shape {shape}, expected 2x2" in message
