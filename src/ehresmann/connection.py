"""Ehresmann connection data and N-fold split structures.

A connection is packaged as a vertical and a horizontal frame over one
chart, with the two projectors built from a shared pointwise solve.  A split
structure refines one side into equal-rank blocks and carries the canonical
endomorphism pairs between each block and the opposite distribution; all the
algebraic identities the derivative formulas rely on are validated at
construction time, and construction fails when they do not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    CheckConfig, DEFAULT_CHECK, Endo11, FRAME_DEGENERACY_RATIO, FieldStack,
    Frame, FrameSolver, GeometryError, VectorField, _invert_points,
    frame_ratio, projector_from_solver, validate_frame, validate_tangent,
    vf_add, vf_scale, vf_sub,
)
from .jets import JetBatch
from .report import DevTracker, max_abs

SPLIT_IDENTITY_TOL = 1e-10
PROJECTOR_TOL = 1e-10
VERTICALITY_TOL = 1e-10

K_VERTICAL = "k-vertical"
K_HORIZONTAL = "k-horizontal"


class ConnectionDataError(GeometryError):
    """Connection or split data failed its construction-time validation."""


@dataclass(eq=False)
class EhresmannConnection:
    """Vertical/horizontal frames with their complementary projectors."""

    space: object
    vertical: Frame
    horizontal: Frame
    p_v: Endo11
    p_h: Endo11
    solver: FrameSolver

    @property
    def all_fields(self) -> tuple:
        return self.solver.fields


def build_connection(space, vertical: Frame, horizontal: Frame,
                     cfg: CheckConfig = DEFAULT_CHECK) -> EhresmannConnection:
    """Assemble and validate a connection; any failed invariant aborts."""
    if vertical.rank + horizontal.rank != space.dim:
        raise ConnectionDataError(
            f"vertical rank {vertical.rank} + horizontal rank "
            f"{horizontal.rank} != dim {space.dim} of {space.name}")
    fields = tuple(vertical.fields) + tuple(horizontal.fields)
    for f in fields:    # read by the validators, the solve and every check
        f.share()
    columns = validate_frame(space, fields, cfg)
    if space.constraints:
        for f in fields:
            validate_tangent(space, f, cfg)
    if space.base_coords and not space.constraints:
        base_idx = [space.index(b) for b in space.base_coords]
        dev = max_abs(vals[i] for at_point in columns
                      for vals in at_point[:vertical.rank] for i in base_idx)
        if not dev <= VERTICALITY_TOL:
            raise ConnectionDataError(
                f"vertical frame of {space.name} has base components up to "
                f"{dev:.3e}; it does not project to zero")
    solver = FrameSolver(space, fields)
    p_v = projector_from_solver(solver, range(vertical.rank), "P_V")
    p_h = projector_from_solver(
        solver, range(vertical.rank, vertical.rank + horizontal.rank), "P_H")
    conn = EhresmannConnection(space, vertical, horizontal, p_v, p_h, solver)
    _validate_projectors(conn, cfg)
    return conn


def _validate_projectors(conn: EhresmannConnection, cfg: CheckConfig):
    pts = conn.space.sample_points(cfg)
    tracker = DevTracker()
    for X in conn.all_fields:
        tracker.track(pts, vf_sub(vf_add(conn.p_v(X), conn.p_h(X)), X))
        tracker.track(pts, vf_sub(conn.p_v(conn.p_v(X)), conn.p_v(X)))
        tracker.track(pts, conn.p_v(conn.p_h(X)))
    if not tracker.max_dev <= PROJECTOR_TOL:
        raise ConnectionDataError(
            f"projector identities fail on {conn.space.name}: "
            f"max deviation {tracker.max_dev:.3e}")


@dataclass(eq=False)
class SplitStructure:
    """Distribution K plus equal-rank blocks with endomorphism pairs.

    ``s_endos[A]`` maps block A onto K (kernel: K and the other blocks);
    ``q_endos[A]`` maps K onto block A (kernel: every block).  The
    aggregates are the 1/sqrt(N)-scaled sums, so s_total . q_total produces
    exactly the projector onto K.  Display names follow the convention that
    vertical-valued endomorphisms read "S" and horizontal-valued ones "Q",
    whichever side K happens to be.
    """

    conn: EhresmannConnection
    orientation: str
    k: Frame
    blocks: tuple
    s_endos: tuple
    q_endos: tuple
    s_total: Endo11
    q_total: Endo11
    p_k: Endo11
    p_blocks: tuple
    solver: FrameSolver

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def space(self):
        return self.conn.space

    @property
    def all_fields(self) -> tuple:
        return self.solver.fields

    @cached_property
    def stack(self) -> FieldStack:
        """The frame on a member axis, built once per split, so the checks
        that stack it share one evaluation cache."""
        return FieldStack(self.all_fields)


def _endo_labels(orientation: str, n: int):
    # S names vertical-valued maps, Q horizontal-valued ones
    if orientation == K_VERTICAL:
        s_names = [f"S_{a + 1}" for a in range(n)]
        q_names = [f"Q_{a + 1}" for a in range(n)]
        totals = ("S", "Q")
    else:
        s_names = [f"Q_{a + 1}" for a in range(n)]
        q_names = [f"S^{a + 1}" for a in range(n)]
        totals = ("Q", "S")
    return s_names, q_names, totals


def canonical_endos(conn: EhresmannConnection, blocks,
                    orientation: str = K_VERTICAL,
                    cfg: CheckConfig = DEFAULT_CHECK,
                    pairings=None) -> SplitStructure:
    """Build the canonical endomorphism pairs from the dual coframe.

    The b-th field of each block pairs with the b-th K field (an explicit
    invertible matrix per block may override that pairing).  The returned
    structure has already passed :func:`validate_split`.
    """
    if orientation not in (K_VERTICAL, K_HORIZONTAL):
        raise ValueError(f"unknown orientation {orientation!r}")
    k_frame = conn.vertical if orientation == K_VERTICAL else conn.horizontal
    other = conn.horizontal if orientation == K_VERTICAL else conn.vertical
    blocks = tuple(blocks)
    r = k_frame.rank
    for block in blocks:
        if block.rank != r:
            raise ConnectionDataError(
                f"block {block.name!r} has rank {block.rank}, expected "
                f"rank(K) = {r}")
    if sum(b.rank for b in blocks) != other.rank:
        raise ConnectionDataError(
            f"blocks of total rank {sum(b.rank for b in blocks)} do not "
            f"partition a rank-{other.rank} distribution")
    if pairings is None:
        pairings = [None] * len(blocks)
    if len(pairings) != len(blocks):
        raise ConnectionDataError("one pairing override per block")

    space = conn.space
    fields = tuple(k_frame.fields) + tuple(
        f for b in blocks for f in b.fields)
    solver = conn.solver if fields == conn.solver.fields \
        else FrameSolver(space, fields)
    covs = solver.coframe()
    k_covs = covs[:r]

    s_names, q_names, (s_tot_name, q_tot_name) = _endo_labels(
        orientation, len(blocks))
    scale = 1.0 / math.sqrt(len(blocks))

    s_endos, q_endos = [], []
    s_terms_all, q_terms_all = [], []
    offset = r
    for a, block in enumerate(blocks):
        mat = pairings[a]
        if mat is None:
            k_images = list(k_frame.fields)
            block_images = list(block.fields)
        else:
            shape = np.asarray(mat, dtype=object).shape
            if shape != (r, r):
                raise ConnectionDataError(
                    f"pairing matrix for block {block.name!r} has shape "
                    f"{'x'.join(map(str, shape))}, expected {r}x{r}")
            ratio = frame_ratio(mat)
            if not ratio > FRAME_DEGENERACY_RATIO:
                raise ConnectionDataError(
                    f"pairing matrix is singular for block {block.name!r}: "
                    f"singular-value ratio {ratio:.3e}")
            minv = _invert_points(JetBatch(np.array(
                mat, dtype=float)[:, :, None], 0, 0), r).a[:, :, 0]
            k_images = [
                _combine(space, k_frame.fields,
                         [mat[c][b] for c in range(r)],
                         f"{s_names[a]}.k{b + 1}")
                for b in range(r)]
            block_images = [
                _combine(space, block.fields,
                         [minv[b][c] for b in range(r)],
                         f"{q_names[a]}.e{c + 1}")
                for c in range(r)]
        block_covs = covs[offset:offset + r]
        s_terms = [(block_covs[b], k_images[b]) for b in range(r)]
        q_terms = [(k_covs[c], block_images[c]) for c in range(r)]
        s_endos.append(Endo11.from_terms(space, s_terms, s_names[a]))
        q_endos.append(Endo11.from_terms(space, q_terms, q_names[a]))
        s_terms_all.extend((w, vf_scale(scale, e)) for w, e in s_terms)
        q_terms_all.extend((w, vf_scale(scale, e)) for w, e in q_terms)
        offset += r

    s_total = Endo11.from_terms(space, s_terms_all, s_tot_name)
    q_total = Endo11.from_terms(space, q_terms_all, q_tot_name)
    p_k = projector_from_solver(solver, range(r), "P_K")
    p_blocks = []
    offset = r
    for a, block in enumerate(blocks):
        p_blocks.append(projector_from_solver(
            solver, range(offset, offset + block.rank),
            f"P_{block.name or f'L{a + 1}'}"))
        offset += block.rank

    split = SplitStructure(conn, orientation, k_frame, blocks,
                           tuple(s_endos), tuple(q_endos), s_total, q_total,
                           p_k, tuple(p_blocks), solver)
    rep = validate_split(split, cfg)
    if not rep.passed:
        failed = [r.check_id for r in rep.records if not r.passed]
        raise ConnectionDataError(
            f"split identities failed on {space.name}: {failed} "
            f"(worst deviation {rep.max_dev:.3e})")
    return split


def _combine(space, fields, coefficients, name) -> VectorField:
    out = None
    for c, f in zip(coefficients, fields):
        if c == 0.0:
            continue
        term = vf_scale(float(c), f)
        out = term if out is None else vf_add(out, term)
    return out if out is not None else VectorField.zero(space, name)


@dataclass
class SplitReport:
    records: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_dev(self) -> float:
        return max_abs(r.max_dev for r in self.records)


def validate_split(split: SplitStructure,
                   cfg: CheckConfig = DEFAULT_CHECK) -> SplitReport:
    """Check every endomorphism-pair identity at sampled points.

    The aggregate identity s_total . q_total = P_K is what the 1/sqrt(N)
    normalization exists for, so that is asserted directly; no per-term
    property of the scaling is claimed.
    """
    pts = split.space.sample_points(cfg)
    records = []
    reference = "endomorphism pair identities"

    def run(check_id, field_for_probe, probes=split.all_fields):
        tracker = DevTracker()
        for X in probes:
            tracker.track(pts, field_for_probe(X))
        records.append(tracker.record(check_id, reference,
                                      SPLIT_IDENTITY_TOL))

    n = split.n
    for a in range(n):
        s_a, q_a, p_a = split.s_endos[a], split.q_endos[a], split.p_blocks[a]
        run(f"split:{q_a.name}∘{s_a.name}=P_block{a + 1}",
            lambda X, s=s_a, q=q_a, pb=p_a: vf_sub(q(s(X)), pb(X)))
        run(f"split:{s_a.name}∘{q_a.name}=P_K",
            lambda X, s=s_a, q=q_a: vf_sub(s(q(X)), split.p_k(X)))
        for b in range(n):
            if b != a:
                run(f"split:{split.s_endos[a].name}∘{split.q_endos[b].name}=0",
                    lambda X, s=split.s_endos[a], q=split.q_endos[b]: s(q(X)))
        # kernel: fields outside block a are annihilated by s_endos[a]
        outside = list(split.k.fields) + [
            f for bb in range(n) if bb != a for f in split.blocks[bb].fields]
        run(f"split:ker({s_a.name})⊇complement", s_a, outside)
    run("split:aggregate S∘Q=P_K",
        lambda X: vf_sub(split.s_total(split.q_total(X)), split.p_k(X)))
    return SplitReport(records)
