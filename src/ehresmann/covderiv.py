"""Covariant derivative operators built from split structures.

The single engine below, :func:`total_derivative`, assembles every
total-space operator this package ships: extend a derivative that lives on
one distribution to all direction arguments, do the same for each block of
the opposite side, and glue the extensions over the direct-sum
decomposition.  The equal-rank case (N = 1) and the N-block case differ only
in how many parts enter the glue, and flipping the orientation of the split
reuses the identical code path.

Derived operators: torsion, the curvature of the underlying connection, and
the derivative of a (1,1)-tensor, plus the projector-parallelism equivalence
check used as a cross-validation of the glue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .connection import (
    EhresmannConnection, K_VERTICAL, SplitStructure, build_connection,
    canonical_endos,
)
from .geometry import (
    CheckConfig, DEFAULT_CHECK, Endo11, FieldStack, Frame, GeometryError,
    VectorField, lie_bracket, vf_add, vf_sub,
)
from .report import DevTracker

MEMBERSHIP_TOL = 1e-9


class CovDerivError(GeometryError):
    pass


class MembershipError(CovDerivError):
    """An argument field does not lie in the distribution the rule covers."""


@dataclass(eq=False)
class SubmoduleDeriv:
    """A derivative defined for arguments taking values in one distribution.

    ``rule(X, Y)`` may assume both arguments lie in Img(projector); the
    value is not required to.
    """

    projector: Endo11
    rule: Callable
    name: str


def assert_in_image(P: Endo11, Y: VectorField,
                    cfg: CheckConfig = DEFAULT_CHECK,
                    tol: float = MEMBERSHIP_TOL):
    """Numeric membership check: P(Y) = Y at a few sampled points."""
    tracker = DevTracker()
    tracker.track(Y.space.sample_points(cfg.probe()), vf_sub(P(Y), Y))
    if not tracker.max_dev <= tol:
        raise MembershipError(f"{Y.name} is not in Img({P.name}): "
                              f"deviation {tracker.max_dev:.3e}")


def extend_derivative(d: SubmoduleDeriv, P: Endo11,
                 cfg: CheckConfig = DEFAULT_CHECK,
                 check_membership: bool = True) -> Callable:
    """Extend d to arbitrary direction arguments.

    The extension is d_{P(X)} Y plus the projected bracket correction
    P([X - P(X), Y]); for X already in the image the correction vanishes
    and the original rule is recovered.
    """

    def extended(X: VectorField, Y: VectorField) -> VectorField:
        if check_membership:
            assert_in_image(P, Y, cfg)
        px = P(X)
        main = d.rule(px, Y)
        correction = P(lie_bracket(vf_sub(X, px), Y))
        return vf_add(main, correction,
                      name=f"ext{d.name}_{X.name}({Y.name})")

    return extended


@dataclass(eq=False)
class CovDeriv:
    """A covariant derivative operator on the whole space.

    ``parts`` keeps the (projector, extended rule) pairs the operator was
    glued from, so per-block diagnostics stay available downstream.
    Outputs are memoized per argument-instance pair; fields are immutable,
    so a repeated (X, Y) always means the same derivative field, and a
    memo output is marked by :meth:`~geometry._Field.share`.
    """

    space: object
    rule: Callable
    provenance: str
    parts: tuple = ()

    def __post_init__(self):
        self._memo = {}

    def __call__(self, X: VectorField, Y: VectorField) -> VectorField:
        out = self._memo.get((X, Y))
        if out is None:
            out = self._memo[X, Y] = self.rule(X, Y).share()
        return out


def glue_derivatives(parts, cfg: CheckConfig = DEFAULT_CHECK,
                     probe_fields=None, provenance: str = "glue") -> CovDeriv:
    """Glue extended derivatives over a direct-sum decomposition; the
    projectors must sum to the identity on the probe fields."""
    parts = tuple(parts)
    if not parts:
        raise CovDerivError("glue needs at least one part")
    space = parts[0][0].space

    if probe_fields is None:
        probe_fields = tuple(VectorField.coordinate(space, c)
                             for c in space.coords)
    pts = space.sample_points(cfg.probe(5))
    tracker = DevTracker()
    for X in probe_fields:
        total = None
        for proj, _ in parts:
            px = proj(X)
            total = px if total is None else vf_add(total, px)
        tracker.track(pts, vf_sub(total, X))
    if not tracker.max_dev <= 1e-10:
        raise CovDerivError(
            f"projectors do not sum to the identity: deviation "
            f"{tracker.max_dev:.3e}")

    def rule(X: VectorField, Y: VectorField) -> VectorField:
        out = None
        for proj, ext in parts:
            term = ext(X, proj(Y))
            out = term if out is None else vf_add(out, term)
        out.name = f"∇_{X.name}({Y.name})"
        return out

    return CovDeriv(space, rule, provenance, parts)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def total_derivative(split: SplitStructure,
                     cfg: CheckConfig = DEFAULT_CHECK) -> CovDeriv:
    """Total-space operator of a split, any number of blocks, either
    orientation.

    The K rule is S([X, Q(Y)]) through the aggregate pair (one block's pair
    has the same properties but depends on a block choice); block A's rule
    is Q_A([X, S_A(Y)]).  Each rule is extended and the extensions glued.
    Inside the engine every argument is projected before it reaches a rule,
    so the membership sampling is skipped: it holds by construction.
    """
    s, q = split.s_total, split.q_total
    derivs = [SubmoduleDeriv(split.p_k,
                             lambda X, Y: s(lie_bracket(X, q(Y))), "K")]
    for a in range(split.n):
        def l_rule(X, Y, _s=split.s_endos[a], _q=split.q_endos[a]):
            return _q(lie_bracket(X, _s(Y)))

        derivs.append(SubmoduleDeriv(split.p_blocks[a], l_rule, f"L{a + 1}"))
    parts = [(d.projector, extend_derivative(d, d.projector, cfg,
                                             check_membership=False))
             for d in derivs]
    provenance = ("equal-rank" if split.n == 1 else "n-block"
                  if split.orientation == K_VERTICAL else "n-block-flipped")
    return glue_derivatives(parts, cfg, probe_fields=split.all_fields,
                            provenance=provenance)


def assemble(space, k: Frame, blocks, orientation: str = K_VERTICAL,
             cfg: CheckConfig = DEFAULT_CHECK, pairings=None):
    """Connection, split and total-space operator from frame data.

    ``k`` is the distribution K and ``blocks`` partition the opposite side:
    under ``k-vertical`` K is the vertical frame and the blocks' fields make
    up the horizontal frame "H", otherwise the roles swap and the rest frame
    is "V".  Returns ``(conn, split, nabla)``.
    """
    blocks = tuple(blocks)
    rest = tuple(f for b in blocks for f in b.fields)
    if orientation == K_VERTICAL:
        vertical, horizontal = k, Frame(rest, "H")
    else:
        vertical, horizontal = Frame(rest, "V"), k
    conn = build_connection(space, vertical, horizontal, cfg)
    split = canonical_endos(conn, blocks, orientation, cfg, pairings)
    return conn, split, total_derivative(split, cfg)


# ---------------------------------------------------------------------------
# derived operators
# ---------------------------------------------------------------------------


def torsion(nabla: CovDeriv, X: VectorField, Y: VectorField) -> VectorField:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y]."""
    out = vf_sub(vf_sub(nabla(X, Y), nabla(Y, X)), lie_bracket(X, Y))
    out.name = f"T({X.name},{Y.name})"
    return out


def ehresmann_curvature(conn: EhresmannConnection, X: VectorField,
                        Y: VectorField) -> VectorField:
    """R(X, Y) = P_V([P_H X, P_H Y]), the vertical obstruction to
    integrability of the horizontal distribution."""
    out = conn.p_v(lie_bracket(conn.p_h(X), conn.p_h(Y)))
    out.name = f"R({X.name},{Y.name})"
    return out


def nabla_of_endo(nabla: CovDeriv, T: Endo11, X: VectorField,
                  Y: VectorField) -> VectorField:
    """(nabla_X T)(Y) = nabla_X(T(Y)) - T(nabla_X Y)."""
    out = vf_sub(nabla(X, T(Y)), T(nabla(X, Y)))
    out.name = f"(∇_{X.name}{T.name})({Y.name})"
    return out


OPS = {
    "nabla": lambda conn, nabla, X, Y: nabla(X, Y),
    "bracket": lambda conn, nabla, X, Y: lie_bracket(X, Y),
    "torsion": lambda conn, nabla, X, Y: torsion(nabla, X, Y),
    "curvature": lambda conn, nabla, X, Y: ehresmann_curvature(conn, X, Y),
}


def op_field(conn: EhresmannConnection, nabla: CovDeriv, op: str,
             X: VectorField, Y: VectorField) -> VectorField:
    """The field of the binary operator ``op``, a key of :data:`OPS`."""
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}; available: {', '.join(OPS)}")
    return OPS[op](conn, nabla, X, Y)


# ---------------------------------------------------------------------------
# projector parallelism vs. image stability (the glue cross-check)
# ---------------------------------------------------------------------------


@dataclass
class ParallelismReport:
    """Both sides of the equivalence: nabla P_B = 0 iff every block rule
    keeps its values inside its own image."""

    block: str
    nabla_p_dev: float
    image_dev: float
    threshold: float

    @property
    def nabla_p_passes(self) -> bool:
        return self.nabla_p_dev < self.threshold

    @property
    def image_passes(self) -> bool:
        return self.image_dev < self.threshold

    @property
    def agree(self) -> bool:
        return self.nabla_p_passes == self.image_passes


def check_parallelism_equivalence(nabla: CovDeriv, b_index: int,
                probes: FieldStack, cfg: CheckConfig = DEFAULT_CHECK
                ) -> ParallelismReport:
    """Both sides over every pair of ``probes.fields``.  Side A evaluates
    ``(nabla_X P_B)`` once per probe X over the stacked probes."""
    if not nabla.parts:
        raise CovDerivError("operator carries no glued parts to check")
    p_b, ext_b = nabla.parts[b_index]
    pts = nabla.space.sample_points(cfg)
    probe_fields = probes.fields

    side_a = DevTracker()
    for X in probe_fields:
        probes.track(side_a, pts, probe_fields,
                     lambda Ys: nabla_of_endo(nabla, p_b, X, Ys))

    # a probe enters the image set unless its projection vanishes at every
    # sample point
    image_fields = []
    for f in probe_fields:
        pf = p_b(f)
        norm = DevTracker()
        norm.track(pts, pf)
        if not norm.max_dev <= 1e-8:
            image_fields.append(pf)

    side_b = DevTracker()
    for X in image_fields:
        for Y in image_fields:
            z = ext_b(X, Y)
            side_b.track(pts, vf_sub(z, p_b(z)))

    return ParallelismReport(p_b.name, side_a.max_dev, side_b.max_dev,
                             cfg.tolerance)
