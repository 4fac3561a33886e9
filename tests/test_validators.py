"""The exact messages of the build's validators, deviation included.

Where no input reaches a validator (the frame's own projectors always sum
to the identity), the failure is provoked by wrapping a constructor from
outside, so the validator itself runs unchanged.
"""

from __future__ import annotations

import pytest

from ehresmann import connection
from ehresmann import expr as ex
from ehresmann import geometry as geo
from ehresmann.connection import (
    ConnectionDataError, K_VERTICAL, build_connection, canonical_endos,
)
from ehresmann.covderiv import (
    CovDerivError, MembershipError, SubmoduleDeriv, extend_derivative,
    glue_derivatives, total_derivative,
)
from ehresmann.geometry import (
    ChartedSpace, CheckConfig, Frame, GeometryError, SingularFrameError,
    VectorField,
)

CFG = CheckConfig(samples=8)


def _tilted():
    space = ChartedSpace("tilted", ("x", "y", "th"), base_coords=("x", "y"))
    h1 = VectorField.from_exprs(space, ["1", "0", "cos(th)"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "sin(th)"], "H2")
    v = VectorField.from_exprs(space, ["0", "0", "1"], "V")
    return space, Frame((v,), "V"), Frame((h1, h2), "H")


def _affine():
    space = ChartedSpace("affine", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    h1 = VectorField.from_exprs(space, ["1", "0", "-(x1*u2)", "0"], "H1")
    h2 = VectorField.from_exprs(space, ["0", "1", "0", "-(x2*u1)"], "H2")
    v1 = VectorField.coordinate(space, "u1", "V1")
    v2 = VectorField.coordinate(space, "u2", "V2")
    conn = build_connection(space, Frame((v1, v2), "V"),
                            Frame((h1, h2), "H"), CFG)
    split = canonical_endos(conn, [Frame((h1, h2), "H")], K_VERTICAL, CFG)
    return space, (h1, h2), (v1, v2), split


def _message(run, error):
    with pytest.raises(error) as err:
        run()
    return str(err.value)


def test_projector_identity_message(monkeypatch):
    """P_H scaled by 1 + 1e-6 breaks P_V + P_H = I."""
    def leaky(solver, indices, name, _build=connection.projector_from_solver):
        p = _build(solver, indices, name)
        return geo.endo_scale(1.0 + 1e-6, p, name) if name == "P_H" else p

    monkeypatch.setattr(connection, "projector_from_solver", leaky)
    assert _message(lambda: build_connection(*_tilted(), CFG),
                    ConnectionDataError) == (
        "projector identities fail on tilted: max deviation 1.000e-06")


def test_glue_message():
    space, _, _, split = _affine()
    nabla = total_derivative(split, CFG)
    assert _message(lambda: glue_derivatives(
        [nabla.parts[0]], CFG, probe_fields=split.all_fields),
        CovDerivError) == (
        "projectors do not sum to the identity: deviation 1.000e+00")


def test_membership_message():
    space, (h1, _), (v1, _), split = _affine()
    ext = extend_derivative(SubmoduleDeriv(
        split.p_k, lambda X, Y: Y, "K"), CFG, check_membership=True)
    assert _message(lambda: ext(v1, h1), MembershipError) == (
        "H1 is not in Img(P_K): deviation 1.000e+00")


def test_tangency_message():
    space = ChartedSpace("s3", ("x", "y", "z", "w"),
                         constraints=(ex.parse("x^2+y^2+z^2+w^2-1"),),
                         sphere=True)
    radial = VectorField.from_exprs(space, ["x", "y", "z", "w"], "radial")
    assert _message(lambda: geo.validate_tangent(space, radial, CFG),
                    GeometryError) == (
        "field radial is not tangent to s3: max deviation 2.000e+00")


def _sphere_frame(v_last="z"):
    space = ChartedSpace("s3", ("x", "y", "z", "w"),
                         constraints=(ex.parse("x^2+y^2+z^2+w^2-1"),),
                         sphere=True)
    lam = VectorField.from_exprs(space, ["z", "w", "-x", "-y"], "Lambda")
    tilt = VectorField.from_exprs(space, ["w", "-z", "y", "-x+0.25"], "Tilt")
    v = VectorField.from_exprs(space, ["y", "-x", "-w", v_last], "V")
    return space, Frame((v,), "V"), Frame((lam, tilt), "H")


def test_tangency_message_of_a_connection_frame():
    """The build's tangency fold over a frame whose second field leaves
    the sphere."""
    assert _message(lambda: build_connection(*_sphere_frame(), CFG),
                    GeometryError) == (
        "field Tilt is not tangent to s3: max deviation 3.783e-01")


def test_tangency_message_names_the_first_failing_field():
    """The tangency checks of all frame fields fold in one run; when two
    fields leave the sphere, the message names the first in frame order."""
    assert _message(lambda: build_connection(*_sphere_frame("z+0.5"), CFG),
                    GeometryError) == (
        "field V is not tangent to s3: max deviation 7.566e-01")


def test_verticality_message():
    space = ChartedSpace("flat", ("x1", "x2", "u1", "u2"),
                         base_coords=("x1", "x2"))
    h = Frame((VectorField.coordinate(space, "x1", "H1"),
               VectorField.coordinate(space, "x2", "H2")), "H")
    bad = Frame((VectorField.coordinate(space, "u1", "V1"),
                 VectorField.from_exprs(space, ["0.5*u1", "0", "0", "1"],
                                        "bad")), "V")
    assert _message(lambda: build_connection(space, bad, h, CFG),
                    ConnectionDataError) == (
        "vertical frame of flat has base components up to 4.073e-01; it "
        "does not project to zero")


def test_degenerate_frame_message():
    space = ChartedSpace("r2", ("a", "b"))
    x1 = VectorField.from_exprs(space, ["1", "a"], "X1")
    x2 = VectorField.from_exprs(space, ["2", "2*a"], "X2")
    first = space.sample_points(CFG)[0].values
    assert _message(lambda: geo.validate_frame(space, (x1, x2), CFG),
                    SingularFrameError) == (
        f"frame is numerically degenerate at {first}: singular-value ratio "
        f"2.054e-17 not above 1e-08")


def test_split_identity_message(monkeypatch):
    """The aggregate S and Q scaled by 1 + 1e-6 each break S∘Q = P_K."""
    def scaled(c, X, name=None, _scale=geo.vf_scale):
        return _scale(c * (1.0 + 1e-6), X, name)

    space, v, h = _tilted()
    conn = build_connection(space, v, h, CFG)
    monkeypatch.setattr(connection, "vf_scale", scaled)
    blocks = [Frame((h.fields[0],), "H1"), Frame((h.fields[1],), "H2")]
    assert _message(lambda: canonical_endos(conn, blocks, K_VERTICAL, CFG),
                    ConnectionDataError) == (
        "split identities failed on tilted: ['split:aggregate S∘Q=P_K'] "
        "(worst deviation 2.000e-06)")
