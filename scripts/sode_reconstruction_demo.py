#!/usr/bin/env python3
"""Second-order reconstruction walkthrough.

Build a tangent-bundle connection whose coefficients come from a force
potential, check the two sufficiency conditions (the dilation field is
horizontally parallel, the horizontal torsion vanishes), reconstruct the
induced second-order field, and compare the induced connection with the
input.  A deliberately inhomogeneous control shows the conditions failing.
"""

import sys

from ehresmann.geometry import CheckConfig
from ehresmann.scenarios import (
    nonlinear_tangent, potential_connection, sode_sufficiency_check,
)


def show(records) -> dict:
    """Print the sufficiency records and return them by check name."""
    by_name = {r.check_id.rsplit(":", 1)[1]: r for r in records}
    for r in records:
        print(f"  {r.check_id.split(':', 1)[1]:<40} "
              f"{'pass' if r.passed else 'FAIL'}  max_dev={r.max_dev:.3e}")
    return by_name


def main() -> int:
    cfg = CheckConfig(samples=12)

    print("potential-derived coefficients (f1 = -(u1^2)-u1*u2, "
          "f2 = x1*u1^2-u2^2):")
    gamma = potential_connection(2, ["-(u1^2)-u1*u2", "x1*u1^2-u2^2"])
    scen = nonlinear_tangent(2, gamma, cfg, name="demo-potential")
    good = show(sode_sufficiency_check(scen, cfg))

    print("\ninhomogeneous control (G^1_1 = 1):")
    control = nonlinear_tangent(1, {(1, 1): "1"}, cfg, name="demo-control")
    bad = show(sode_sufficiency_check(control, cfg))

    conditions = ("dilation-parallel", "horizontal-torsion")
    # the reconstruction record's threshold is cfg.tolerance
    ok = all(good[c].passed for c in conditions) \
        and good["reconstruction"].passed \
        and good["reconstructed-spray"].passed \
        and not all(bad[c].passed for c in conditions)
    print("\ndemo", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
