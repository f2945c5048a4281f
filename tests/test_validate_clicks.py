"""The click checks of a validate report where a detector never fires."""

from mcmag import sweep


def test_a_detector_that_never_fires_gets_no_confidence_line():
    # At the middle point (axis 0.225) the optimum keeps detector 1 alone
    # (boundary_b), so detector 0 never fires: the report has C1 and P_inc
    # lines and no C0 line.
    cfg = sweep.parse_config_text(
        """
scenario    = static_single
b0_uT       = 0.1
T2_star_us  = 5
eta0        = 0.05
grid_start  = 0.05
grid_stop   = 0.4
grid_points = 5
shots       = 2000
"""
    )
    report, ok = sweep.validate_report(cfg)
    assert ok
    assert report == (
        "validation report: scenario=static_single seed=0\n"
        "clicks at axis=0.225: shots=2000 branch=boundary_b\n"
        "C1: analytic=0.952869892 observed=0.8 std_err=0.0948 z=-1.613 PASS\n"
        "P_inc: analytic=0.997920609 observed=0.9975 std_err=0.00102 z=-0.413 PASS\n"
        "RESULT: PASS\n"
    )
