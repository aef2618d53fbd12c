from gent import cm_core, scalar, standard_forms


def test_matrix_layers_reexport_the_scalar_core():
    # one definition per name: the matrix modules hand out the scalar core's own objects
    assert cm_core.above_vacuum is scalar.above_vacuum
    assert cm_core.rounding_tol is scalar.rounding_tol
    assert cm_core.physical_kappa is scalar.physical_kappa
    assert cm_core.OneModeCM is scalar.OneModeCM
    assert standard_forms.SymmetricState is scalar.SymmetricState
    assert standard_forms.StandardFormI is scalar.StandardFormI
    assert standard_forms.symmetric_sts is scalar.symmetric_sts


def test_rounding_per_scale_sq_is_unchanged():
    # 128 eps, as when it was written 128 * np.finfo(float).eps
    assert cm_core.ROUNDING_PER_SCALE_SQ == scalar.ROUNDING_PER_SCALE_SQ == 128 * 2.0**-52
