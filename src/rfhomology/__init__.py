"""Exact-arithmetic Rabinowitz Floer homology of negative line bundles over
monotone or aspherical symplectic bases."""

from .basemodel import (BaseModel, build_fc, cap_lambda_matrix, cap_map,
                        cap_stabilization, cp_model, load_model,
                        model_from_spec, point_model, primitivity_report,
                        surface_model)
from .chaincplx import (ChainMap, GradedComplex, LongExactSequence, cone_les,
                        homology_table, mapping_cone, verify_boundary,
                        verify_exactness)
from .exactlin import (IntMatrix, SmithDecomposition, ZModulePresentation,
                       homology, is_surjective_over_z, matrix_power,
                       smith_normal_form)
from .novikov import CompletionRegime, QmNumber, qm_add, qm_reduce, regime_for
from .rfh import (FullRFHResult, GroupValue, RFHGenerator, boundary_full,
                  delta_injectivity, enumerate_generators, full_rfh, gysin,
                  orderability_report, rfc_w0, rfh_w0_table,
                  transfer_maps)

__version__ = "0.1.0"
