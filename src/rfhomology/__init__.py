"""Exact-arithmetic Rabinowitz Floer homology of negative line bundles over
monotone or aspherical symplectic bases."""

from . import oracles
from .basemodel import (BaseModel, cap_matrix, cp_model, load_model,
                        model_from_spec, point_model, primitivity_report,
                        surface_model)
from .chaincplx import (ChainMap, GradedComplex, LongExactSequence, cone_les,
                        homology_table, verify_exactness)
from .exactlin import IntMatrix, ZModulePresentation, is_surjective_over_z
from .novikov import CompletionRegime, regime_for
from .rfh import (FullRFHResult, GroupValue, RFHGenerator, boundary_full,
                  delta_injectivity, enumerate_generators, full_rfh, gysin,
                  orderability_report, rfh_w0_table, transfer_failures)

__version__ = "0.1.0"
