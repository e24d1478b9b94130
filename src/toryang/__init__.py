"""Exact-arithmetic library and verification harness for the loop and
additive deformation families attached to rank-r framed-sheaf moduli:
explicit module actions on fixed-point bases, small shuffle algebras,
centrally extended difference-operator limits, the series-ring bridge
between the two families, vertex-operator realizations, and the
eigenvector property of summed fixed-point classes.
"""

from .params import (GenericityError, ToroidalParams, YangianParams,
                     default_toroidal, default_yangian, sample_generic_params)
from .scalars import (RatFn, TSeries, ratfn_expand, series_exp,
                      series_log, series_sqrt)

__version__ = "0.1.0"
