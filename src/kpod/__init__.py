"""k-POD: k-means clustering of partially observed data.

The core fit (:func:`kpod_fit`) minimizes the squared error between the data
and a clustered reconstruction over the observed entries only, by alternating
model-based fill-in of the unobserved cells with complete-data k-means. The
package also ships the surrounding experiment machinery: mean-impute and
column-deletion baselines, MCAR/MAR/NMAR amputation, Gaussian-mixture
simulation, Rand-index scoring, CSV conventions, and a benchmark runner.
"""

from . import baselines, benchmark, csv_io, errors, evaluation, kmeans, masked, missingness, mm
from .baselines import *
from .benchmark import *
from .csv_io import *
from .errors import *
from .evaluation import *
from .kmeans import *
from .masked import *
from .missingness import *
from .mm import *

__version__ = "0.1.0"

__all__ = (baselines.__all__ + benchmark.__all__ + csv_io.__all__ + errors.__all__ + evaluation.__all__
           + kmeans.__all__ + masked.__all__ + missingness.__all__ + mm.__all__)
