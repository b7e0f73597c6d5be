"""Default parameters shared by the library and the CLI.

The CLI reads these while it builds its options, before any command
runs, so this module imports nothing beyond the standard library.
"""

import math

# Default thick/thin split used by the decay experiments.
DEFAULT_DELTA0 = 0.4

# Radius of the punctured disc that models the standard cusp.
CUSP_DISC_RADIUS = math.exp(-math.pi)
