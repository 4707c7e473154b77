"""Fast-slow analysis of the two-variable urea-urease pH oscillator.

The package models a vesicle that exchanges substrate (urea) and acid
with its surroundings while the enzyme reaction inside consumes both.
In dimensionless form the state is (s, h) -- substrate and proton
fractions -- and the dynamics is a stiff fast-slow system whose
relaxation oscillations alternate between an acidic and a basic phase.

Layout:

- :mod:`phoscil.params`     physical rate constants and the dimensionless groups
- :mod:`phoscil.model`      rate law, right-hand sides, charts, coordinate maps
- :mod:`phoscil.integrator` implicit Radau IIA stepping with event localization
- :mod:`phoscil.gspt`       critical manifolds, folds, stability scans, scaling laws
- :mod:`phoscil.cycle`      limit-cycle detection and analytic timescale accounting
- :mod:`phoscil.cli`        reproducible command-line front end

All analyses are deterministic: no randomness and no wall-clock state,
so identical inputs give identical output bytes.  The independent rows of
``cycle.compare`` and passages of ``gspt.fold_passage_offset`` run on
forked processes and return the bits a serial run gives.
"""
from . import cycle, errors, gspt, integrator, model, params
from .errors import *
from .params import *
from .model import *
from .integrator import *
from .gspt import *
from .cycle import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *params.__all__, *model.__all__,
           *integrator.__all__, *gspt.__all__, *cycle.__all__]
