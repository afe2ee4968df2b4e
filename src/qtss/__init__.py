"""Communication-efficient quantum threshold secret sharing, simulated exactly.

The package implements ((k, 2k-1, d)) threshold schemes over a prime field:
a dealer encodes an m = d-k+1 qudit secret into n = 2k-1 shares of m qudits
each, any k shares recover it by communicating all m*k of their qudits, and
any d >= k shares recover it by communicating just one qudit per share.
Secrecy of k-1 or fewer shares and optimality of the communication cost are
checked numerically against exact sparse state simulation.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports those of ``gf``, ``staircase``, ``qsim`` and ``protocol``.
"""

from .gf import *
from .staircase import *
from .qsim import *
from .protocol import *

__version__ = "0.1.0"

# Importing a submodule binds it here too, so its own __all__ is read below.
__all__ = ["__version__", *gf.__all__, *staircase.__all__, *qsim.__all__, *protocol.__all__]
