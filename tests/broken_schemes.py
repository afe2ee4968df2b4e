"""Broken schemes as values: staircase parameters with a wrong generator.

Each class is a subclass of the frozen :class:`SchemeParams` that overrides
``generator``, so the dealer and the combiners read the broken G from the
value they are given and nothing is patched.  Dataclass equality compares
classes: ``Leaky(2, 3, 5) != make_params(2, 3, 5)``, so a session built for a
broken value does not run on an honestly dealt state, nor the reverse.

Each entry names the check it must fail.
"""

from functools import cached_property

from qtss.gf import FieldMatrix
from qtss.staircase import SchemeParams


def _honest(p: SchemeParams):
    """A writable copy of the staircase generator with ``p``'s (k, d, q)."""
    return SchemeParams(p.k, p.d, p.q).generator.array.copy()


class Leaky(SchemeParams):
    """Share 1's first register carries secret digit s_0 in the clear, and no
    other register depends on s_0.  Fails secrecy on share 1: at (2,3,5) the
    two default basis secrets give reduced states at trace distance 1."""

    @cached_property
    def generator(self) -> FieldMatrix:
        gen = _honest(self)
        first = self.registers_of(1)[0]
        gen[:, 0] = 0
        gen[first, 0] = 1
        gen[first, self.m :] = 0
        return FieldMatrix(self.field, gen)


class Collapsed(SchemeParams):
    """The last two randomness columns are equal, so the codeword map is not
    injective.  Fails the dealer's rank certificate: ``deal`` raises
    ``SingularMatrixError`` ("codewords would collide")."""

    @cached_property
    def generator(self) -> FieldMatrix:
        gen = _honest(self)
        gen[:, -1] = gen[:, -2]
        return FieldMatrix(self.field, gen)
