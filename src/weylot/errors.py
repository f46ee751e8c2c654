"""Exception types shared across the package."""


class WeylotError(Exception):
    """Base class for all library errors."""


class NotFullDimensional(WeylotError):
    """The affine span of the input points is a proper subspace."""


class OriginNotInterior(WeylotError):
    """The origin is on the boundary of, or outside, the hull."""


class VertexNotFound(WeylotError):
    """The given point is not a vertex of the polytope."""


class NotReflexive(WeylotError):
    """Operation requires a reflexive polytope."""


class UnsupportedType(WeylotError):
    """Root system family/rank outside the supported list."""


class OrbitCapExceeded(WeylotError):
    """Orbit or group closure grew past the configured cap."""


class GroupCapExceeded(OrbitCapExceeded):
    """Group materialization grew past the configured cap."""


class PivotCapExceeded(WeylotError):
    """The network simplex ran past its pivot cap."""


class InternalCheckFailed(WeylotError):
    """An internal self-check failed: a bug in weylot, not a verdict."""


class NotDominant(WeylotError):
    """Weight is not in the closed positive chamber."""


class NotLatticePoint(WeylotError):
    """Weight is not a point of the chosen lattice."""


class OutOfTableRange(WeylotError):
    """Family row does not admit the requested rank."""


class InternalTableViolation(InternalCheckFailed):
    """A built-in family or orbit hull failed its self-check (a bug)."""


class UnbalancedMasses(WeylotError):
    """Source and target measures have different total mass."""


class MalformedHeader(WeylotError):
    """Polytope or measure file header is not two positive integers."""


class NonIntegerEntry(WeylotError):
    """Polytope file matrix contains a non-integer token."""
