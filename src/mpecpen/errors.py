"""Exception types shared across the package."""


class MpecError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(MpecError):
    """Array shapes are inconsistent with the problem dimensions."""


class UnboundedBox(MpecError):
    """A box constraint is infinite or empty; search regions must be compact."""


class ParseError(MpecError):
    """A problem file could not be read or decoded."""


class SchemaError(MpecError):
    """A problem file decoded fine but does not match the expected schema."""


class TooLarge(MpecError):
    """The instance exceeds the size limit of an enumeration-based routine."""


class EmptySolutionSet(MpecError):
    """Distance to an empty solution set is undefined (treat as +inf)."""


class AtKink(MpecError):
    """Gradient requested at a point where the penalty is not differentiable."""


class TooFewSamples(MpecError):
    """Not enough usable samples for a regression fit."""


class EmptyPolyhedron(MpecError):
    """The polyhedron contains no points; projections are undefined."""


class UnknownCase(MpecError):
    """Requested reproduction case id does not exist."""
