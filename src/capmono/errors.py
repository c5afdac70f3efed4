"""Exception types shared across the package."""


class CapmonoError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(CapmonoError):
    """A geometric construction is degenerate or inadmissible."""


class NoHatBallError(GeometryError):
    """The reflected/inverted ball is undefined (base point at the origin
    in the ball configuration); callers must use the dedicated origin
    formulas instead."""


class AmbientError(CapmonoError):
    """An operation received a surface living in the wrong ambient space."""


class ImmersionError(CapmonoError):
    """The chart failed to be immersive at a sample point."""

    def __init__(self, u: float, v: float, det: float):
        self.u = u
        self.v = v
        self.det = det
        super().__init__(
            f"degenerate metric at chart parameters (u={u:.6g}, v={v:.6g}): "
            f"det g = {det:.3e} <= 0"
        )


class UndefinedWindingError(CapmonoError):
    """The winding number is requested at a point on (or too close to) the curve."""


class ResolutionError(CapmonoError):
    """Too few quadrature samples for the requested evaluation."""


class ConfigError(CapmonoError):
    """A run configuration file or an input sample table is malformed or inconsistent."""
