"""Exception types shared across the package, and the integer rule for config values."""

import numbers


class IncestlessError(Exception):
    """Base class for package-specific errors."""


class GraphFormatError(IncestlessError):
    """Adjacency input is not a square binary matrix, or a graph file is malformed."""


class DagViolationError(IncestlessError):
    """Adjacency matrix has entries on or below the diagonal (back-in-time edges)."""

    def __init__(self, violations):
        self.violations = list(violations)
        entries = ", ".join(f"({i},{j})" for i, j in self.violations)
        super().__init__(f"not strictly upper triangular; nonzero at {entries}")


class ConfigError(IncestlessError):
    """Scenario or topology configuration is inconsistent."""


def is_integer(value) -> bool:
    """An integer, numpy's included, but not a bool: 2.5, "3" and True are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integer(value, name: str):
    """value, if it is an integer; otherwise a ConfigError naming the field."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


class DegenerateEvidenceError(IncestlessError):
    """An observation has zero probability under the support of the public belief."""


class ZeroProbabilityActionError(IncestlessError):
    """An action cannot be produced by any observation given the public belief."""


class AvailabilityError(IncestlessError):
    """A log-belief required by a nonzero incest-removal weight was not received."""

    def __init__(self, node, missing):
        self.node = node
        self.missing = sorted(missing)
        super().__init__(
            f"node {node}: required log-beliefs missing from nodes {self.missing} "
            "(topological constraint violated at runtime)"
        )


class WeightOverflowError(IncestlessError):
    """A true incest-removal weight lies outside the int64 range."""

    def __init__(self, node, index):
        self.node = node
        super().__init__(f"node {node}: weight w_{node}({index}) exceeds the int64 range")


class SignedInfinityError(IncestlessError):
    """A negative weight was applied to a -inf log-likelihood entry."""


class ConstraintViolationError(IncestlessError):
    """Removal-mode run requested on a graph that violates the topological constraint."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "topological constraint violated at node(s) "
            + ", ".join(str(n) for n in sorted(report))
        )
