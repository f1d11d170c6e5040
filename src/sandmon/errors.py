"""Typed domain errors.

Every error the library raises deliberately derives from SandmonError so the
CLI can report a stable error name and exit with the domain-error code.
"""

from __future__ import annotations


class SandmonError(Exception):
    @property
    def name(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------- graph errors

class NoSink(SandmonError):
    pass


class MultipleSinks(SandmonError):
    def __init__(self, sinks):
        self.sinks = list(sinks)
        super().__init__(f"multiple sinks: {', '.join(self.sinks)}")


class UnreachableSink(SandmonError):
    def __init__(self, vertices):
        self.vertices = list(vertices)
        super().__init__(f"vertices with no path to the sink: {', '.join(self.vertices)}")


class UnknownVertex(SandmonError):
    pass


class SinkHasNoWeight(SandmonError):
    """A vertex weight was asked of a sink with no carried weight."""


class NotHereditarySaturated(SandmonError):
    pass


class BadParameters(SandmonError):
    pass


class GraphFormatError(SandmonError):
    """Malformed graph text. The CLI maps this to the usage exit code."""


# -------------------------------------------------------------- rewrite errors

class SinkHasNoTransform(SandmonError):
    pass


class BudgetExhausted(SandmonError):
    """Step budget ran out. Carries the partial trace; says nothing about divergence."""

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


# --------------------------------------------------------------- monoid errors

class SizeOverBudget(SandmonError):
    pass


class NotSubmonoid(SandmonError):
    pass


class CertificateFailed(SandmonError):
    """A table failed the check that certifies a structure computed from it;
    the table is not the monoid it claims to be."""


class Inconclusive(SandmonError):
    """Enumeration could not finish within its caps.  Explicitly not a claim
    that the monoid is infinite."""

    def __init__(self, message, partial_labels=None):
        self.partial_labels = list(partial_labels) if partial_labels is not None else None
        super().__init__(message)


# -------------------------------------------------------------- realize errors

class NotConical(SandmonError):
    def __init__(self, witnesses):
        self.witnesses = list(witnesses)
        super().__init__(f"not conical; witnessing vertices: {', '.join(self.witnesses)}")


class NotReduced(SandmonError):
    pass
