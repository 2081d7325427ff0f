"""Exception types raised by the library.

Every error is a subclass of HolonetError so callers can catch broadly;
the CLI maps input-document errors to exit code 2 and verdict failures
to exit code 1.
"""


class HolonetError(Exception):
    pass


# poset construction and paths

class DuplicateElement(HolonetError):
    pass


class CycleInOrder(HolonetError):
    """The reflexive-transitive closure of the given pairs is not antisymmetric."""


class UnknownElement(HolonetError):
    pass


class PathOutsidePoset(HolonetError):
    pass


class NotComparable(HolonetError):
    pass


# homotopy

class NotConnected(HolonetError):
    pass


class NotALoopAtBase(HolonetError):
    pass


# net bundles

class RelatorNotSatisfied(HolonetError):
    pass


# representations

class InvalidRepresentation(HolonetError):
    pass


class NotCovariant(HolonetError):
    pass


class NotANetBundle(HolonetError):
    pass


class FiberMismatch(HolonetError):
    pass


# Fredholm modules

class NotFredholm(HolonetError):
    pass


class KernelNotInvariant(HolonetError):
    pass


class CentralityViolated(HolonetError):
    pass


class NotSelfAdjoint(HolonetError):
    pass


class RelationDefect(HolonetError):
    pass


# characteristic classes

class NotInfiniteCyclic(HolonetError):
    pass


class InexactPhase(HolonetError):
    pass


class PhaseRecoveryFailed(HolonetError):
    pass


class BasisMismatch(HolonetError):
    pass


# spectral triples

class NotInvariant(HolonetError):
    pass


# CLI input documents.  InputSyntaxError / InputReferenceError avoid
# shadowing the Python builtins of the same meaning.

class InputSyntaxError(HolonetError):
    pass


class SchemaError(HolonetError):
    pass


class InputReferenceError(HolonetError):
    pass


class UnknownCommand(HolonetError):
    pass
