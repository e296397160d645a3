"""Exception types shared across the simulator.  `cli.run` catches
SimulatorError, prints ``error: <message>`` and exits 2."""


class SimulatorError(Exception):
    """Base class for all user-input and contract errors raised by this package."""


class OutOfRangeError(SimulatorError):
    """An argument outside the values the call accepts: a size, topology,
    stage, line, endpoint, message index, load, seed, budget or count."""


class ParseError(SimulatorError):
    """Input that cannot be read: a permutation file line that is not two
    integers, with its line_number; a file the CLI cannot read or write; or
    a malformed CLI flag value (a budget, crosstalk mode or size list)."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DuplicateSourceError(SimulatorError):
    """A source named twice: in a map, a request batch or conflict_stages."""


class DuplicateDestinationError(SimulatorError):
    """A destination named twice in a full permutation."""


class CoverageError(SimulatorError):
    """A schedule that lists a message twice or leaves one out (validate_schedule)."""
