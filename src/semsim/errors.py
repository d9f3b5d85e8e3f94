"""Exception types shared across the package."""


class SemsimError(Exception):
    """Base class for all domain errors raised by semsim."""


class EmptyGraph(SemsimError):
    """Raised when a taxonomy is built from zero nodes."""


class PinnedRootHasParents(SemsimError, ValueError):
    """Raised when the node pinned as the root has parents of its own."""


class CycleDetected(SemsimError):
    """Raised when the hypernym edge set is not acyclic.

    Carries one offending cycle as a list of node ids.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("hypernym cycle: " + " -> ".join(self.cycle))


class DamagedTaxonomy(SemsimError):
    """Raised when a walk of a taxonomy's parents finds a cycle or a second root."""


class _MissingKey(SemsimError, KeyError):
    """A KeyError whose str() is its plain message, not the message's repr."""

    def __str__(self) -> str:
        return str(self.args[0])


class UnknownSynset(_MissingKey):
    """Raised when a synset id is not present in the taxonomy."""

    def __init__(self, synset_id):
        self.synset_id = synset_id
        super().__init__(f"unknown synset: {synset_id!r}")


class UnknownWord(_MissingKey):
    """Raised when a word has no noun sense in the taxonomy."""

    def __init__(self, word):
        self.word = word
        super().__init__(f"word has no noun sense: {word!r}")


class MissingFile(SemsimError, FileNotFoundError):
    """Raised when a required database or data file is absent."""


class MalformedLine(SemsimError):
    """Raised on an unparseable line of a database or fixture file."""

    def __init__(self, path, line_no, message, byte_offset=None):
        self.path = str(path)
        self.line_no = line_no
        self.byte_offset = byte_offset
        where = f"{self.path}:{line_no}"
        if byte_offset is not None:
            where += f" (byte {byte_offset})"
        super().__init__(f"{where}: {message}")


class DanglingPointer(SemsimError):
    """Raised when a pointer targets a synset offset that was never parsed."""

    def __init__(self, source, symbol, target):
        self.source = source
        self.symbol = symbol
        self.target = target
        super().__init__(f"synset {source}: pointer {symbol!r} to unknown offset {target}")


class MalformedRow(SemsimError):
    """Raised on an unparseable benchmark dataset row."""

    def __init__(self, path, row_no, message):
        self.path = str(path)
        self.row_no = row_no
        super().__init__(f"{self.path}:{row_no}: {message}")


class EmptyDataset(SemsimError):
    """Raised when a benchmark file contains no usable pairs."""


class LengthMismatch(SemsimError):
    """Raised when correlation inputs differ in length or are too short."""


class ZeroVariance(SemsimError):
    """Raised when a correlation input vector is constant."""


class NonFiniteScore(SemsimError):
    """Raised when a correlation input holds a NaN or an infinity."""


class AllPairsSkipped(SemsimError):
    """Raised when every pair of a benchmark run was skipped."""


class DegenerateTable(SemsimError):
    """Raised when an operation needs max_ic > 0 but the table is all zero."""


class UnboundedIC(SemsimError):
    """Raised when a measure requires IC values in [0, 1] but the table is unbounded."""


class BatetUndefined(SemsimError, ValueError):
    """Raised when batet's logarithm has no value for a sense pair."""
