"""Exception types shared across the toolkit."""


class XmodalError(Exception):
    """Base class for all toolkit-specific errors."""


# --- manifest / file ingestion ---------------------------------------------

class MissingFileError(XmodalError):
    pass


class MalformedLineError(XmodalError):
    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}")


class DuplicateIdError(XmodalError):
    def __init__(self, sample_id: str, line_number: int | None = None):
        self.sample_id = sample_id
        self.line_number = line_number
        where = f" (line {line_number})" if line_number is not None else ""
        super().__init__(f"duplicate sample id {sample_id!r}{where}")


class UnknownLabelError(XmodalError):
    def __init__(self, value: str, line_number: int | None = None):
        self.value = value
        self.line_number = line_number
        where = f" (line {line_number})" if line_number is not None else ""
        super().__init__(f"unknown label {value!r}{where}")


class UnknownModalityError(XmodalError):
    def __init__(self, value: str, line_number: int | None = None):
        self.value = value
        self.line_number = line_number
        where = f" (line {line_number})" if line_number is not None else ""
        super().__init__(f"unknown modality {value!r}{where}")


class UnsupportedFormatError(XmodalError):
    pass


class TruncatedDataError(XmodalError):
    pass


# --- images / pixel operations ----------------------------------------------

class WrongChannelCountError(XmodalError):
    pass


class EmptyImageError(XmodalError):
    pass


class ImageTooSmallError(XmodalError):
    pass


class NonFiniteImageError(XmodalError, ValueError):
    pass


# --- codec simulators / degradation chains ----------------------------------

class QualityOutOfRangeError(XmodalError):
    pass


class InvalidRangeError(XmodalError):
    pass


class EmptyChainDrawnError(XmodalError):
    pass


class UnknownStepError(XmodalError):
    def __init__(self, step_name: str):
        self.step_name = step_name
        super().__init__(f"unknown chain step {step_name!r}")


# --- dataset analyses ---------------------------------------------------------

class EmptyInputError(XmodalError):
    pass


class AllSamplesFailedError(XmodalError):
    pass


class WrongBinCountError(XmodalError):
    pass


# --- losses / training --------------------------------------------------------

class ZeroNormRowError(XmodalError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"feature row {index} has (near-)zero norm")


class LengthMismatchError(XmodalError):
    pass


class DimMismatchError(XmodalError):
    pass


class ShapeMismatchError(XmodalError):
    pass


class BothPoolsEmptyError(XmodalError):
    pass


class NonFiniteLossError(XmodalError):
    pass


class InvalidSpecError(XmodalError):
    pass


# --- metrics --------------------------------------------------------------------

class SingleClassInputError(XmodalError):
    pass


class NoPositivesError(XmodalError):
    pass


class EmptyVideoError(XmodalError):
    pass
