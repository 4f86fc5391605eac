"""Shared exception types.

Each maps to one failure family: callers can catch the narrow type or the
ValueError/RuntimeError base.
"""


class ShapeError(ValueError):
    """Mismatched or invalid tensor dimensions."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ContractError(ValueError):
    """A caller-facing precondition was violated."""


class DegenerateMatrixError(ValueError):
    """Matrix has a zero row/column where a positive one is required."""


class GenerationError(RuntimeError):
    """Synthetic benchmark constraints could not be satisfied."""


class TaskLookupError(KeyError):
    """Task index outside the tasks a model was built with or has registered since."""


class ConfigError(ValueError):
    """Invalid experiment configuration; `key` names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


class TrainingDivergedError(RuntimeError):
    """Training aborted on a non-finite loss; carries step diagnostics."""

    def __init__(self, step: int, task_id: str, components: dict):
        super().__init__(
            f"non-finite loss at step {step} on task '{task_id}': {components}"
        )
        self.step = step
        self.task_id = task_id
        self.components = components
