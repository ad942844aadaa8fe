"""Word-level masked-language-model pretraining toolkit."""

from .errors import ConfigError, ContractError, IntegrityError, WordlmError
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "WordlmError",
    "ContractError",
    "IntegrityError",
    "ConfigError",
    "__version__",
]
