"""Dense linear algebra, autodiff, gradient verification, and optimization."""

from . import linalg, tensor
from .gradcheck import check_gradients, finite_diff_grad, max_relative_error
from .optim import Adam
from .tensor import Tensor, backward, const, no_grad, param, recording

__all__ = [
    "Adam",
    "Tensor",
    "backward",
    "check_gradients",
    "const",
    "finite_diff_grad",
    "linalg",
    "max_relative_error",
    "no_grad",
    "param",
    "recording",
    "tensor",
]
