"""Dense linear algebra, autodiff, gradient verification, and optimization."""

from . import linalg, tensor
from .gradcheck import check_gradients, finite_diff_grad, max_relative_error
from .optim import Adam
from .tensor import AllocationMeter, Tensor, backward, const, count_allocations, no_grad, param

__all__ = [
    "Adam",
    "AllocationMeter",
    "Tensor",
    "backward",
    "check_gradients",
    "const",
    "count_allocations",
    "finite_diff_grad",
    "linalg",
    "max_relative_error",
    "no_grad",
    "param",
    "tensor",
]
