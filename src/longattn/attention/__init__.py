"""Attention score mechanisms, positional structure, and the multi-head wrapper."""

from .encodings import DEFAULT_ALPHA, signed_sinusoid_table, sinusoid_encoding
from .multihead import attention_weights, multi_head_attention
from .params import VARIANTS, AttentionVariant, init_attention_params
from .variants import attn_kernel_form, kernel_form_factors, sigma_inverse

__all__ = [
    "AttentionVariant",
    "DEFAULT_ALPHA",
    "VARIANTS",
    "attention_weights",
    "attn_kernel_form",
    "init_attention_params",
    "kernel_form_factors",
    "multi_head_attention",
    "signed_sinusoid_table",
    "sigma_inverse",
    "sinusoid_encoding",
]
