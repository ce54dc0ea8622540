"""Noncommutative rewrite kernel; the implementation lives in _pure."""

from ._pure import IMPLEMENTATION, mul_letter, mul_reduce, reduce_terms, reduce_word

__all__ = ["IMPLEMENTATION", "reduce_word", "reduce_terms", "mul_reduce", "mul_letter"]
