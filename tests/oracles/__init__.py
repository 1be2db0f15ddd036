"""Scalar reference engines the vectorised library engines are tested against."""
