"""Exact-arithmetic Rabinowitz Floer homology of negative line bundles over
monotone or aspherical symplectic bases."""

__version__ = "0.1.0"
