"""Exact enumeration of cyclically colored polygonal plane cacti.

Three mutually cross-checking computation paths: closed-form counting
formulas (`cacti.formulas`), truncated formal power series solving the
species functional equations (`cacti.series`), and exhaustive generation of
small instances with exact automorphism data (`cacti.oracle`).  Names are
imported from these submodules, e.g. ``from cacti import formulas``.
"""
