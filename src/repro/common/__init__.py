"""Shared infrastructure: errors, machine configuration, timelines.

Everything in this package is policy-free plumbing used by the ISA,
memory, co-processor and compiler layers.
"""
