"""Evaluation drivers: one entry point per paper figure/table.

``experiments`` runs the simulations (with memoisation so Fig. 10/11/13/15
share one pair sweep), ``area`` provides the Fig. 12 analytical area model,
and ``reporting`` renders the ASCII and Markdown tables.
"""
