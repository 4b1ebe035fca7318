"""The paper's primary contribution: elastic spatial sharing.

This package holds the vector-length-aware roofline model (§5.1), the
greedy lane-partition algorithm (§5.2), the lane managers, the four sharing
policies of Fig. 1 and the multi-core machine that ties scalar cores to the
shared co-processor.
"""
