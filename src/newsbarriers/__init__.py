"""Barrier detection for news spreading.

From event-centric article pairs and publisher metadata, this package derives
per-barrier labeled datasets (economic, cultural, geographical, time-zone,
political), builds concept-plus-profile feature vectors, and scores a suite of
from-scratch classifiers against dummy baselines by classification accuracy.
There is no package-level API: import from the submodules.
"""
