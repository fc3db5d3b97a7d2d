"""Network-flow anomaly detection toolkit.

Pipeline: ingest flow CSVs, preprocess (encode, reduce, standardize), fit a
Gaussian mixture over normal traffic, band its training-score quartiles with
a width multiplier w, and flag records scoring outside the band. Includes
evaluation (accuracy / detection rate / false-positive rate, one sweep over
a w grid) and a multi-node collaborative detection simulator over one
capture file, streamed in passes and cut into each node's intervals.
"""

__version__ = "0.1.0"
