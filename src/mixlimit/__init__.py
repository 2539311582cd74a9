"""mixlimit: a desk-scale numerical laboratory for limits of normalized
partial sums of strongly mixing sequences.

Subpackages follow the pipeline: exact probability primitives
(`probcore`), mixing coefficients for concrete chains (`mixing`),
sequence generators with known norming (`processes`), class-L tests and
random integrals (`selfdecomp`), the three-block decomposition engine
(`blocking`), optimal couplings (`coupling`), and the experiment runner
(`harness`).
"""

__version__ = "0.1.0"
