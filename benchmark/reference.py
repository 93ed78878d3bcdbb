"""Fixed reference job that the benchmark times next to every op.

    python reference.py

It shares no code with svfrac and never changes, so its wall time measures
how fast the host runs right now. The mix follows the svfrac ops: a fresh
interpreter, a numpy import, a loop of scalar float arithmetic (as in the
inclusion solver's right-hand-side callbacks), a Python loop over small
numpy arrays (as in the RL weight build and the verification checks), and
passes over an array of tens of megabytes (as in the dense weight matrix).
run.py divides each op's wall time by the reference times around it.
"""

import numpy as np

acc = 0.0
for k in range(200_000):
    u = k * 1e-5
    acc += max(-u + 0.1, min(u, 0.2)) * 0.5
x = np.linspace(0.0, 1.0, 512)
for k in range(2000):
    acc += float(np.sum(np.abs(x[: k % 500 + 2] - 0.3) ** 1.5))
big = np.linspace(0.0, 1.0, 2_000_000)
for _ in range(4):
    big = np.sqrt(big * big + 1.0) - 0.5
acc += float(big.sum())
print(repr(acc))
