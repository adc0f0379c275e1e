"""Fixed reference job that measures host speed; it never imports smfpca.

The benchmark times this script in a fresh process between repetitions
and scales its timings by the nominal duration over the measured one, so
that a host running slower for a while does not read as a slower
program. The mix mirrors the workloads: interpreter start and numpy and
scipy imports, sparse LU factorizations, dense SVDs, a Python loop and
float parsing.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

n = 40
lap = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
eye = sparse.identity(n)
A = (sparse.kron(lap, eye) + sparse.kron(eye, lap)
     + 0.01 * sparse.identity(n * n)).tocsc()
for _ in range(10):
    splinalg.splu(A).solve(np.ones(n * n))
M = np.random.default_rng(0).standard_normal((40, 1000))
for _ in range(5):
    np.linalg.svd(M, full_matrices=False)
total = 0
for i in range(200_000):
    total += i * i
text = ",".join(repr(float(x)) for x in M.ravel()[:20_000])
[float(c) for c in text.split(",")]
