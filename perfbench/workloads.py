"""Benchmark workloads.

A workload fixes the shape of the synthetic multi-view datasets a run
generates from its seed, plus the `tenhash cluster` flags they are
clustered with. The
clustering flags follow the acceptance protocol (alpha 0.01, zeta 0.3,
seed 0), with 8 k-means restarts and the solver's default tolerance, so the
solver runs to convergence the way users run it.
"""

from dataclasses import dataclass

ALPHA = 0.01
ZETA = 0.3
CLUSTER_SEED = 0
RESTARTS = 8
MAX_ITER = 100
TOL = 1e-6

# Datasets per run, each drawn from its own seed derived from the run seed
# (gen.py says which part of a noisy dataset the seed draws).
# Clustering quality varies widely from one dataset to the next, so a run
# reports quality averaged over several datasets, and time as the median
# over repeated passes through all of them.
DATASETS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple          # feature count of each view
    n: int
    clusters: int        # Gaussian clusters generated
    k: int               # clusters asked of `tenhash cluster`
    anchors: int
    bits: int
    sep: float = 8.0     # radius of the sphere the cluster means lie on
    noise: float = 0.0   # salt-and-pepper ratio applied to every view
    standardize: bool = True

    @property
    def views(self):
        return len(self.dims)

    def cluster_flags(self):
        """The `tenhash cluster` flags this workload is clustered with."""
        flags = [
            "--anchors", str(self.anchors), "--bits", str(self.bits),
            "--alpha", repr(ALPHA), "--zeta", repr(ZETA),
            "--seed", str(CLUSTER_SEED), "--k", str(self.k),
            "--restarts", str(RESTARTS), "--max-iter", str(MAX_ITER),
            "--tol", repr(TOL),
        ]
        return flags if self.standardize else flags + ["--no-standardize"]


# Each workload makes a different layer the largest share of cluster_s, so
# that a change to one layer shows on one workload and is bypassed on the
# others. Sizes keep one clustering near a second or two on two cores.
WORKLOADS = {w.name: w for w in (
    # wide, unequal views: kernelization (and, in set-up, loading) dominate
    Workload("hetero-views", dims=(400, 50, 10), n=800, clusters=4, k=4, anchors=300, bits=32),
    # many anchors, four views: the per-view linear solves of the Q step
    # dominate, and the view-stacked tensors have complex spectral slices
    Workload("many-anchors", dims=(8, 8, 8, 8), n=400, clusters=4, k=4, anchors=300, bits=32),
    # many samples, salt-and-pepper noise: the code-space blocks (B, E and
    # the objective) dominate; every spectral slice is real at v=2, and the
    # noise makes quality sensitive to numerical changes
    Workload("noisy-codes", dims=(10, 10), n=1600, clusters=8, k=8, anchors=150,
             bits=64, noise=0.1),
    # 2^bits < k, so the fused codes have fewer distinct columns than
    # clusters and Hamming k-means seeding dominates
    Workload("collapsed-codes", dims=(10, 10), n=1500, clusters=4, k=20, anchors=150,
             bits=4, sep=16.0),
    # the acceptance protocol, for the benchmark's own tests
    Workload("smoke", dims=(4, 4), n=400, clusters=4, k=4, anchors=100, bits=16, standardize=False),
)}
