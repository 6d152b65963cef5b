"""Write the dataset directories of one benchmark run.

Usage: python3 gen.py SRC_DIR WORKLOAD SEED OUT_DIR

Writes OUT_DIR/0 .. OUT_DIR/<DATASETS - 1>. Runs in its own process so that
generating the data does not count toward the peak RSS of the process that
measures the clustering.
"""

import os
import sys

from workloads import DATASETS, WORKLOADS


def main(argv):
    src, name, seed, out = argv
    sys.path.insert(0, src)
    from tenhash import data

    w = WORKLOADS[name]
    for index in range(DATASETS):
        ds_seed = 1000 * int(seed) + index  # no overlap between runs
        # With noise, the clean clusters of dataset `index` are the same in
        # every run and the seed draws the noise: the cluster layout alone
        # moves quality by more than the noise does.
        dataset = data.gen_gaussian_clusters(
            k=w.clusters, v=w.views, n=w.n, dims=list(w.dims), sep=w.sep,
            seed=index if w.noise else ds_seed,
        )
        if w.noise:
            # per-view noise seeds as `tenhash noise --seed SEED` draws them
            dataset = data.MultiViewData(
                views=[data.salt_pepper(view, w.noise, ds_seed + p)
                       for p, view in enumerate(dataset.views)],
                labels=dataset.labels, name=dataset.name,
            )
        data.save_multiview(dataset, os.path.join(out, str(index)), force=True)


if __name__ == "__main__":
    main(sys.argv[1:])
