"""Print the sha256 over `to_json()` of 60 desk-scale camouflaged netlists.

Each netlist is hashed without its `metadata.checkpoint_sha256`, so a change
that moves only the last bits of the trained weights, and no netlist, keeps
the printed sha.

The cells are the desk pairs (seeds 100-103, two 82-AND trees over 10 PIs,
as in tests/test_camouflage.py) x p 0/0.5/1 x Th 0.01/0.05/0.3/0.5/0.9,
each camouflaged with seed = its pair's index, on the toy checkpoint of
tests/conftest.py. ipcamo is imported from PYTHONPATH, so one script hashes
any checkout's src/:

    PYTHONPATH=src python3 .github/desk-sweep.py
"""
import hashlib
import pathlib
import sys

import numpy as np

from ipcamo import camouflage_pipeline, random_tree
from ipcamo.vae import train

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from conftest import TOY_HP, make_toy_dataset


def main() -> None:
    params, _ = train(make_toy_dataset()[0], TOY_HP)
    h = hashlib.sha256()
    for idx, seed in enumerate((100, 101, 102, 103)):
        rng = np.random.default_rng(seed)
        f = random_tree(rng, 82, n_pi_pool=10)
        a = random_tree(rng, 82, n_pi_pool=10)
        for p in (0.0, 0.5, 1.0):
            for th in (0.01, 0.05, 0.3, 0.5, 0.9):
                nl = camouflage_pipeline(f, a, params, p, th, seed=idx)
                del nl.metadata["checkpoint_sha256"]
                h.update(nl.to_json().encode())
    print("desk sweep sha256 (60 cells):", h.hexdigest())


if __name__ == "__main__":
    main()
