"""Print three sha256 values over 60 desk-scale camouflaged netlists: one over
each netlist's `to_json()`, one over its keyed circuit (the attacker's model)
and one over its `realize` circuit (the fabricated circuit).

Each netlist is hashed without its `metadata.checkpoint_sha256`, so a change
that moves only the last bits of the trained weights, and no netlist, keeps
the printed sha. Each keyed circuit (`keyize_netlist`) is hashed as its gates
in dict order, then its `key_inputs` and its `correct_key`, so a change to
the attacker's model shows even when every netlist stays the same. Each
fabricated circuit (`realize`) is hashed as its gates in dict order, then its
outputs, so a change to the netlist format that keeps what is built keeps
this sha.

The cells are the desk pairs (seeds 100-103, two 82-AND trees over 10 PIs,
as in tests/test_camouflage.py) x p 0/0.5/1 x Th 0.01/0.05/0.3/0.5/0.9,
each camouflaged with seed = its pair's index (one `camouflage_grid` per pair), on the toy checkpoint of
tests/conftest.py. ipcamo is imported from PYTHONPATH, so one script hashes
any checkout's src/:

    PYTHONPATH=src python3 .github/desk-sweep.py
"""
import hashlib
import pathlib
import sys

import numpy as np

from ipcamo import camouflage_grid, keyize_netlist, random_tree
from ipcamo.covert import realize
from ipcamo.vae import train

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from conftest import TOY_HP, make_toy_dataset


def main() -> None:
    params, _ = train(make_toy_dataset()[0], TOY_HP)
    h, keyed, fab = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for idx, seed in enumerate((100, 101, 102, 103)):
        rng = np.random.default_rng(seed)
        f = random_tree(rng, 82, n_pi_pool=10)
        a = random_tree(rng, 82, n_pi_pool=10)
        for nl in camouflage_grid(f, a, params, (0.0, 0.5, 1.0),
                                  (0.01, 0.05, 0.3, 0.5, 0.9), seed=idx):
            del nl.metadata["checkpoint_sha256"]
            h.update(nl.to_json().encode())
            kn = keyize_netlist(nl)
            for net, g in kn.circuit.gates.items():
                keyed.update(f"{net} {g.op} {' '.join(g.ins)}\n".encode())
            keyed.update(f"{kn.key_inputs} {kn.correct_key}\n".encode())
            real = realize(nl.appearance_view, nl.placements)
            for net, g in real.gates.items():
                fab.update(f"{net} {g.op} {' '.join(g.ins)}\n".encode())
            fab.update(f"{real.outputs}\n".encode())
    print("desk sweep sha256 (60 cells):", h.hexdigest())
    print("keyed circuit sha256 (60 cells):", keyed.hexdigest())
    print("realize circuit sha256 (60 cells):", fab.hexdigest())


if __name__ == "__main__":
    main()
