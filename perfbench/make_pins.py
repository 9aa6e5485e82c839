"""Regenerate the Monte Carlo pins in pins.json.

    python3 perfbench/make_pins.py

The pins are the outputs of the commit the benchmark was defined on;
a later change must reproduce them, not regenerate them.  Rerun this
only to pin a configuration the benchmark newly adds, and say so in
the change.  The known-defect list in pins.json is kept as it is.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    from workloads import MC_CONFIGS, N_PIN_SEEDS, Lib, burgers_mc_config, mc_config

    lib = Lib()
    path = os.path.join(HERE, "pins.json")
    with open(path) as fh:
        pins = json.load(fh)

    def pin(ev):
        return {"hits": ev.hits, "stopped_fraction": ev.stopped_fraction,
                "nonfinite_paths": ev.nonfinite_paths}

    pins["montecarlo"] = {}
    for name, (model_name, _, _) in MC_CONFIGS.items():
        model = lib.models.get_builtin(model_name)
        pins["montecarlo"][name] = {
            str(s): pin(lib.montecarlo.simulate(model, np.zeros(model.d),
                                                mc_config(lib, name, s)))
            for s in range(N_PIN_SEEDS)
        }
        print(name, pins["montecarlo"][name], flush=True)
    bg = lib.models.get_builtin("burgers")
    pins["burgers_montecarlo"] = {
        str(s): pin(lib.montecarlo.simulate(bg, np.zeros(bg.d), burgers_mc_config(lib, s)))
        for s in range(N_PIN_SEEDS)
    }
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
