"""One forward and backward pass of the network at a given order and batch.

    python3 bench/baseline.py 3 20 5 4 6 2     # (order, batch) pairs

Prints forward, backward and peak-memory figures per pair: the reference
rows of bench/README.md.  Peak memory is the tracemalloc peak of the pass
and the process's peak resident set so far.  Uses the model shape of the
benchmark (channels 16,32, L=3) with its initial parameters.
"""

import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cpus)
    sys.path.insert(0, str(SRC))
    import numpy as np

    from smmn import net

    pairs = [(int(a), int(b)) for a, b in zip(argv[::2], argv[1::2])]
    for order, batch in pairs:
        model = net.MMNModel(net.ModelConfig(input_order=order, channels=(16, 32)))
        rng = np.random.default_rng(0)
        num_v = model.num_input_vertices
        feats = rng.standard_normal((batch, 1, num_v))
        ctxn = rng.standard_normal((batch, 2))
        masks = [net.sample_mask(num_v, 0.5, rng) for _ in range(batch)]
        xb, mask_matrix = net.masked_batch(model, feats, masks)
        tracemalloc.start()
        start = time.perf_counter()
        xhat, tape = net.forward_core(model, xb, ctxn, record=True)
        fwd = time.perf_counter() - start
        _, dxhat = net.batch_loss_and_grad(xhat, feats, masks)
        start = time.perf_counter()
        net.backward_core(model, tape, dxhat, mask_matrix)
        bwd = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        del tape
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"order {order} B={batch}: fwd {fwd:.2f} s, bwd {bwd:.2f} s, "
              f"tracemalloc peak {peak:.0f} MiB, peak RSS {rss:.0f} MiB", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
