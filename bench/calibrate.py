"""A fixed task that run.py times between rounds of query children.

It builds and probes a dict of tuples in random order, the kind of memory
traffic pcalc's memo tables and graphs make, and prints its own duration.
It imports nothing from pcalc, so its time moves only with how fast the host
runs such code at that moment, never with a change to the program.
"""

import random
import time

started = time.perf_counter()
keys = [(i, i * 7 % 13, "s") for i in range(100_000)]
table = {k: (k, i) for i, k in enumerate(keys)}
order = list(range(len(keys)))
random.Random(1).shuffle(order)
total = 0
for _ in range(2):
    for i in order:
        total += table[keys[i]][1]
print(time.perf_counter() - started)
