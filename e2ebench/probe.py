"""Host speed gauge of the end-to-end benchmark, independent of the program.

One reading is the geometric mean of the fastest of three runs of a
fixed pure-Python loop and of the fastest of three 64 MB copies (more
than the last-level cache of the host the bounds were set on).
Neighbours on a shared host slow both the interpreter and the memory
system, each at its own times.

It serves readings on demand: one line on standard input, one reading
(seconds) on standard output, until end of input. It is a process of its
own because a child inherits the peak RSS of the process that starts
it, and the buffers would raise the harness's::

    python3 -S e2ebench/probe.py
"""

import sys
import time


def reading(source, target):
    loop = copy = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        loop = min(loop, time.perf_counter() - start)
        start = time.perf_counter()
        target[:] = source
        copy = min(copy, time.perf_counter() - start)
    return (loop * copy) ** 0.5


def main():
    source = bytearray(b"\x5a") * (64 << 20)
    target = bytearray(len(source))
    for _ in sys.stdin:
        print(repr(reading(source, target)), flush=True)


if __name__ == "__main__":
    main()
