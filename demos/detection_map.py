"""Map the steering-detection regions of the lossy squeezed state.

Renders an ASCII (r, eta) map comparing the Gaussian criterion with the
2-level truncated-observable criterion for steering from B to A, and writes
the full sweep to CSV.  The Gaussian criterion detects nothing below
eta = 1/2; the truncated observables do, up to r about 0.87.
"""

import io

from cvsteer import B_TO_A, SweepSpec, run_sweep, write_sweep_csv

spec = SweepSpec(
    channel="loss",
    r_range=(0.05, 1.2, 24),
    param_range=(0.05, 0.95, 19),
    criteria=(("gaussian", B_TO_A), ("tloo-n2", B_TO_A)),
)
rows = run_sweep(spec)

gauss = {(row.r, row.param): row.steerable for row in rows if row.criterion == "gaussian"}
tloo = {(row.r, row.param): row.steerable for row in rows if row.criterion == "tloo-n2"}

etas = sorted({param for _, param in gauss}, reverse=True)
rs = sorted({r for r, _ in gauss})

print("steering from B to A:  G = Gaussian only, T = TLOO only, B = both, . = neither")
print("(the T cells below the eta = 0.5 line are invisible to Gaussian measurements)\n")
print("eta\\r  " + " ".join(f"{r:4.2f}" for r in rs))
for eta in etas:
    cells = []
    for r in rs:
        g, t = gauss[(r, eta)], tloo[(r, eta)]
        cells.append({(True, True): "B", (True, False): "G", (False, True): "T"}.get((g, t), "."))
    print(f"{eta:5.2f}  " + " ".join(f"{c:^4}" for c in cells))

buffer = io.StringIO()
write_sweep_csv(rows, buffer)
with open("loss_detection_map.csv", "w", encoding="utf-8") as handle:
    handle.write(buffer.getvalue())
print(f"\nwrote {len(rows)} rows to loss_detection_map.csv")
print("plot externally, e.g. margin vs (r, eta) per criterion")
