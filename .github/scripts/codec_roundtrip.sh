#!/usr/bin/env bash
# Text codec round trip at n = 2^17 through the installed `fiszkit` command:
# simulate, estimate, the MAD comparator, varfn, vst forward and inverse
# (haar and daub8). Checks the lengths, that each vst inverse gives back its
# input, and the count of LF-ended lines of every written file. The haar
# inverse runs again on copies of its inputs with a blank line after every
# 5,000th line and at the end, which puts one in every block of 8,192 lines,
# so each block is read line by line; its output must equal the first one's.
# Usage: codec_roundtrip.sh DIR  (DIR is created and must hold no other files)
set -euo pipefail

d="$1"
mkdir -p "$d"
fiszkit simulate --signal bumps --n 131072 --min 3 --max 23.21 --noise exponential --seed 1 --out "$d/sim"
fiszkit estimate --in "$d/sim_noisy.txt" --out "$d/est.txt" --no-ti --emit-plots
fiszkit estimate --in "$d/sim_noisy.txt" --out "$d/est_mad.txt" --no-ti --baseline
fiszkit varfn --in "$d/sim_noisy.txt" --out "$d/vf.txt" --emit-plots
fiszkit vst forward --in "$d/sim_noisy.txt" --out "$d/xt.txt" --divisors "$d/div.txt"
fiszkit vst inverse --in "$d/xt.txt" --out "$d/back.txt" --divisors "$d/div.txt"
for name in xt div; do
  awk '{ print } NR % 5000 == 0 { print "" } END { print "" }' "$d/$name.txt" > "$d/${name}_gaps.txt"
done
fiszkit vst inverse --in "$d/xt_gaps.txt" --out "$d/back_gaps.txt" --divisors "$d/div_gaps.txt"
cmp "$d/back_gaps.txt" "$d/back.txt"
fiszkit vst forward --in "$d/sim_noisy.txt" --out "$d/xt8.txt" --divisors "$d/div8.txt" --basis daub8
fiszkit vst inverse --in "$d/xt8.txt" --out "$d/back8.txt" --divisors "$d/div8.txt"
python3 -c '
import os, sys
import numpy as np
d, n = sys.argv[1], 1 << 17
x, est, back, back8 = (np.loadtxt(f"{d}/{name}.txt")
                       for name in ("sim_noisy", "est", "back", "back8"))
if not x.shape == est.shape == back.shape == back8.shape == (n,):
    sys.exit(f"wrong lengths: {x.shape} {est.shape} {back.shape} {back8.shape}")
for name, y in (("haar", back), ("daub8", back8)):
    err = np.max(np.abs(y - x))
    if not err <= 1e-9 * np.max(np.abs(x)):
        sys.exit(f"vst inverse ({name}) misses the input by {err}")
# lines per written file: n values (+ 2 header lines from simulate), the
# 2^15 - 1 thresholds of the default 15 levels, 3 header lines + 256 grid
# rows per step file, the basis line + n - 1 divisors per divisor file, and
# n // 5000 + 1 blank lines more in each copy with gaps
gaps = n + n // 5000 + 1
rows = {"sim_truth": n + 2, "sim_noisy": n + 2, "est": n, "est_thresholds": 2**15 - 1,
        "est_varfn": 259, "est_plot_estimate": n, "est_plot_input": n, "est_mad": n, "vf": 259,
        "vf_sqrt": 256, "xt": n, "div": n, "back": n, "xt_gaps": gaps, "div_gaps": gaps,
        "back_gaps": n, "xt8": n, "div8": n, "back8": n}
if sorted(os.listdir(d)) != sorted(f"{name}.txt" for name in rows):
    sys.exit(f"unexpected files: {sorted(os.listdir(d))}")
for name, count in rows.items():
    data = open(f"{d}/{name}.txt", "rb").read()
    lines = data.count(b"\n")
    if b"\r" in data or not data.endswith(b"\n") or lines != count:
        sys.exit(f"{name}.txt: {lines} LF-ended lines, expected {count} and no CR")
' "$d"
