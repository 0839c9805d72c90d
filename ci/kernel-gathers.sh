#!/bin/sh
# Fails if the matrix kernel an AVX-512 build runs holds a gather or a
# scatter. Compiled for AVX-512, the kernel's generic tile loops were
# vectorized across the tile's rows with `vgatherqps`/`vscatterqps`: the
# same bits, over ten times slower. The check needs no AVX-512 CPU: it
# builds `deepsplit-nn` for `x86-64-v4`, where the runtime dispatcher picks
# the AVX-512 build without a check and drops the others, and reads the
# rlib's assembly.
#
# Usage, from the repository root: ci/kernel-gathers.sh [target-dir]
# (default `target-v4`; keep it apart from `target`, whose artifacts are
# built for the baseline CPU).
set -eu
dir=${1:-target-v4}
RUSTFLAGS="-C target-cpu=x86-64-v4" cargo build --release -p deepsplit-nn --target-dir "$dir"
rlib=$(ls -t "$dir"/release/deps/libdeepsplit_nn-*.rlib | head -n 1)
objdump -d --no-show-raw-insn -C "$rlib" > "$dir/deepsplit_nn-v4.asm"
# Every function of `nn::tensor` counts: the AVX-512 build and the products
# that inline its dispatch. Print each one holding a gather or a scatter.
# `gemm_avx512`'s `build` is `#[inline(never)]`, so its symbol is in the
# rlib whatever the toolchain inlines; without it the check would read
# code that is not the AVX-512 kernel, so its absence fails too.
awk '
    /^[0-9a-f]+ <.*>:$/ { name = $0; kernel = (name ~ /deepsplit_nn::tensor::/) }
    kernel && /gemm_avx512::build>:$/ { found = 1 }
    kernel && /vgather|vscatter/ { hits[name]++; total++ }
    END {
        for (f in hits) printf "%d gathers/scatters in %s\n", hits[f], f
        if (!found) { print "no AVX-512 kernel build (tensor::gemm_avx512::build) in the rlib"; exit 1 }
        if (total) exit 1
        print "the AVX-512 kernel holds no gather or scatter"
    }' "$dir/deepsplit_nn-v4.asm"
