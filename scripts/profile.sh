#!/usr/bin/env bash
# Where one benchmark workload spends its time, by function and source line.
#
#   scripts/profile.sh <workload> [seed=42] [--smoke]
#
# Builds the benchmark and scripts/sampler.c (into target/profile/), runs the
# benchmark's driver form (`--seconds 10 --trace 0`; with --smoke, the smoke
# shape for half a second) with the sampler preloaded, then symbolizes the
# sampled instruction pointers with addr2line. Prints the innermost (inlined)
# functions, and the innermost source lines in this repository, with the most
# samples, each as a share of all samples; a sample outside the benchmark
# binary counts for its library. A third table charges each library sample
# to the function and repository line of the binary's call site its return
# address points at (see sampler.c): exact for a leaf routine such as
# memmove or memcpy, which has pushed nothing. The sampler ticks at 10 kHz on
# CLOCK_MONOTONIC and reads only its own process; it needs no perf events or
# kernel setting. Raw samples stay in target/profile/<workload>-<seed>/.
set -euo pipefail

smoke=0
args=()
for arg in "$@"; do
    if [ "$arg" = --smoke ]; then smoke=1; else args+=("$arg"); fi
done
if [ ${#args[@]} -lt 1 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
workload=${args[0]}
seed=${args[1]:-42}
top=15

root=$(git rev-parse --show-toplevel)
cd "$root"
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin=$root/benchmark/target/release/heap-benchmark
mkdir -p target/profile
cc -O2 -shared -fPIC -o target/profile/sampler.so scripts/sampler.c -lrt

out=target/profile/$workload-$seed
rm -rf "$out"
mkdir -p "$out"
if [ "$smoke" = 1 ]; then
    run=(--smoke --workload "$workload" --seed "$seed" --seconds 0.5 --trace 0)
else
    run=(--workload "$workload" --seed "$seed" --seconds 10 --trace 0)
fi
(cd "$out" && LD_PRELOAD="$root/target/profile/sampler.so" "$bin" "${run[@]}" >run.txt)

# Unique addresses with their counts: "count exe <elf vaddr, hex>" inside the
# benchmark binary (mapped file offset -> the LOAD segment's virtual address),
# "count lib <file name>" elsewhere. A library sample whose return address
# (see sampler.c) lies in the binary's code also counts as "count call <file
# name> <elf vaddr of the call instruction>". Plain POSIX awk: hex is parsed
# by hand.
readelf -lW "$bin" | awk '$1 == "LOAD" { print "seg", $2, $3, $5 }' >"$out/segments.txt"
awk -v exe="$bin" '
    function hex(s,    i, v) {
        s = tolower(s); sub(/^0x/, "", s)
        for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
    }
    # "exe <vaddr>", "lib <name>" or "lib unmapped"; with code_only, "" for
    # an address outside the binary'"'"'s executable mappings.
    function locate(a, code_only,    m, s, off, name) {
        for (m = 1; m <= nmap; m++) {
            if (a < mstart[m] || a >= mend[m]) continue
            if (mpath[m] != exe) {
                if (code_only) return ""
                name = mpath[m]; sub(/.*\//, "", name); return "lib " name
            }
            if (code_only && index(mperm[m], "x") == 0) return ""
            off = a - mstart[m] + moff[m]
            for (s = 1; s <= nseg; s++)
                if (off >= soff[s] && off < soff[s] + ssize[s])
                    return sprintf("exe %x", off - soff[s] + svaddr[s])
            return code_only ? "" : "lib unmapped"
        }
        return code_only ? "" : "lib unmapped"
    }
    $1 == "seg" { nseg++; soff[nseg] = hex($2); svaddr[nseg] = hex($3); ssize[nseg] = hex($4); next }
    $1 == "map" {
        split($2, range, "-"); nmap++
        mstart[nmap] = hex(range[1]); mend[nmap] = hex(range[2])
        mperm[nmap] = $3; moff[nmap] = hex($4); mpath[nmap] = $7 == "" ? "anonymous" : $7
        next
    }
    $1 == "ip" { count[$2]++; ret[$2 " " $3]++; total++ }
    END {
        print "total", total
        for (ip in count) { where[ip] = locate(hex(ip), 0); print count[ip], where[ip] }
        for (pair in ret) {
            split(pair, p, " ")
            if (where[p[1]] !~ /^lib /) continue
            caller = locate(hex(p[2]) - 1, 1)
            if (caller == "") continue
            split(caller, c, " "); lib = where[p[1]]; sub(/^lib /, "", lib)
            calls[lib " " c[2]] += ret[pair]
        }
        for (k in calls) print calls[k], "call", k
    }' "$out/segments.txt" "$out/samples.txt" >"$out/counts.txt"

# addr2line -i prints each address's frames innermost first, a function line
# then a file:line line each. Keep the innermost function, and the innermost
# source line inside this repository (a std helper inlined into our code is
# charged to the line that called it), or the innermost one if none is.
awk '$2 == "exe" { print $3 } $2 == "call" { print $4 }' "$out/counts.txt" | sort -u |
    addr2line -a -f -i -C -e "$bin" |
    awk -v root="$root/" '
        function flush() { if (addr != "") print addr "\t" fn "\t" (mine != "" ? mine : first) }
        /^0x[0-9a-f]+$/ { flush(); addr = $0; sub(/^0x0*/, "", addr); n = 0; mine = ""; next }
        { n++ }
        n == 1 { fn = $0 }
        n % 2 == 0 {
            sub(/ \(discriminator [0-9]+\)/, "")
            if (n == 2) first = $0
            if (mine == "" && index($0, root) == 1) mine = $0
        }
        END { flush() }' >"$out/frames.txt"

report() { # <title> <column of frames.txt: 2 function, 3 line, 0 caller>
    echo "== $1, % of all samples =="
    awk -v col="$2" -v root="$root/" -v top="$top" '
        FILENAME ~ /frames/ { split($0, f, "\t"); fn[f[1]] = f[2]; line[f[1]] = f[3]; next }
        $1 == "total" { total = $2; next }
        function strip(k) { return index(k, root) == 1 ? substr(k, length(root) + 1) : k }
        col == 0 {
            if ($2 != "call") next
            a = $4; sub(/^0*/, "", a)
            share["[" $3 "] " fn[a] "  " strip(line[a])] += $1
            next
        }
        $2 == "call" { next }
        {
            k = "[" $3 "]"
            if ($2 == "exe") { a = $3; sub(/^0*/, "", a); if (a in fn) k = col == 2 ? fn[a] : line[a] }
            share[strip(k)] += $1
        }
        END {
            for (k in share) printf "%6.2f%%  %s\n", 100 * share[k] / total, k | "sort -rn | head -n " top
        }' "$out/frames.txt" "$out/counts.txt"
    echo
}
echo "$workload, seed $seed$([ "$smoke" = 1 ] && echo ', smoke'): $(head -n 1 "$out/counts.txt" | cut -d' ' -f2) samples"
report "innermost functions" 2
report "source lines in the repository" 3
report "library samples by the caller they return to (exact for leaf routines such as memmove)" 0
