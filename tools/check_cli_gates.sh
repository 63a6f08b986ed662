#!/usr/bin/env bash
# CLI gates (docs/CI.md), registered as the ctest entry `cli_gates`:
# sweep determinism against tests/golden/paper_sweep.csv, sweep
# --resume, input validation, the config plane (paper configs, --set
# precedence, the shorthand aliases, corrupt configs), sampled
# simulation, and docs/CONFIG.md's parameter table against
# `params --markdown`.
#
# Usage: tools/check_cli_gates.sh path/to/resim_cli
# Works in a scratch directory it deletes on exit; any mismatch fails.
set -euo pipefail

cli=$(realpath "$1")
root=$(cd "$(dirname "$0")/.." && pwd)
configs="$root/configs"
golden="$root/tests/golden/paper_sweep.csv"
jobs=$(nproc)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
"$cli" gen --bench gzip --insts 50000 --out ci.rsim

echo "== sweep determinism"
"$cli" sweep -j 1 --spec "$configs/paper_sweep.spec" --out serial.csv
"$cli" sweep -j "$jobs" --spec "$configs/paper_sweep.spec" --out parallel.csv
cmp serial.csv parallel.csv
cmp "$golden" serial.csv && cmp "$golden" parallel.csv
# Full-config exports are byte-stable across thread counts.
"$cli" sweep -j 1 --spec "$configs/paper_sweep.spec" --insts 5000 \
    --out /dev/null --json j1.json --csv-full f1.csv
"$cli" sweep -j "$jobs" --spec "$configs/paper_sweep.spec" --insts 5000 \
    --out /dev/null --json jN.json --csv-full fN.csv
cmp j1.json jN.json && cmp f1.csv fN.csv

echo "== sweep --resume"
printf 'bench = gzip\npipeline.variant = optimized\ncore.width = 2,4,8\n' > gzip.spec
printf 'core.rob_size = 16\nbp.kind = 2lev\n' >> gzip.spec
"$cli" sweep -j 1 --spec gzip.spec --insts 10000 --out resume_full.csv
# Header + first row + a half-written row (an interrupted write): the
# resume drops the partial row, re-runs its point, and ends byte-equal.
head -2 resume_full.csv > resume_part.csv
printf '%s' "$(sed -n 3p resume_full.csv | cut -c1-30)" >> resume_part.csv
"$cli" sweep -j "$jobs" --spec gzip.spec --insts 10000 --resume resume_part.csv \
    2> resume_err.txt
cat resume_err.txt
grep -q "dropped 1 malformed row" resume_err.txt
cmp resume_full.csv resume_part.csv
# Resuming a sweep with a different column layout is refused.
printf 'bench = gzip\ncore.width = 2\nmem.l1d.assoc = 2,4\nset mem.perfect = false\ninsts = 5000\n' > ax.spec
! "$cli" sweep --spec ax.spec --resume resume_part.csv 2> err.txt
grep -q "does not match" err.txt
# The warning names the --config parameters no CSV column records.
"$cli" sweep --spec gzip.spec --insts 2000 --config "$configs/paper_2wide_cache.cfg" \
    --resume cfg_resume.csv 2> err.txt
grep -q "no CSV column records.* core.mem_read_ports" err.txt

echo "== input validation"
! "$cli" gen --bench gzip --insts 1000 --chunk 0 --out bad.rsim 2> err.txt
grep -q -- "--chunk" err.txt
test ! -f bad.rsim
# Unknown backend spellings, mmap among them, name the
# parameter and what it accepts.
for backend in floppy mmap; do
  ! "$cli" sim --trace ci.rsim --backend "$backend" 2> err.txt
  grep -qF "trace.backend" err.txt
  grep -qF "memory|stream" err.txt
done
# Cross-field violations name the parameter to change.
! "$cli" sim --trace ci.rsim --width 2 2> err.txt
grep -qF "core.mem_read_ports = 2 exceeds core.width - 1 = 1" err.txt
! "$cli" sim --trace ci.rsim --width 16 2> err.txt
grep -qF "core.ifq_size = 8 is below core.width = 16" err.txt
# Flags a command does not read are refused by name.
! "$cli" sim --trace ci.rsim --mem l1 2> err.txt
grep -q "unknown flag --mem" err.txt
! "$cli" sweep --bench gzip --widths 2,4 2> err.txt
grep -q "unknown flag --bench" err.txt
! "$cli" sweep --insts 1000 2> err.txt
grep -q -- "needs --spec" err.txt
# The daemon listens on its Unix socket only: no TCP flag, and no
# socket is no listener. Serve and client errors carry the one
# `resim_cli <command>: ` prefix, like every other command's: the whole
# line is matched.
! "$cli" serve --tcp 0 2> err.txt
grep -q "unknown flag --tcp" err.txt
! "$cli" client --tcp 1 2> err.txt
grep -q "unknown flag --tcp" err.txt
set +e
timeout 20 "$cli" serve 2> err.txt
status=$?
set -e
test "$status" -eq 1
grep -qx "resim_cli serve: no listener configured (need a unix socket path)" err.txt
! LC_ALL=C "$cli" client --socket none.sock --ping 2> err.txt
grep -qx "resim_cli client: connect none.sock: No such file or directory" err.txt
# A number its flag's type cannot hold exits 1 naming the flag, before
# anything is written, run or connected (2^32 + 1 once narrowed to 1).
exits_1() {
  local status=0
  "$@" 2> err.txt || status=$?
  test "$status" -eq 1
}
exits_1 "$cli" vhdl --out vhdl_big --pht 4294967297
grep -q -- "--pht: 4294967297" err.txt
test ! -e vhdl_big
exits_1 "$cli" sweep -j 4294967297 --spec "$configs/paper_sweep.spec" --out big_j.csv
grep -q -- "-j: 4294967297" err.txt
test ! -e big_j.csv
exits_1 "$cli" schedule --width 4294967297
grep -q -- "--width: 4294967297" err.txt
exits_1 "$cli" client --socket none.sock --sim --trace ci.rsim --priority 4294967305
grep -q -- "--priority: 4294967305" err.txt

echo "== config plane"
"$cli" sim --trace ci.rsim --config "$configs/paper_4wide_perfect.cfg"
"$cli" sim --trace ci.rsim --config "$configs/paper_2wide_cache.cfg"
# Checked-in configs round-trip byte-identically through save_config.
"$cli" params --config "$configs/paper_4wide_perfect.cfg" --save rt.cfg
cmp "$configs/paper_4wide_perfect.cfg" rt.cfg
# --set overrides --config (and covers the trace.backend param). Output
# goes to a file first: under pipefail, `| grep -q` can SIGPIPE the CLI.
"$cli" params --config "$configs/paper_4wide_perfect.cfg" --set core.rob_size=64 > p1.txt
grep -q "core.rob_size = 64" p1.txt
"$cli" params --set trace.backend=stream > p2.txt
grep -q "trace.backend = stream" p2.txt
# The shorthand aliases are pure sugar for --set, and bare sim runs the
# saved defaults exactly: nothing is derived.
"$cli" sim --trace ci.rsim --rob 32 --json alias.json > /dev/null
"$cli" sim --trace ci.rsim --set core.rob_size=32 --json set.json > /dev/null
cmp alias.json set.json
"$cli" params --save defaults.cfg > /dev/null
"$cli" sim --trace ci.rsim --json bare.json > /dev/null
"$cli" sim --trace ci.rsim --config defaults.cfg --json cfg.json > /dev/null
cmp bare.json cfg.json
# Corrupt configs are rejected with the dotted path in the error.
printf 'core.rob_size = 1\n' > bad_range.cfg
! "$cli" sim --trace ci.rsim --config bad_range.cfg 2> err.txt
grep -q "core.rob_size" err.txt
printf 'not.a.param = 3\n' > bad_key.cfg
! "$cli" sim --trace ci.rsim --config bad_key.cfg 2> err.txt
grep -q "bad_key.cfg:1" err.txt
echo "== sampled simulation"
# sample.* defaults must be a no-op: explicit zeros produce the
# byte-identical report, JSON and sweep CSV (docs/SAMPLING.md).
"$cli" sim --trace ci.rsim --config "$configs/paper_4wide_perfect.cfg" \
    --report --json sam_a.json > sam_a.txt
"$cli" sim --trace ci.rsim --config "$configs/paper_4wide_perfect.cfg" \
    --report --json sam_b.json \
    --set sample.windows=0 --set sample.interval_insts=0 > sam_b.txt
cmp sam_a.txt sam_b.txt
cmp sam_a.json sam_b.json
"$cli" sweep -j "$jobs" --spec "$configs/paper_sweep.spec" \
    --set sample.windows=0 --out sam_off.csv
cmp "$golden" sam_off.csv
# Sampled execution prints per-window estimates with CIs.
"$cli" sim --trace ci.rsim --set sample.windows=6 \
    --set sample.window_insts=4000 --set sample.warmup_insts=1000 > sam_run.txt
grep -q "sampled 6 windows" sam_run.txt
grep -q "estimate ipc" sam_run.txt
# Explicit plan files drive the window starts.
printf '# window starts\n1000\n20000\n40000\n' > sam.plan
"$cli" sim --trace ci.rsim --plan sam.plan \
    --set sample.window_insts=4000 > sam_plan.txt
grep -q "sampled 3 windows" sam_plan.txt
# Interval time series: CSV rows and columnar JSON.
"$cli" sim --trace ci.rsim --set sample.interval_insts=10000 \
    --intervals iv.csv > /dev/null
test "$(wc -l < iv.csv)" -eq 6  # header + 5 x 10000-inst rows
"$cli" sim --trace ci.rsim --set sample.interval_insts=10000 \
    --intervals iv.json > /dev/null
grep -q '"interval_insts": 10000' iv.json
# Interval rows, sampled windows and the post-warm-up region, pinned to
# tests/golden/region_*: a whole, a windowed and a sampled run on the
# cache machine with a 2-level predictor, so every column moves.
for run in whole window sampled; do
  case $run in
    whole) args=(--set sample.interval_insts=5000) ;;
    window) args=(--skip 17000 --warmup 3000 --max-records 20000
                  --set sample.interval_insts=2000) ;;
    sampled) args=(--set sample.windows=5 --set sample.window_insts=3000
                   --set sample.warmup_insts=1000 --set sample.interval_insts=600) ;;
  esac
  for ext in csv json; do
    "$cli" sim --trace ci.rsim --config "$configs/paper_2wide_cache.cfg" \
        --set bp.kind=2lev "${args[@]}" --intervals "region_$run.$ext" > "region_$run.txt"
    cmp "$root/tests/golden/region_$run.$ext" "region_$run.$ext"
  done
done
cmp "$root/tests/golden/region_window.txt" region_window.txt
cmp "$root/tests/golden/region_sampled.txt" region_sampled.txt
# Sampling is a sweep axis: byte-identical across thread counts.
printf 'pipeline.variant = optimized\ncore.width = 2,4\ncore.rob_size = 16\nbp.kind = 2lev\n' \
    > widths.spec
"$cli" sweep -j 1 --trace ci.rsim --spec widths.spec \
    --set sample.windows=4 --set sample.window_insts=3000 --out samsw1.csv
"$cli" sweep -j "$jobs" --trace ci.rsim --spec widths.spec \
    --set sample.windows=4 --set sample.window_insts=3000 --out samswN.csv
cmp samsw1.csv samswN.csv
# Misuse is refused with a named flag, not silently ignored.
! "$cli" sim --trace ci.rsim --intervals nope.csv 2> sam_err.txt
grep -q "interval_insts" sam_err.txt
! "$cli" sim --trace ci.rsim --set sample.windows=2 --skip 100 2> sam_err.txt
grep -q -- "--skip" sam_err.txt

echo "== doc drift"
# docs/CONFIG.md's parameter table is generated output; a new or
# changed parameter must ship with the regenerated table (the only
# '|'-prefixed lines in the file are that table).
"$cli" params --markdown > params_table.md
grep '^|' "$root/docs/CONFIG.md" > doc_table.md
diff -u doc_table.md params_table.md || {
  echo "docs/CONFIG.md parameter table is stale; run" \
       "'resim_cli params --markdown' and paste the table in"
  exit 1
}
echo "cli gates: PASS"
