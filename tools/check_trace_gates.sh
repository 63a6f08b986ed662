#!/usr/bin/env bash
# Trace byte-identity gates (docs/CI.md), registered as the ctest entry
# `trace_gates` and run by CI through ctest:
#
#  * backend round trip: sim, stats and sweep output is identical across
#    the memory and stream backends, containers v2/v3/v4, -j1/-jN and
#    shared decode on/off; LZ halves the container at least, and the
#    delta pre-filter never loses to plain LZ;
#  * windowed round trip: over 1000-record chunks, full and windowed
#    (`--skip 15000 --warmup 1000`) sims agree on both backends and every
#    container while the skip hops whole (compressed) chunks unread,
#    plus a spec sweep with --json/--csv-full exports;
#  * decode-once: a same-trace stream-backend sweep decodes every chunk
#    exactly once at any -j (tools/check_decode_once.py);
#  * version 1 refused: a container header naming the retired unframed
#    version exits 1 on every reader, naming the version and the file.
#
# Usage: tools/check_trace_gates.sh path/to/resim_cli
# Works in a scratch directory it deletes on exit; any mismatch fails.
set -euo pipefail

cli=$(realpath "$1")
tools=$(cd "$(dirname "$0")" && pwd)
spec="$tools/../configs/paper_sweep.spec"
jobs=$(nproc)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== backend round trip"
"$cli" gen --bench gzip --insts 50000 --out ci.rsim
"$cli" gen --bench gzip --insts 50000 --compress --out ci_lz.rsim
"$cli" gen --bench gzip --insts 50000 --compress --prefilter --out ci_v4.rsim
raw=$(stat -c%s ci.rsim); lz=$(stat -c%s ci_lz.rsim); v4=$(stat -c%s ci_v4.rsim)
echo "v2 $raw bytes, v3 $lz bytes, v4 $v4 bytes"
test "$raw" -ge "$((2 * lz))"
test "$lz" -ge "$v4"
# sim output identical across backends and containers.
"$cli" sim --trace ci.rsim --width 4 > sim_mem.txt
for src in ci.rsim ci_lz.rsim ci_v4.rsim; do
  "$cli" sim --trace "$src" --width 4 --backend stream > sim_b.txt
  diff sim_mem.txt sim_b.txt
done
"$cli" stats --trace ci.rsim > stats_mem.txt
"$cli" stats --trace ci_lz.rsim --backend stream > stats_stream.txt
diff stats_mem.txt stats_stream.txt
# Sweep CSVs byte-identical across backends and thread counts.
"$cli" sweep -j 1 --spec "$spec" --out serial.csv
"$cli" sweep -j 1 --spec "$spec" --backend stream --out stream_serial.csv
"$cli" sweep -j "$jobs" --spec "$spec" --backend stream --out stream_parallel.csv
cmp serial.csv stream_serial.csv
cmp stream_serial.csv stream_parallel.csv
# Prepared-trace sweeps: shared decoded vs streamed, over the raw,
# compressed and delta-prefiltered containers, with the shared-decode
# group plane both on (default) and off.
printf 'pipeline.variant = optimized\ncore.width = 2,4\ncore.rob_size = 16\nbp.kind = 2lev\n' > w.spec
"$cli" sweep -j 1 --trace ci.rsim --spec w.spec --out tracefile_shared.csv
"$cli" sweep -j "$jobs" --trace ci.rsim --backend stream --spec w.spec --out tracefile_streamed.csv
"$cli" sweep -j "$jobs" --trace ci_lz.rsim --backend stream --spec w.spec --out tracefile_stream_lz.csv
"$cli" sweep -j "$jobs" --trace ci_v4.rsim --backend stream --spec w.spec --out tracefile_stream_v4.csv
"$cli" sweep -j "$jobs" --trace ci_v4.rsim --backend stream --spec w.spec \
    --set trace.shared_decode=false --out tracefile_private_v4.csv
cmp tracefile_shared.csv tracefile_streamed.csv
cmp tracefile_shared.csv tracefile_stream_lz.csv
cmp tracefile_shared.csv tracefile_stream_v4.csv
cmp tracefile_shared.csv tracefile_private_v4.csv

echo "== windowed round trip"
# Small chunks put many chunk boundaries inside the skip and the window.
"$cli" gen --bench parser --insts 20000 --chunk 1000 --out san.rsim
"$cli" gen --bench parser --insts 20000 --chunk 1000 --compress --out san_lz.rsim
"$cli" gen --bench parser --insts 20000 --chunk 1000 --compress --prefilter --out san_v4.rsim
"$cli" sim --trace san.rsim > san_mem.txt
for src in san.rsim san_lz.rsim san_v4.rsim; do
  "$cli" sim --trace "$src" --backend stream > san_b.txt
  diff san_mem.txt san_b.txt
done
# Chunk-skipping seek over compressed chunks: the windowed run must
# match while seeking whole chunks unread (never inflated).
"$cli" sim --trace san.rsim --skip 15000 --warmup 1000 > san_win_mem.txt
"$cli" sim --trace san_lz.rsim --skip 15000 --warmup 1000 --backend stream > san_win_stream.txt
"$cli" sim --trace san_v4.rsim --skip 15000 --warmup 1000 --backend stream > san_win_v4.txt
grep -q "chunk-skip seek jumped" san_win_stream.txt
grep -q "chunk-skip seek jumped" san_win_v4.txt
diff <(grep -v "chunk-skip" san_win_mem.txt) <(grep -v "chunk-skip" san_win_stream.txt)
diff <(grep -v "chunk-skip" san_win_mem.txt) <(grep -v "chunk-skip" san_win_v4.txt)
# Spec sweep exports (cli_gates compares them across -j; under the
# sanitizers this run must simply come out clean).
"$cli" sweep -j 2 --spec "$spec" --insts 3000 --out /dev/null --json san.json \
    --csv-full san_full.csv

echo "== decode-once gate"
# The checker's own teeth first: its --self-test doctors a stats export
# (chunks_decoded > chunks_in_trace) and requires a non-zero exit.
python3 "$tools/check_decode_once.py" --self-test
# A same-trace grid forms one shared group; with the stream backend the
# SharedBatchCache must decode each chunk exactly once, independent of
# -j, and the CSV must not notice the sharing.
printf 'pipeline.variant = optimized\ncore.width = 2,4\ncore.rob_size = 16,32\nbp.kind = 2lev\n' > g.spec
"$cli" sweep -j 1 --trace ci_lz.rsim --backend stream --spec g.spec \
    --out dec1.csv --decode-stats dec1.json
"$cli" sweep -j "$jobs" --trace ci_lz.rsim --backend stream --spec g.spec \
    --out decN.csv --decode-stats decN.json
cmp dec1.csv decN.csv
python3 "$tools/check_decode_once.py" --stats dec1.json --min-groups 1
python3 "$tools/check_decode_once.py" --stats decN.json --min-groups 1

echo "== version 1 refused"
printf 'RSIM\001\000\000\000' > old.rsim
refused_v1() {
  local status=0
  "$cli" "$@" > /dev/null 2> err.txt || status=$?
  cat err.txt
  test "$status" -eq 1
  grep -q "unsupported version 1 in old.rsim" err.txt
}
refused_v1 sim --trace old.rsim
refused_v1 sim --trace old.rsim --backend stream
refused_v1 stats --trace old.rsim
refused_v1 sweep --trace old.rsim --spec w.spec
refused_v1 sweep --trace old.rsim --backend stream --spec w.spec
echo "trace gates: PASS"
