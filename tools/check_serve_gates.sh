#!/usr/bin/env bash
# Served-vs-CLI byte identity (docs/CI.md, docs/SERVE.md), registered as
# the ctest entry `serve_gates` and run by CI through ctest. A live
# `resim_cli serve` daemon must stream back exactly the bytes the
# one-shot CLI writes:
#
#  * `sim --json` for both paper machines, each served twice (all but
#    the first request reuse the daemon's resident decoded trace), for
#    the default machine with no config file at all, and for a sampled
#    run (sample.windows > 0);
#  * after `gen` rewrites the trace in place with another length, the
#    next served sim matches `sim --json` on the new file, not the old;
#  * the paper spec sweep as CSV, JSON and full-config CSV, against -j1
#    and -jN one-shot runs, then over a config file's machine and with a
#    pinned --set.
#
# Then `status` must count exactly two trace loads, and a `shutdown`
# request must drain the daemon and exit it cleanly, removing its socket
# file. A second daemon then
# takes raw bytes no well-behaved client sends (the hostile-input probe):
# each must be answered with its named error or a clean drop, and the
# daemon must still serve `sim --json` bytes afterwards. Last,
# docs/SERVE.md's protocol tables must equal `serve --protocol-markdown`.
#
# Usage: tools/check_serve_gates.sh path/to/resim_cli
# Works in a scratch directory (with the daemon's socket) that it deletes
# on exit, killing the daemon first if a check failed; any mismatch fails.
set -euo pipefail

cli=$(realpath "$1")
root=$(cd "$(dirname "$0")/.." && pwd)
configs="$root/configs"
jobs=$(nproc)
work=$(mktemp -d)
serve_pid=
cleanup() {
  if [ -n "$serve_pid" ]; then
    kill "$serve_pid" 2> /dev/null || true
    wait "$serve_pid" 2> /dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

client() { "$cli" client --socket serve.sock "$@"; }

"$cli" gen --bench gzip --insts 50000 --out ci.rsim
"$cli" serve --socket serve.sock -j "$jobs" 2> serve_log.txt &
serve_pid=$!
for _ in $(seq 50); do [ -S serve.sock ] && break; sleep 0.1; done

echo "== served sim"
for cfg in paper_4wide_perfect paper_2wide_cache; do
  "$cli" sim --trace ci.rsim --config "$configs/$cfg.cfg" --json "cli_$cfg.json" > /dev/null
  for pass in 1 2; do
    client --sim --trace ci.rsim --config "$configs/$cfg.cfg" --out srv_sim.json
    cmp "cli_$cfg.json" srv_sim.json || { echo "served $cfg sim, pass $pass, differs"; exit 1; }
  done
done

# No config file on either side: both run the default machine as is.
"$cli" sim --trace ci.rsim --json cli_bare.json > /dev/null
client --sim --trace ci.rsim --out srv_bare.json
cmp cli_bare.json srv_bare.json || { echo "served sim without --config differs"; exit 1; }

# A sampled sim runs its windows on both sides.
sampled="--set sample.windows=4 --set sample.window_insts=5000 --set sample.warmup_insts=2000"
"$cli" sim --trace ci.rsim $sampled --json cli_sampled.json > /dev/null
client --sim --trace ci.rsim $sampled --out srv_sampled.json
cmp cli_sampled.json srv_sampled.json || { echo "served sampled sim differs"; exit 1; }

echo "== trace rewritten in place"
"$cli" gen --bench gzip --insts 30000 --out ci.rsim
"$cli" sim --trace ci.rsim --config "$configs/paper_4wide_perfect.cfg" --json cli_new.json > /dev/null
if cmp -s cli_paper_4wide_perfect.json cli_new.json; then
  echo "the rewritten trace must change the sim result"; exit 1
fi
client --sim --trace ci.rsim --config "$configs/paper_4wide_perfect.cfg" --out srv_new.json
cmp cli_new.json srv_new.json

echo "== served sweep"
# The paper spec in all three formats, against -j1 AND -jN one-shot runs
# (the CLI's own determinism makes them one file; the daemon must match).
"$cli" sweep -j 1 --spec "$configs/paper_sweep.spec" --insts 5000 \
    --out cli1.csv --json cli1.json --csv-full cli1_full.csv
"$cli" sweep -j "$jobs" --spec "$configs/paper_sweep.spec" --insts 5000 \
    --out cliN.csv --json cliN.json --csv-full cliN_full.csv
client --sweep --spec "$configs/paper_sweep.spec" --insts 5000 --out srv.csv
client --sweep --spec "$configs/paper_sweep.spec" --insts 5000 --format json --out srv.json
client --sweep --spec "$configs/paper_sweep.spec" --insts 5000 --format csv-full --out srv_full.csv
cmp cli1.csv srv.csv && cmp cliN.csv srv.csv
cmp cli1.json srv.json && cmp cliN.json srv.json
cmp cli1_full.csv srv_full.csv && cmp cliN_full.csv srv_full.csv
# A config file is the base machine the derivations scale, and a --set
# pins its parameter, on both sides ($over is two words on purpose).
for over in "--config $configs/paper_2wide_cache.cfg" "--set core.lsq_size=4"; do
  "$cli" sweep -j 1 --spec "$configs/paper_sweep.spec" --insts 5000 $over --out cli_over.csv
  client --sweep --spec "$configs/paper_sweep.spec" --insts 5000 $over --out srv_over.csv
  cmp cli_over.csv srv_over.csv || { echo "served sweep with $over differs"; exit 1; }
done

echo "== status and shutdown"
client --ping
client --status > status.json
grep -q '"completed":' status.json
# One decode of the first trace, one of its rewrite; every other sim hit.
grep -q '"trace_cache_loads":2,' status.json || { cat status.json; exit 1; }
client --shutdown
wait "$serve_pid"
serve_pid=
grep -q "shut down" serve_log.txt
test ! -e serve.sock

echo "== hostile input"
# Invalid JSON, unknown request types, zero and oversized length
# prefixes, truncated frames and a mid-request disconnect: every one is
# answered with a NAMED error (or a clean drop), and the daemon keeps
# serving afterwards.
"$cli" serve --socket hostile.sock -j 2 2> hostile_log.txt &
serve_pid=$!
for _ in $(seq 50); do [ -S hostile.sock ] && break; sleep 0.1; done
python3 - <<'PY'
import socket, struct

def conn():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect("hostile.sock")
    assert "hello" in read_frame(s)
    return s

def read_frame(s):
    hdr = b""
    while len(hdr) < 4:
        b = s.recv(4 - len(hdr))
        if not b:
            return None
        hdr += b
    (n,) = struct.unpack("<I", hdr)
    body = b""
    while len(body) < n:
        c = s.recv(n - len(body))
        if not c:
            return None
        body += c
    return body.decode()

def frame(payload):
    b = payload.encode()
    return struct.pack("<I", len(b)) + b

s = conn()
s.sendall(frame("not json at all"))
r = read_frame(s); assert '"code":"bad-json"' in r, r
s.sendall(frame('{"type":"frobnicate","id":"x"}'))
r = read_frame(s); assert '"code":"unknown-type"' in r, r
s.sendall(frame('{"type":"sim","id":"x"}'))
r = read_frame(s); assert '"code":"bad-request"' in r, r
s.close()

s = conn()  # oversized length prefix: error, then dropped
s.sendall(struct.pack("<I", (8 << 20) + 1))
r = read_frame(s); assert '"code":"frame-too-large"' in r, r
assert read_frame(s) is None
s.close()

s = conn()  # zero-length frame: error, then dropped
s.sendall(b"\0\0\0\0")
r = read_frame(s); assert '"code":"bad-frame"' in r, r
assert read_frame(s) is None
s.close()

s = conn()  # truncated frame, then vanish
s.sendall(struct.pack("<I", 100) + b"x" * 10)
s.close()

s = conn()  # valid request, then vanish before the response
s.sendall(frame('{"type":"sim","id":"doomed","trace":"ci.rsim"}'))
s.close()
print("hostile probe: every case answered by name, no crash")
PY
# The daemon is still standing and still serving the CLI's bytes.
"$cli" client --socket hostile.sock --ping
"$cli" client --socket hostile.sock --sim --trace ci.rsim \
    --config "$configs/paper_4wide_perfect.cfg" --out after.json
cmp cli_new.json after.json
"$cli" client --socket hostile.sock --shutdown
wait "$serve_pid"
serve_pid=
test ! -e hostile.sock

echo "== doc drift"
# docs/SERVE.md's message-type and error-code tables are generated from
# the MsgType/ErrCode enums; a protocol change must ship with the
# regenerated tables (the only '|'-prefixed lines in the file).
"$cli" serve --protocol-markdown > protocol.md
grep '^|' protocol.md > serve_tables.md
grep '^|' "$root/docs/SERVE.md" > serve_doc.md
diff -u serve_doc.md serve_tables.md || {
  echo "docs/SERVE.md protocol tables are stale; run" \
       "'resim_cli serve --protocol-markdown' and paste them in"
  exit 1
}
echo "serve gates: PASS"
