#!/usr/bin/env bash
# Measures saturated service goodput against the engine-bound ceiling
# and writes BENCH_service.json: an open-loop `sigload` sweep over
# connection counts against the epoll daemon, on warm inline-c1355
# sigmoid traffic.
#
# Usage: scripts/bench-service.sh [duration_s] [output.json]
#   duration_s — per-sweep-point send window (default 20)
#   output     — artifact path (default: BENCH_service.json in the root)
#
# Methodology (all throughput numbers are GOODPUT — successful
# responses per second; rejects count as errors, not throughput):
#   * traffic: `sim` frames carrying the c1355 netlist inline (the
#     realistic CAD-client shape, ~80 KB/frame, cache-hot via content
#     hash), pipeline window 32 per connection, open loop.
#   * daemon: 1 scheduler worker, queue 256, ci models preloaded, at
#     most 4 frames in flight per connection (the reactor pauses
#     reading a connection at the bound).
#   * ceiling: the median `timings.execute_s` of 20 warm `sigctl send
#     --timings` probes of c1355 under the same models and library (the
#     daemon maps the named benchmark to the same nor-only netlist the
#     sweep ships inline), with seeds 1-20: sigload's connection c sends
#     seed 1 + c. `ceiling_rps = workers / execute_s` is the goodput the
#     engine allows; each sweep row reports
#     `ceiling_fraction = goodput / ceiling_rps`. The probes' quartiles
#     are recorded too: on a shared host the engine time drifts between
#     the probes and the sweep, and a fraction above 1 reads as that
#     drift (or as cheaper seeds), not as goodput beyond the engine.
# Transport overhead per request is measured by perfbench
# (`transport.overhead_us`), not here.
set -eu
cd "$(dirname "$0")/.."

duration="${1:-20}"
out="${2:-BENCH_service.json}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac

sweep="1,4,16,64"
pipeline=32
workers=1
probes=20
addr=127.0.0.1:4741
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p sigserve

./target/release/sigserve --addr "$addr" --preload ci \
    --workers "$workers" --queue 256 --max-inflight 4 &
daemon=$!
for _ in $(seq 1 150); do
    if ./target/release/sigctl ping --addr "$addr" --id 1 >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
./target/release/sigctl ping --addr "$addr" --id 1 >/dev/null

# One closed-loop pass parses the inline netlist and compiles the
# program so every sweep point below measures warm-cache serving; one
# unrecorded probe warms the named benchmark the same way.
./target/release/sigload --addr "$addr" --circuit c1355 --inline \
    --models ci --batch-every 0 --connections 1 --requests 2 >/dev/null
./target/release/sigctl send --addr "$addr" --circuit c1355 --models ci \
    --no-timing --timings --seed 0 --id 1 >/dev/null

echo "bench-service: probing the engine-bound ceiling ($probes probes)"
for i in $(seq 1 "$probes"); do
    ./target/release/sigctl send --addr "$addr" --circuit c1355 --models ci \
        --no-timing --timings --seed "$i" --id "$i"
done > "$tmp/probes.jsonl"

echo "bench-service: sweeping connections $sweep on $addr"
./target/release/sigload --addr "$addr" --circuit c1355 --inline \
    --models ci --batch-every 0 --sweep "$sweep" --duration "$duration" \
    --pipeline "$pipeline" --label epoll --json > "$tmp/sweep.json"
cat "$tmp/sweep.json"
./target/release/sigctl shutdown --addr "$addr" --id 9 >/dev/null
wait "$daemon"

python3 - "$out" "$duration" "$workers" "$tmp" <<'EOF'
import json, statistics, sys

out, duration, workers, tmp = sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
execute_s = [json.loads(line)["result"]["timings"]["execute_s"]
             for line in open(f"{tmp}/probes.jsonl") if line.strip()]
q1_execute_s, median_execute_s, q3_execute_s = statistics.quantiles(
    execute_s, n=4, method="inclusive")
ceiling_rps = workers / median_execute_s
sweep = json.load(open(f"{tmp}/sweep.json"))
for row in sweep["rows"]:
    row["ceiling_fraction"] = round(row["throughput_rps"] / ceiling_rps, 3)
artifact = {
    "bench": "service_saturation",
    "circuit": "c1355 (inline nor-mapped .bench, ~80 KB/frame)",
    "traffic": {
        "mode": "open-loop",
        "duration_s": duration,
        "pipeline": 32,
        "workers": workers,
        "queue": 256,
        "max_inflight": 4,
        "metric": "goodput (successful responses per second)",
    },
    "ceiling": {
        "probes": len(execute_s),
        "median_execute_s": median_execute_s,
        "execute_s_q1_q3": [q1_execute_s, q3_execute_s],
        "ceiling_rps": round(ceiling_rps, 2),
        "rule": "workers / median timings.execute_s of warm sigctl send --timings probes",
    },
    "epoll": sweep,
}
json.dump(artifact, open(out, "w"), indent=2)
open(out, "a").write("\n")
print(f"wrote {out}: ceiling {ceiling_rps:.1f} ok/s;",
      ", ".join(f"{r['connections']} conns {r['ceiling_fraction']:.2f}"
                for r in sweep["rows"]))
EOF
