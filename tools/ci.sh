#!/usr/bin/env bash
# Local CI: configure, build, and test the default configuration and a
# sanitized one.  Usage:
#
#   tools/ci.sh [jobs]
#
# Build trees go to build-ci/ and build-ci-asan/ so they never clash
# with a developer's build/.  Exits non-zero on the first failure.

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc 2>/dev/null || echo 4)}"

run_config() {
    local dir="$1"
    shift
    echo "==> configure ${dir} ($*)"
    cmake -B "${dir}" -S . "$@"
    echo "==> build ${dir}"
    cmake --build "${dir}" -j "${jobs}"
    echo "==> test ${dir}"
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
}

run_config build-ci -DCACHELAB_WERROR=ON

echo "==> observability smoke (run manifest + chrome trace)"
build-ci/tools/cachelab_sim --profile ZGREP --refs 50000 --sweep 256:4096 \
    --metrics-json build-ci/smoke-manifest.json \
    --trace-out build-ci/smoke-trace.json --phase-profile --progress
python3 -m json.tool build-ci/smoke-manifest.json > /dev/null
python3 -m json.tool build-ci/smoke-trace.json > /dev/null
echo "    manifest + trace are valid JSON"

echo "==> introspection smoke (3C sweep, event log, report, flags-off parity)"
sim=build-ci/tools/cachelab_sim
# Flags-off parity: with no instrumentation flags the probe layer must
# be invisible — two plain runs are byte-identical, and an instrumented
# run prints exactly the same sweep table before its 3C breakdown.
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 \
    > build-ci/smoke-plain-a.txt 2>/dev/null
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 \
    > build-ci/smoke-plain-b.txt 2>/dev/null
cmp build-ci/smoke-plain-a.txt build-ci/smoke-plain-b.txt
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 \
    --classify --events build-ci/smoke-events.jsonl --events-sample 100 \
    --set-heatmap build-ci/smoke-heatmap.csv \
    > build-ci/smoke-instr.txt 2>/dev/null
head -c "$(stat -c%s build-ci/smoke-plain-a.txt)" build-ci/smoke-instr.txt \
    | cmp - build-ci/smoke-plain-a.txt
echo "    flags-off output identical; instrumented table unchanged"

# Streamed classified run -> manifest + event log -> report artifacts.
${sim} --stream --profile ZGREP --refs 200000 --size 4096 \
    --classify --classify-interval 20000 \
    --events build-ci/smoke-run-events.jsonl --events-sample 50 \
    --metrics-json build-ci/smoke-run-manifest.json > /dev/null
build-ci/tools/cachelab_report \
    --manifest build-ci/smoke-run-manifest.json \
    --events build-ci/smoke-run-events.jsonl \
    --out-dir build-ci/smoke-report
python3 - build-ci/smoke-report <<'EOF'
import csv, os, sys
out = sys.argv[1]
rows = list(csv.DictReader(open(os.path.join(out, "intervals.csv"))))
assert len(rows) == 10, len(rows)
for r in rows:
    split = int(r["compulsory"]) + int(r["capacity"]) + int(r["conflict"])
    assert split == int(r["misses"]), r
bd = list(csv.DictReader(open(os.path.join(out, "breakdown_3c.csv"))))
total = next(r for r in bd if r["class"] == "total")
classified = sum(int(r["misses"]) for r in bd if r["class"] != "total")
assert classified == int(total["misses"]), (classified, total)
assert os.path.getsize(os.path.join(out, "report.md")) > 0
print(f"    report: {len(rows)} intervals,"
      f" {total['misses']} misses classified")
EOF

echo "==> out-of-core smoke (stream 100 M refs under an address-space cap)"
# 100 M references materialize to 1.6 GB (16 B/ref); the cap is 10x
# smaller, so the run only completes if the pipeline truly streams.
# CACHELAB_JOBS=1 keeps the shared pool's stacks out of the cap.
stream_refs=100000000
cap_kb=$((160 * 1024))
(
    ulimit -v "${cap_kb}"
    CACHELAB_JOBS=1 build-ci/tools/cachelab_sim --stream --profile ZGREP \
        --refs "${stream_refs}" --sweep 256:16384 \
        --engine single-pass --jobs 1 \
        --metrics-json build-ci/smoke-stream.json
)
python3 - build-ci/smoke-stream.json "${cap_kb}" "${stream_refs}" <<'EOF'
import json, sys
manifest = json.load(open(sys.argv[1]))
cap_bytes = int(sys.argv[2]) * 1024
ex = manifest["execution"]
assert ex["refs_processed"] == int(sys.argv[3]), ex["refs_processed"]
rss, rate = ex["peak_rss_bytes"], ex["refs_per_second"]
assert 0 < rss < cap_bytes, f"peak RSS {rss} exceeds cap {cap_bytes}"
print(f"    peak rss {rss / 2**20:.1f} MiB (cap {cap_bytes / 2**20:.0f}"
      f" MiB), {rate / 1e6:.1f} M refs/s")
EOF

echo "==> out-of-core smoke (a streamed trace file stays O(batch) resident)"
# Every format is mapped and decoded in place, and the pages behind the
# cursor are dropped after each batch, so peak RSS stays far below the
# file: 8 M refs are 104 MB as CLT1, 22 MB as CLT2 and 85 MB as din.
file_refs=8000000
for ext in bin ctr din; do
    file="build-ci/smoke-resident.${ext}"
    build-ci/tools/cachelab_gen --machine vax --refs "${file_refs}" \
        --out "${file}" > /dev/null
    CACHELAB_JOBS=1 build-ci/tools/cachelab_sim --stream --trace "${file}" \
        --size 4096 --metrics-json build-ci/smoke-resident.json > /dev/null
    rm -f "${file}"
    python3 - build-ci/smoke-resident.json "${file_refs}" "${ext}" <<'EOF'
import json, sys
ex = json.load(open(sys.argv[1]))["execution"]
assert ex["refs_processed"] == int(sys.argv[2]), ex["refs_processed"]
rss, cap = ex["peak_rss_bytes"], 16 * 2**20
assert rss < cap, f".{sys.argv[3]}: peak RSS {rss} exceeds {cap}"
print(f"    .{sys.argv[3]}: peak rss {rss / 2**20:.1f} MiB")
EOF
done

echo "==> cachelab_gen --refs N writes exactly N references"
# VSPICE's own length is 250,000; a profile runs on past it, as
# cachelab_sim --refs does.
build-ci/tools/cachelab_gen --profile VSPICE --refs 300000 \
    --out build-ci/smoke-gen.bin > build-ci/smoke-gen.log
rm -f build-ci/smoke-gen.bin
if ! grep -q "^wrote 300,000 references" build-ci/smoke-gen.log; then
    echo "    ERROR: $(cat build-ci/smoke-gen.log)"; exit 1
fi
echo "    $(cat build-ci/smoke-gen.log)"

echo "==> single-pass parity at scale (verify engine, 1 M refs, 32 B to 64 KiB)"
# The verify engine runs every size both per-size and single-pass and
# panics on any field that differs.  At 1 M references the tree behind
# the stack's full row renumbers and doubles many times, far past the
# unit tests' traces.  The split leg's manifest must hold both sides at
# every size, so the leg is known to run the split sweep.
for profile in VSPICE LISP1 MVS1 TWOD1; do
    ${sim} --profile "${profile}" --refs 1000000 --sweep 32:65536 \
        --engine verify > /dev/null
    ${sim} --profile "${profile}" --refs 1000000 --sweep 32:65536 \
        --engine verify --split \
        --metrics-json build-ci/smoke-verify-split.json > /dev/null
    python3 - build-ci/smoke-verify-split.json <<'EOF'
import json, sys
results = json.load(open(sys.argv[1]))["results"]
sizes = [32 << k for k in range(12)]
for side in ("icache", "dcache"):
    got = [r["cache_bytes"] for r in results if r["name"] == side]
    assert got == sizes, (side, got)
EOF
    echo "    ${profile}: unified and split sweeps agree at every size"
done
# The single-pass engines refuse any other shape before reading input,
# with one fatal() line and exit 1.
for engine in single-pass verify; do
    status=0
    ${sim} --profile VSPICE --refs 100000 --sweep 256:1024 --assoc 2 \
        --engine "${engine}" > /dev/null \
        2> build-ci/smoke-ineligible.log || status=$?
    lines=$(grep -c "fatal:" build-ci/smoke-ineligible.log || true)
    if [ "${status}" -ne 1 ] || [ "${lines}" -ne 1 ]; then
        echo "    ERROR: --engine ${engine} --assoc 2 exited ${status}" \
            "with ${lines} fatal lines, expected 1 and 1"
        exit 1
    fi
done
echo "    single-pass and verify refuse a 2-way base with one fatal line"
# A refused sweep writes no CSV: no header on stdout, no file.
status=0
${sim} --profile ZGREP --refs 2000 --sweep 256:1024 --assoc 2 \
    --engine single-pass --csv - > build-ci/smoke-refused-stdout.txt \
    2> /dev/null || status=$?
rm -f build-ci/smoke-refused.csv
${sim} --profile ZGREP --refs 2000 --sweep 256:1024 --assoc 2 \
    --engine single-pass --csv build-ci/smoke-refused.csv \
    > /dev/null 2>&1 || true
if [ "${status}" -ne 1 ] || [ -s build-ci/smoke-refused-stdout.txt ] ||
    [ -e build-ci/smoke-refused.csv ]; then
    echo "    ERROR: a refused --csv sweep exited ${status} or wrote CSV"
    exit 1
fi
echo "    a refused sweep prints no CSV header and writes no CSV file"

echo "==> undeclared flags (one fatal line, exit 1)"
# A misspelled or retired flag must not change the experiment silently.
unknown_flag() {
    local status=0 lines
    "$@" > /dev/null 2> build-ci/smoke-unknown-flag.log || status=$?
    lines=$(grep -c "fatal:" build-ci/smoke-unknown-flag.log || true)
    if [ "${status}" -ne 1 ] || [ "${lines}" -ne 1 ] ||
        ! grep -q "unknown flag" build-ci/smoke-unknown-flag.log; then
        echo "    ERROR: '$*' exited ${status} with ${lines} fatal lines," \
            "expected 1 and 1"
        exit 1
    fi
}
unknown_flag ${sim} --profile VSPICE --refs 100000 --sweep 256:1024 \
    --assco 2
unknown_flag ${sim} --profile VSPICE --refs 100000 --sweep 256:1024 \
    --stack-curve
for tool in cachelab_gen cachelab_bench cachelab_report cachelab_serve \
    cachelab_client; do
    unknown_flag "build-ci/tools/${tool}" --no-such-flag
done
echo "    every tool refuses an undeclared flag with one fatal line"

echo "==> checkpoint smoke (live-point store: write, fan out, bitwise parity)"
# One functional pass writes the store; the --ckpt sweep must then
# reproduce the functional-warming sweep bit for bit, and the manifest
# must carry the store's provenance (key/content hash).  Four legs:
# fully associative (one 1-set group, a deep stack), 4-way (a group per
# set count, every set a shallow stack, all in one channel pass),
# 4-way split (an icache and a dcache channel: the one store whose
# writer fans out over --jobs) and 16-way.
ckpt_flags=(--profile ZGREP --refs 200000 --sweep 256:8192
            --sample 0.1 --sample-unit 1000 --jobs 1)
ckpt_leg() {
    local leg="build-ci/smoke-ckpt-$1"
    shift
    rm -rf "${leg}-store"
    ${sim} "${ckpt_flags[@]}" "$@" --ckpt-write "${leg}-store" \
        --metrics-json "${leg}-write.json" > /dev/null
    ${sim} "${ckpt_flags[@]}" "$@" \
        --metrics-json "${leg}-functional.json" > /dev/null
    ${sim} "${ckpt_flags[@]}" "$@" --ckpt "${leg}-store" \
        --metrics-json "${leg}-fanout.json" > /dev/null
    python3 - "${leg}-functional.json" "${leg}-fanout.json" \
        "${leg}-write.json" "${leg}-store/store.json" <<'EOF'
import json, sys
functional, fanout, write, store = (json.load(open(p)) for p in sys.argv[1:5])

# The fan-out legitimately differs from functional warming only in how
# it got there: plan label, refs processed, and the speedup estimate.
def comparable(entry):
    sampled = dict(entry["sampled"])
    for key in ("plan", "processed_refs", "processed_fraction",
                "speedup_estimate"):
        sampled.pop(key)
    return {"name": entry["name"], "cache_bytes": entry["cache_bytes"],
            "sampled": sampled}

a = [comparable(e) for e in functional["sampled_results"]]
b = [comparable(e) for e in fanout["sampled_results"]]
assert len(a) == len(b) and len(a) > 0, (len(a), len(b))
for fa, fb in zip(a, b):
    assert fa == fb, f"sampled results differ at {fa['cache_bytes']}: " \
                     f"{fa} vs {fb}"

# Provenance: both manifests must name the store they touched, with
# hashes matching store.json.
for manifest, action in ((write, "write"), (fanout, "fanout")):
    cfg = manifest["config"]
    assert cfg["ckpt_action"] == action, cfg
    assert cfg["ckpt_key_hash"] == store["key_hash"], cfg
    assert cfg["ckpt_content_hash"] == store["content_hash"], cfg
groups = sum(len(channel["groups"]) for channel in store["channels"])
print(f"    {len(a)} sweep points bitwise identical to functional warming"
      f" from {groups} group(s); key hash {store['key_hash']}")
EOF
}
ckpt_leg fa
ckpt_leg 4way --assoc 4
ckpt_leg 4way-split --assoc 4 --split
# The widest geometry whose sets are scanned rather than indexed
# (Cache::kMaxScanWays): the restore imports into scanned sets.
ckpt_leg 16way --assoc 16

# The writer's bytes do not depend on --jobs: the 4-way store written
# on four jobs (the trailing --jobs overrides ckpt_flags' --jobs 1)
# matches the serial one file for file, and so does the split store,
# whose two channels run on the pool.
for leg in 4way 4way-split; do
    store="build-ci/smoke-ckpt-${leg}-store"
    extra=(--assoc 4)
    [ "${leg}" = 4way-split ] && extra+=(--split)
    rm -rf "${store}-jobs4"
    ${sim} "${ckpt_flags[@]}" "${extra[@]}" --ckpt-write "${store}-jobs4" \
        --jobs 4 > /dev/null
    files=0
    for file in "${store}"/*; do
        cmp "${file}" "${store}-jobs4/$(basename "${file}")"
        files=$((files + 1))
    done
    [ "$(ls "${store}-jobs4" | wc -l)" -eq "${files}" ]
    echo "    ${leg}: ${files} store files identical at --jobs 1 and 4"
done

# A corrupt store is a one-line diagnostic (exit 1), never an uncaught
# std::length_error (exit 134) or a silently wrong result.  Each case
# corrupts a fresh copy of the 4-way store with the Python read from
# stdin, which gets the copy's directory as argv[1].
corrupt_case() {
    local name="$1"
    local dir="build-ci/smoke-ckpt-corrupt-${name}"
    rm -rf "${dir}"
    cp -r build-ci/smoke-ckpt-4way-store "${dir}"
    python3 - "${dir}"
    local status=0
    ${sim} "${ckpt_flags[@]}" --assoc 4 --ckpt "${dir}" \
        > /dev/null 2> "${dir}.log" || status=$?
    if [ "${status}" -ne 1 ]; then
        echo "    ERROR: ${name} store exited ${status}, expected 1"; exit 1
    fi
    grep -q "live points:" "${dir}.log"
    echo "    corrupt ${name}: exit 1, $(head -n 1 "${dir}.log")"
}
# Flip bit 62 of the first image's entry count (byte 56 of a group file).
corrupt_case entry-count <<'EOF'
import struct, sys
with open(sys.argv[1] + "/unified-l16-s4.lvpt", "r+b") as f:
    f.seek(56)
    count, = struct.unpack("=Q", f.read(8))
    f.seek(56)
    f.write(struct.pack("=Q", count ^ (1 << 62)))
EOF
# A version-1 store.json (byte-wise content hash): no longer read.
corrupt_case version-1 <<'EOF'
import re, sys
path = sys.argv[1] + "/store.json"
text = open(path).read()
open(path, "w").write(re.sub(r'"version": \d+', '"version": 1', text, 1))
EOF
# The first image's purge carry (byte 48) moved off the writer's
# schedule, which the engine would otherwise trust.
corrupt_case carry <<'EOF'
import struct, sys
with open(sys.argv[1] + "/unified-l16-s4.lvpt", "r+b") as f:
    f.seek(48)
    carry, = struct.unpack("=Q", f.read(8))
    f.seek(48)
    f.write(struct.pack("=Q", carry + 5))
EOF
# The first stored line moved to the next set (+16 at 16 B lines): a
# restore would build a cache state with a line outside its set.
corrupt_case entry-set <<'EOF'
import struct, sys
with open(sys.argv[1] + "/unified-l16-s4.lvpt", "r+b") as f:
    data = f.read()
    sets, = struct.unpack_from("=Q", data, 20)
    at = 40  # the first image with an entry, then its first non-empty set
    while struct.unpack_from("=Q", data, at + 16)[0] == 0:
        at += 24 + 4 * sets
    at += 24
    while struct.unpack_from("=I", data, at)[0] == 0:
        at += 4
    addr, = struct.unpack_from("=Q", data, at + 4)
    f.seek(at + 4)
    f.write(struct.pack("=Q", addr + 16))
EOF

# Pool workers that fatal() at once: every sweep point's first restore
# (or warm-up check) fails on its own worker.  Each run must exit 1 with
# exactly one "fatal:" line; the first fatal() ends the process before
# the others print or a static destructor joins the pool under them.
# Each case runs ten times on a local pool (--jobs 4) and ten times on
# the shared pool (--jobs 0 at CACHELAB_JOBS=4), the static one whose
# destructor joins its workers.  The trailing --jobs overrides
# ckpt_flags' --jobs 1, under which one worker fails alone.
concurrent_fatal() {
    local name="$1"
    shift
    local log="build-ci/smoke-fatal-${name}.log"
    local jobs run status lines
    for jobs in 4 0; do
        for run in $(seq 10); do
            status=0
            CACHELAB_JOBS=4 ${sim} "$@" --jobs "${jobs}" \
                > /dev/null 2> "${log}" || status=$?
            lines=$(grep -c "fatal:" "${log}" || true)
            if [ "${status}" -ne 1 ] || [ "${lines}" -ne 1 ]; then
                echo "    ERROR: ${name} --jobs ${jobs} run ${run} exited" \
                    "${status} with ${lines} fatal lines, expected 1 and 1"
                exit 1
            fi
        done
    done
    echo "    ${name}: 20 runs, exit 1 and one line each"
}
concurrent_fatal ckpt-arc "${ckpt_flags[@]}" --assoc 4 --replacement arc \
    --ckpt build-ci/smoke-ckpt-4way-store
concurrent_fatal warmup --profile ZGREP --refs 1000 --sweep 256:8192 \
    --warmup 5000 --engine per-size

echo "==> policy zoo + timing smoke (sweep per policy, AMAT manifest)"
# Classic-trio parity: --replacement lru must be byte-identical to the
# flag-free legacy invocation (same table, same manifest-free stdout),
# pinning the pluggable-policy hot path to the pre-API behaviour.
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 --replacement lru \
    > build-ci/smoke-policy-lru.txt 2>/dev/null
cmp build-ci/smoke-policy-lru.txt build-ci/smoke-plain-a.txt
# One sweep per policy, CSV out; every new policy must run end to end.
for policy in fifo random slru slru:probation=0.5 lfu lfuda \
    2q:kin=0.25,kout=0.5 arc; do
    ${sim} --profile ZGREP --refs 50000 --sweep 256:4096 \
        --replacement "${policy}" \
        --csv "build-ci/smoke-policy-$(echo "${policy}" | tr ':,=' '___').csv" \
        > /dev/null 2>&1
done
# Admission filter rides along, and unknown names die with the
# valid-name list rather than a stack trace.
${sim} --profile ZGREP --refs 50000 --size 4096 \
    --replacement slru --admission tinylfu:counters=1024 > /dev/null
if ${sim} --profile ZGREP --refs 1000 --size 4096 \
    --replacement clock > build-ci/smoke-policy-bad.log 2>&1; then
    echo "    ERROR: unknown policy was accepted"; exit 1
fi
grep -q "lru" build-ci/smoke-policy-bad.log
# Timing model: an AMAT-bearing manifest with policy provenance.
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 \
    --replacement arc --timing hit=2,mem=120,width=8 \
    --metrics-json build-ci/smoke-policy-timing.json > /dev/null
python3 - build-ci/smoke-policy-timing.json <<'EOF'
import json, sys
manifest = json.load(open(sys.argv[1]))
assert manifest["schema_version"] == 2, manifest["schema_version"]
assert manifest["policy"]["name"] == "arc", manifest["policy"]
assert manifest["timing"]["memory_cycles"] == 120, manifest["timing"]
results = manifest["results"]
assert results, "no results"
for r in results:
    t = r["timing"]
    assert t["amat"] > manifest["timing"]["hit_cycles"], t
    assert t["traffic_limited_refs_per_cycle"] > 0, t
print(f"    {len(results)} sizes with AMAT "
      f"{results[0]['timing']['amat']:.2f}..."
      f"{results[-1]['timing']['amat']:.2f} cycles")
EOF
# Flags-off parity: without --timing the manifest must not mention it.
${sim} --profile ZGREP --refs 50000 --size 4096 \
    --metrics-json build-ci/smoke-policy-notiming.json > /dev/null
if grep -q '"amat"' build-ci/smoke-policy-notiming.json; then
    echo "    ERROR: timing fields leak into flags-off manifests"; exit 1
fi
echo "    policy zoo swept; AMAT manifest checked; flags-off clean"

echo "==> campaign-serve smoke (daemon, coalesced tenants, bitwise parity)"
# Start the daemon, submit two compatible specs plus a KV-workload spec
# from concurrent clients, and require every served manifest to match a
# standalone `cachelab_sim --spec` run bitwise in its results section.
serve_sock=build-ci/smoke-serve.sock
serve=build-ci/tools/cachelab_serve
client=build-ci/tools/cachelab_client
${serve} --version | grep -q cachelab_serve
cat > build-ci/smoke-spec-a.json <<'EOF'
{"id": "tenant-a",
 "input": {"kind": "profile", "name": "ZGREP", "refs": 100000},
 "cache": {"line_bytes": 16},
 "sizes": {"lo": 512, "hi": 4096}}
EOF
cat > build-ci/smoke-spec-b.json <<'EOF'
{"id": "tenant-b",
 "input": {"kind": "profile", "name": "ZGREP", "refs": 100000},
 "cache": {"line_bytes": 32, "associativity": 2},
 "sizes": [1024, 8192]}
EOF
cat > build-ci/smoke-spec-kv.json <<'EOF'
{"id": "tenant-kv",
 "input": {"kind": "kv", "refs": 100000, "key_count": 4096,
           "object_bytes": 64, "zipf_theta": 0.9, "scan_fraction": 0.05,
           "seed": 11},
 "cache": {"line_bytes": 64},
 "sizes": {"lo": 4096, "hi": 32768}}
EOF
rm -f "${serve_sock}"
${serve} --socket "${serve_sock}" --batch-window-ms 500 \
    > build-ci/smoke-serve.log 2>&1 &
serve_pid=$!
for _ in $(seq 100); do
    grep -q "^listening" build-ci/smoke-serve.log && break
    sleep 0.1
done
grep -q "^listening" build-ci/smoke-serve.log
${client} --socket "${serve_sock}" --ping > /dev/null
# Tenants a and b share an input and should ride one coalesced pass;
# the kv tenant brings its own generated input.
${client} --socket "${serve_sock}" --spec build-ci/smoke-spec-a.json \
    --quiet --out build-ci/smoke-served-a.json &
a_pid=$!
${client} --socket "${serve_sock}" --spec build-ci/smoke-spec-b.json \
    --quiet --out build-ci/smoke-served-b.json &
b_pid=$!
${client} --socket "${serve_sock}" --spec build-ci/smoke-spec-kv.json \
    --quiet --out build-ci/smoke-served-kv.json &
kv_pid=$!
wait "${a_pid}" "${b_pid}" "${kv_pid}"
${client} --socket "${serve_sock}" --stats --json \
    > build-ci/smoke-serve-stats.json
${client} --socket "${serve_sock}" --shutdown > /dev/null
wait "${serve_pid}"
# The standalone truth, through the same spec files.
for t in a b kv; do
    ${sim} --spec "build-ci/smoke-spec-${t}.json" \
        --metrics-json "build-ci/smoke-standalone-${t}.json" > /dev/null
done
# Malformed input must be a one-line diagnostic, not an assert.
echo '{"id": "broken"' > build-ci/smoke-spec-broken.json
if ${sim} --spec build-ci/smoke-spec-broken.json \
    > build-ci/smoke-broken.log 2>&1; then
    echo "    ERROR: malformed spec was accepted"; exit 1
fi
python3 - <<'EOF'
import json
for tenant in ("a", "b", "kv"):
    served = json.load(open(f"build-ci/smoke-served-{tenant}.json"))
    standalone = json.load(open(f"build-ci/smoke-standalone-{tenant}.json"))
    assert served["results"] == standalone["results"], \
        f"tenant {tenant}: served results differ from standalone"
    assert len(served["results"]) > 0, tenant
served_a = json.load(open("build-ci/smoke-served-a.json"))
counters = served_a["metrics"]["counters"]
serve_keys = [k for k in counters if k.startswith("serve.")]
assert serve_keys, f"no serve.* counters in manifest metrics: {counters}"
stats = json.load(open("build-ci/smoke-serve-stats.json"))
assert stats["completed"] == 3, stats
assert stats["coalesced"] >= 1, f"tenants a+b did not coalesce: {stats}"
print(f"    3 tenants bitwise identical to standalone; coalesced="
      f"{stats['coalesced']}, serve counters: {sorted(serve_keys)}")
EOF

echo "==> telemetry smoke (flight recorder, run registry, campaign report)"
# Same three tenants against a fully instrumented daemon: metrics
# snapshots to JSONL, every run persisted to the registry, request
# lifecycle spans to a Chrome trace.  Then check the invariants the
# telemetry promises: histogram counts equal completed requests,
# quantiles are monotone, and the registry indexes every run.
telem_sock=build-ci/smoke-telem.sock
registry_dir=build-ci/smoke-registry
rm -rf "${registry_dir}"
rm -f "${telem_sock}" build-ci/smoke-telem-snapshots.jsonl
CACHELAB_LOG=debug ${serve} --socket "${telem_sock}" --batch-window-ms 20 \
    --metrics-snapshot build-ci/smoke-telem-snapshots.jsonl \
    --metrics-interval-s 1 \
    --registry "${registry_dir}" --registry-max-runs 16 \
    --trace-out build-ci/smoke-telem-trace.json \
    > build-ci/smoke-telem-serve.log 2>&1 &
telem_pid=$!
for _ in $(seq 100); do
    grep -q "^listening" build-ci/smoke-telem-serve.log && break
    sleep 0.1
done
grep -q "^listening" build-ci/smoke-telem-serve.log
for t in a b kv; do
    ${client} --socket "${telem_sock}" \
        --spec "build-ci/smoke-spec-${t}.json" \
        --quiet --out "build-ci/smoke-telem-${t}.json"
done
${client} --socket "${telem_sock}" --stats > build-ci/smoke-telem-stats.txt
${client} --socket "${telem_sock}" --stats --json \
    > build-ci/smoke-telem-stats.json
${client} --socket "${telem_sock}" --shutdown > /dev/null
wait "${telem_pid}"
grep -q "serve.latency.e2e_ns" build-ci/smoke-telem-stats.txt
grep -Eq "^debug .* request answered" build-ci/smoke-telem-serve.log
python3 - "${registry_dir}" <<'EOF'
import json, os, sys
registry_dir = sys.argv[1]

# Stats exposition: histogram counts match completed requests and the
# quantiles are monotone.
stats = json.load(open("build-ci/smoke-telem-stats.json"))
assert stats["completed"] == 3, stats
lat = stats["metrics"]["latencies"]
for series in ("serve.latency.e2e_ns", "serve.latency.exec_ns",
               "serve.latency.queue_wait_ns"):
    assert lat[series]["count"] == 3, (series, lat[series])
e2e = lat["serve.latency.e2e_ns"]
assert 0 < e2e["p50_ns"] <= e2e["p90_ns"] <= e2e["p99_ns"] <= e2e["max_ns"]

# Served manifests carry the request-lifecycle timings, and the
# instrumented daemon's results are bitwise identical to the
# flags-off daemon's answers from the campaign-serve smoke above.
for tenant in ("a", "b", "kv"):
    manifest = json.load(open(f"build-ci/smoke-telem-{tenant}.json"))
    cfg = manifest["config"]
    for key in ("serve.timing.queue_wait_ns", "serve.timing.exec_ns"):
        assert int(cfg[key]) >= 0, (tenant, key, cfg)
    plain = json.load(open(f"build-ci/smoke-served-{tenant}.json"))
    assert manifest["results"] == plain["results"], \
        f"telemetry flags perturbed results for tenant {tenant}"

# Flight recorder: every JSONL line parses, seq increases, and the
# final line reflects the finished campaign.
lines = [json.loads(l)
         for l in open("build-ci/smoke-telem-snapshots.jsonl")]
assert lines, "no metrics snapshots written"
assert all(l["schema"] == "cachelab.metrics_snapshot" for l in lines)
assert [l["seq"] for l in lines] == list(range(1, len(lines) + 1))
final = lines[-1]["metrics"]["latencies"]["serve.latency.e2e_ns"]
assert final["count"] == 3, final

# Run registry: every run indexed, outcome ok, manifests on disk with
# results identical to what the tenants received over the wire.
index = json.load(open(os.path.join(registry_dir, "index.json")))
assert index["schema"] == "cachelab.run_registry", index
runs = index["runs"]
assert len(runs) == 3, runs
assert {r["tenant"] for r in runs} == \
    {"tenant-a", "tenant-b", "tenant-kv"}
assert all(r["outcome"] == "ok" for r in runs)
served = {json.load(open(f"build-ci/smoke-telem-{t}.json"))["config"]
          ["spec_id"]: json.load(open(f"build-ci/smoke-telem-{t}.json"))
          for t in ("a", "b", "kv")}
for run in runs:
    persisted = json.load(
        open(os.path.join(registry_dir, run["manifest"])))
    assert persisted["results"] == served[run["tenant"]]["results"], \
        f"registry manifest diverges for {run['tenant']}"

# Chrome trace: parses, and each completed request contributed a
# lifecycle span.
trace = json.load(open("build-ci/smoke-telem-trace.json"))
spans = [e for e in trace["traceEvents"]
         if e.get("name") == "request"]
assert len(spans) == 3, len(spans)
print(f"    {len(lines)} snapshots, 3 runs registered, "
      f"{len(spans)} request spans traced, e2e p50 "
      f"{e2e['p50_ns'] / 1e6:.2f} ms")
EOF
build-ci/tools/cachelab_report --registry "${registry_dir}" \
    > build-ci/smoke-campaign.md
grep -q "cachelab campaign summary" build-ci/smoke-campaign.md
grep -q "tenant-kv" build-ci/smoke-campaign.md
echo "    campaign report rendered from the registry"

echo "==> perf observability smoke (--perf degraded path, flags-off gating)"
# Flags off: the manifest carries getrusage accounting but must not
# grow a "perf" section (byte-identical-to-pre-perf contract).
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 \
    --metrics-json build-ci/smoke-noperf.json > /dev/null
# Flags on: the run must succeed even where perf_event_open is
# forbidden or PMU-less (this container), reporting what it could get
# and why the rest is missing — never failing the run.
${sim} --profile ZGREP --refs 50000 --sweep 256:4096 --perf \
    --metrics-json build-ci/smoke-perf.json > build-ci/smoke-perf.txt
python3 - build-ci/smoke-noperf.json build-ci/smoke-perf.json <<'EOF'
import json, sys
plain, perf = (json.load(open(p)) for p in sys.argv[1:3])
ex = plain["execution"]
for key in ("user_cpu_seconds", "system_cpu_seconds",
            "voluntary_ctx_switches", "involuntary_ctx_switches"):
    assert key in ex, f"missing rusage key {key}"
assert "perf" not in plain, "flags-off manifest grew a perf section"
p = perf["perf"]
assert isinstance(p["available"], bool), p
known = {"cycles", "instructions", "task_clock_ns",
         "llc_loads", "llc_misses", "branch_misses"}
assert set(p["counters"]) <= known, p["counters"]
if not p["available"] or set(p["counters"]) < known:
    assert p.get("unavailable_reason"), \
        "degraded perf mode must name its cause"
assert "perf.available" in perf["metrics"]["gauges"], "perf gauges missing"
got = ", ".join(sorted(p["counters"])) or "none"
print(f"    perf manifest ok (available={p['available']}; counters: {got})")
EOF

echo "==> bench harness + regression gate smoke"
bench_dir=build-ci/smoke-bench
rm -rf "${bench_dir}"
mkdir -p "${bench_dir}"
build-ci/tools/cachelab_bench --scenario throughput --refs 20000 \
    --reps 1 --warmup 0 --perf --out-dir "${bench_dir}" > /dev/null
python3 - "${bench_dir}/BENCH_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "cachelab.bench", doc["schema"]
assert doc["schema_version"] == 1, doc["schema_version"]
assert doc["scenario"] == "throughput"
assert doc["provenance"]["git_sha"] and doc["provenance"]["hostname"]
assert len(doc["samples"]["wall_s"]) == 1
assert doc["stats"]["median_wall_s"] > 0
assert "perf" in doc, "--perf bench doc missing its perf section"
print(f"    BENCH_throughput.json valid: median "
      f"{doc['stats']['median_wall_s'] * 1e3:.2f} ms")
EOF
# The gate must pass against itself...
build-ci/tools/cachelab_report --bench-compare "${bench_dir}" \
    "${bench_dir}" > build-ci/smoke-bench-self.md
grep -q "Gate passed" build-ci/smoke-bench-self.md
# ...and fail (non-zero) against a synthetically slowed copy.
slow_dir=build-ci/smoke-bench-slow
rm -rf "${slow_dir}"
mkdir -p "${slow_dir}"
python3 - "${bench_dir}/BENCH_throughput.json" \
    "${slow_dir}/BENCH_throughput.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["stats"]["median_wall_s"] *= 1.5
json.dump(doc, open(sys.argv[2], "w"))
EOF
if build-ci/tools/cachelab_report --bench-compare "${bench_dir}" \
    "${slow_dir}" > build-ci/smoke-bench-slow.md 2>&1; then
    echo "    ERROR: slowed bench passed the gate"; exit 1
fi
grep -q "REGRESSION" build-ci/smoke-bench-slow.md
echo "    gate: self-compare passed, +50% synthetic regression failed"
# Legacy bench binaries share the header line + --out plumbing.
build-ci/bench/bench_throughput --out build-ci/smoke-bench-lines.json \
    --benchmark_filter='^$' > /dev/null 2>&1
python3 - build-ci/smoke-bench-lines.json <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
header = lines[0]
assert header["schema"] == "cachelab.bench_line", header
assert header["tool"] == "bench_throughput" and header["git_sha"]
kinds = {l.get("bench") for l in lines[1:]}
assert {"sweep_engine", "probe_cost", "policy_cost"} <= kinds, kinds
print(f"    bench_line header + {len(lines) - 1} joinable JSON lines")
EOF

# halt_on_error turns a UBSan report into a failed test; without it
# the report is printed and the test still passes.  _GLIBCXX_ASSERTIONS
# bounds-checks the standard containers, so an out-of-range
# std::vector::operator[] (an index slot, a policy's per-way array)
# aborts the test instead of reading a neighbour.
UBSAN_OPTIONS=halt_on_error=1 run_config build-ci-asan -DCACHELAB_WERROR=ON \
    -DCACHELAB_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS

# TSan pass over the concurrency-sensitive layers: the worker pool,
# the observability primitives (registry, recorder, progress meter)
# that sweeps hammer from every worker slot, the live-point writer's
# channel fan-out (a split store's icache and dcache passes), and the
# streamed pass that hands every batch of a streamed sweep to the pool
# (the non-death streaming, sweep and checkpoint-sweep tests).
echo "==> configure build-ci-tsan (thread sanitizer, concurrency tests)"
cmake -B build-ci-tsan -S . -DCACHELAB_WERROR=ON -DCACHELAB_SANITIZE=thread
cmake --build build-ci-tsan -j "${jobs}" \
    --target obs_test thread_pool_test telemetry_test policy_test \
    timing_test perf_counters_test ckpt_test streaming_test \
    sweep_equivalence_test
ctest --test-dir build-ci-tsan --output-on-failure -j "${jobs}" \
    -R 'ThreadPool|MetricsRegistry|JsonWriterTest|PhaseProfiling|TraceEvents|ProgressMeterTest|PolicyZoo|PolicyCheckpoint|TinyLfu|Timing|LatencyHistogram|PerfCounters|LivePointStore.ParallelWriterMatchesSerialBytes|StreamingDrivers|StreamingSampled|SweepSeeds|CheckpointSweep'

echo "==> ci passed (default + address,undefined + thread)"
