#!/usr/bin/env bash
# Tier-1 verification, from the repo root:
#
#   scripts/verify.sh
#
# Runs the build + test + lint gate from ROADMAP.md, then a small bounded
# `ard explore` run twice with a fixed budget and seed, asserting the two
# runs are byte-identical (the explorer is deterministic) and clean (no
# violation on a healthy build), then the same exploration at --jobs 4
# (parallel search must be byte-identical to sequential) and a
# checkpoint/fork snapshot-equivalence run, then a chaos smoke: one seeded lossy
# discovery run per variant, diffed against the pinned snapshot
# scripts/chaos-smoke.snapshot (regenerate it with
# scripts/verify.sh --regen-chaos after an intentional engine change and
# review the diff), then a record/replay smoke (an honest `discover
# --record` schedule must replay cleanly), then a Byzantine smoke: the explorer must find and
# shrink the planted equivocation bug under a one-traitor plan, and a
# seeded traitor + churn run must match its pinned guarantee-survival
# report in scripts/byzantine-smoke.snapshot (regenerate with
# --regen-byzantine), then a DPOR smoke: the sleep-set-reduced DFS
# (--reduce) must find the same planted violations the unreduced DFS
# finds on the racy and equivocation fixtures, and its output must match
# the pinned snapshot scripts/dpor-smoke.snapshot (regenerate with
# --regen-dpor), then a large-n FIFO smoke: an n=100000 discovery under
# the FIFO scheduler diffed against scripts/fifo-smoke.snapshot
# (regenerate with --regen-fifo), then schema checks of the checked-in
# BENCH_throughput.json and BENCH_explore.json. See docs/testing.md for
# the tiers.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
cargo clippy --workspace -- -D warnings

explore=(cargo run --offline --release -p ard-cli --bin ard -- \
    explore --topology random:n=12,extra=16 --budget 16 --depth 3 --seed 7)
a="$("${explore[@]}")"
b="$("${explore[@]}")"
if [[ "$a" != "$b" ]]; then
    echo "verify: explore smoke run is not deterministic" >&2
    diff <(printf '%s\n' "$a") <(printf '%s\n' "$b") >&2 || true
    exit 1
fi
if ! grep -q "no violation found" <<<"$a"; then
    echo "verify: explore smoke run reported a violation:" >&2
    printf '%s\n' "$a" >&2
    exit 1
fi

# Parallel search must leave the output byte-identical to sequential.
p="$("${explore[@]}" --jobs 4)"
if [[ "$a" != "$p" ]]; then
    echo "verify: explore --jobs 4 diverged from the sequential run" >&2
    diff <(printf '%s\n' "$a") <(printf '%s\n' "$p") >&2 || true
    exit 1
fi

# Checkpoint/fork prefix reuse self-check: every resumed snapshot is
# re-verified against a from-scratch replay (panics on divergence).
snap_out="$(mktemp /tmp/ard-verify-snapshots.XXXXXX)"
cargo run --offline --release -p ard-cli --bin ard -- \
    explore --system racy:3 --budget 64 --depth 6 --seed 3 \
    --jobs 4 --check-snapshots --out "$snap_out" > /dev/null
rm -f "$snap_out"

# Chaos smoke: one seeded lossy/crashy run per variant, byte-compared
# against the pinned snapshot (everything is seeded, so the output is
# deterministic down to the metrics table).
chaos() {
    local variant
    for variant in oblivious bounded adhoc; do
        echo "=== chaos $variant ==="
        cargo run --offline --release -p ard-cli --bin ard -- \
            discover --topology random:n=16,extra=24,seed=4 --variant "$variant" \
            --scheduler random:11 --faults drop=0.1,dup=0.05,crash=1,seed=6
    done
}
snapshot=scripts/chaos-smoke.snapshot
if [[ "${1:-}" == "--regen-chaos" ]]; then
    chaos > "$snapshot"
    echo "verify: regenerated $snapshot — review the diff"
    exit 0
fi
if ! diff -u "$snapshot" <(chaos); then
    echo "verify: chaos smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-chaos" >&2
    exit 1
fi

# Record/replay smoke: an honest discovery recorded with --record must
# replay cleanly through `ard replay`, which reads the run's adversary back
# from the schedule metadata.
rec_out="$(mktemp /tmp/ard-verify-record.XXXXXX)"
cargo run --offline --release -p ard-cli --bin ard -- \
    discover --topology ring:16 --scheduler random:3 --record "$rec_out" > /dev/null
rec_replay="$(cargo run --offline --release -p ard-cli --bin ard -- replay "$rec_out")"
rm -f "$rec_out"
if ! grep -q "schedule replayed cleanly" <<<"$rec_replay"; then
    echo "verify: an honest --record schedule did not replay cleanly:" >&2
    printf '%s\n' "$rec_replay" >&2
    exit 1
fi

# Byzantine smoke: the explorer, searching under a one-traitor
# equivocate-only plan, must find the planted second-leader election in
# the equiv fixture and ddmin-shrink it; a seeded two-traitor + churn
# discovery run must report the pinned guarantee-survival verdicts. Both
# are fully seeded, so the combined output is byte-compared against the
# pinned snapshot.
byz_out=/tmp/ard-verify-equiv.schedule
byzantine() {
    echo "=== byzantine explore equiv:3 ==="
    cargo run --offline --release -p ard-cli --bin ard -- \
        explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate \
        --budget 64 --seed 0 --out "$byz_out"
    echo "=== byzantine discover ring:12 ==="
    cargo run --offline --release -p ard-cli --bin ard -- \
        discover --topology ring:12 --scheduler random:5 \
        --byzantine f=2,seed=7 --churn rate=0.2,seed=11
}
byz_snapshot=scripts/byzantine-smoke.snapshot
if [[ "${1:-}" == "--regen-byzantine" ]]; then
    byzantine > "$byz_snapshot"
    rm -f "$byz_out"
    echo "verify: regenerated $byz_snapshot — review the diff"
    exit 0
fi
byz_actual="$(byzantine)"
rm -f "$byz_out"
if ! grep -q "violation : forged endorsements elected 2 leaders" <<<"$byz_actual"; then
    echo "verify: byzantine smoke did not find the planted equivocation bug" >&2
    printf '%s\n' "$byz_actual" >&2
    exit 1
fi
if ! grep -q "shrunk    :" <<<"$byz_actual"; then
    echo "verify: byzantine smoke found the bug but did not shrink it" >&2
    printf '%s\n' "$byz_actual" >&2
    exit 1
fi
if ! diff -u "$byz_snapshot" <(printf '%s\n' "$byz_actual"); then
    echo "verify: byzantine smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-byzantine" >&2
    exit 1
fi

# DPOR smoke: a pure-DFS search (--walks 0) under sleep-set reduction
# must find the planted race and the planted equivocation, report
# non-trivial pruning on the racy fixture, and print the very same
# violation line the unreduced DFS prints — reduction prunes redundant
# interleavings, never the witnesses. The reduced output is fully seeded,
# so it is byte-compared against the pinned snapshot.
dpor_out=/tmp/ard-verify-dpor.schedule
dpor_racy=(cargo run --offline --release -p ard-cli --bin ard -- \
    explore --system racy:3 --budget 64 --walks 0 --depth 7 --seed 0 \
    --stats --out "$dpor_out")
dpor_equiv=(cargo run --offline --release -p ard-cli --bin ard -- \
    explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate \
    --budget 64 --walks 0 --depth 4 --seed 0 --stats --out "$dpor_out")
dpor_reduced() {
    echo "=== dpor explore racy:3 (reduced) ==="
    "${dpor_racy[@]}" --reduce
    echo "=== dpor explore equiv:3 (reduced) ==="
    "${dpor_equiv[@]}" --reduce
}
dpor_snapshot=scripts/dpor-smoke.snapshot
if [[ "${1:-}" == "--regen-dpor" ]]; then
    dpor_reduced > "$dpor_snapshot"
    rm -f "$dpor_out"
    echo "verify: regenerated $dpor_snapshot — review the diff"
    exit 0
fi
dpor_actual="$(dpor_reduced)"
if ! grep -Eq "reduction : mode=sleep, sleep-pruned=[1-9]" <<<"$dpor_actual"; then
    echo "verify: dpor smoke pruned nothing on the racy fixture:" >&2
    printf '%s\n' "$dpor_actual" >&2
    exit 1
fi
for full in "$("${dpor_racy[@]}")" "$("${dpor_equiv[@]}")"; do
    line="$(grep '^violation :' <<<"$full" || true)"
    if [[ -z "$line" ]]; then
        echo "verify: an unreduced dpor-smoke run found no violation:" >&2
        printf '%s\n' "$full" >&2
        exit 1
    fi
    if ! grep -qF "$line" <<<"$dpor_actual"; then
        echo "verify: reduced search missed the violation the full search found:" >&2
        printf 'full:    %s\n' "$line" >&2
        printf 'reduced output:\n%s\n' "$dpor_actual" >&2
        exit 1
    fi
done
rm -f "$dpor_out"
if ! diff -u "$dpor_snapshot" <(printf '%s\n' "$dpor_actual"); then
    echo "verify: dpor smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-dpor" >&2
    exit 1
fi

# Large-n FIFO smoke: a 10⁵-node discovery must complete inside a capped
# step budget, and its report (metrics and traffic hot spots) must match
# the pinned snapshot scripts/fifo-smoke.snapshot (regenerate with
# --regen-fifo). A bare FIFO scheduler runs in the runner's FIFO event
# loop; the snapshot was taken on the per-event engine, so this diff pins
# the two engines to the same output at scale.
fifo_smoke() {
    cargo run --offline --release -p ard-cli --bin ard -- \
        discover --topology random:n=100000,extra=200000,seed=1 \
        --variant oblivious --scheduler fifo --max-steps 4000000 --stats
}
fifo_snapshot=scripts/fifo-smoke.snapshot
if [[ "${1:-}" == "--regen-fifo" ]]; then
    fifo_smoke > "$fifo_snapshot"
    echo "verify: regenerated $fifo_snapshot — review the diff"
    exit 0
fi
if ! diff -u "$fifo_snapshot" <(fifo_smoke); then
    echo "verify: n=100000 fifo smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-fifo" >&2
    exit 1
fi

# Checked-in bench artifact schema: the throughput JSON must carry the
# payload metrics that scripts/bench.sh writes (a stale artifact means the
# sweep was not regenerated).
for key in '"payload_bytes_per_event"' '"payload_peak_bytes"'; do
    if ! grep -q "$key" BENCH_throughput.json; then
        echo "verify: BENCH_throughput.json is missing the $key key" >&2
        echo "verify: regenerate it with scripts/bench.sh" >&2
        exit 1
    fi
done
# The explorer JSON must carry its scratch and checkpoint rows and the
# partial-order-reduction section.
for key in '"mode": "scratch"' '"mode": "checkpoint"' '"reduction"'; do
    if ! grep -qF "$key" BENCH_explore.json; then
        echo "verify: BENCH_explore.json is missing $key" >&2
        echo "verify: regenerate it with scripts/bench.sh" >&2
        exit 1
    fi
done

echo "verify: OK (tier-1 green, explore smoke deterministic, --jobs 4 byte-identical, snapshots verified, chaos smoke matches snapshot, honest record replays cleanly, byzantine smoke found+shrunk and matches snapshot, dpor smoke reduced=full and matches snapshot, n=100000 fifo smoke matches snapshot, bench JSON schema ok)"
