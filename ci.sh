#!/usr/bin/env bash
# Repository CI gate. Run from the repo root.
#
# Tier-1 (the bar every change must clear):
#   cargo build --release && cargo test -q
# plus style/lint gates:
#   cargo fmt --all -- --check
#   cargo clippy --workspace --all-targets -- -D warnings
# plus the benchmark package (a separate Cargo workspace):
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   cargo test --release --offline --manifest-path perfbench/Cargo.toml
#
# With --bench-smoke, additionally runs the two headline bench harnesses
# at minimum scale into a scratch directory and validates the
# machine-readable BENCH_*.json they emit (schema keys present, numbers
# finite, throughput positive), then diffs them against the committed
# repo-root baselines with check_bench_json --diff (>10% throughput
# regression fails; smoke-scale runs skip the throughput comparison but
# still exercise the diff path). fig12's scale-out segment runs at
# 16 machines x 32 workers — 512 logical workers, feasible only because
# the pipelined engine multiplexes them onto a small OS thread pool —
# and check_bench_json validates the doorbell-batching fields
# (extra.rdma_ops_per_doorbell present and > 1.0, batched per-op cost
# below unbatched). See EXPERIMENTS.md for the schema.
#
# Which extra fields each bench's ledger must carry is check_bench_json's
# per-bench REQUIRED_EXTRA table (fig10d: resize segment; fig12: doorbell
# ratio and membership segment; tab6: ro_log_bytes), not greps here.
#
# With --resize-smoke, additionally runs the elastic-memstore gates at
# minimum scale: the split-ordered/fixed-size observational-equivalence
# proptest, the live-migration workload tests (typed Migrated aborts,
# dual-read forwarding, conservation), and the migration crash points of
# the chaos matrix.
#
# With --chaos-smoke, additionally runs the deterministic chaos matrix
# (tests/chaos.rs) at minimum scale — including the fallback
# log-before-unlock crash points — the crash_recovery example (asserts
# idempotent recovery and restored balances), and the crash+recovery
# plus durable-free read-only segments of tab6_durability, validating
# its emitted JSON (extra.recovery_ms, extra.ro_log_bytes present and
# exactly 0).
#
# With --membership-smoke, additionally runs the cluster-membership
# gates at minimum scale: the membership crash points of the chaos
# matrix (journaled join rollback / leave roll-forward, detector-driven
# dispatch, the serve-through-churn end-to-end), the random
# join/leave/kill interleaving proptest against the model cluster, the
# workload-level round-trip and typed routing-gate tests, and the fig12
# membership-churn segment, validating its emitted JSON
# (extra.membership_throughput_ratio >= 0.6, extra.join_ms/drain_ms
# positive, extra.membership_throughput_ratio present).
#
# Every name-filtered smoke stage fails when one of its filters matches
# no test, so a renamed test cannot turn a gate into "running 0 tests".
#
# The build is fully offline: third-party deps resolve to the minimal
# vendored stubs under vendor/ via [patch.crates-io] in Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")"

# filtered_tests <cargo test args> -- <filters...>: checks that every
# filter matches at least one test of the target, then runs the matching
# tests at minimum scale.
filtered_tests() {
  local target=() f listed
  while [ "$1" != "--" ]; do target+=("$1"); shift; done
  shift
  for f in "$@"; do
    listed="$(cargo test -q "${target[@]}" -- --list "$f")"
    if ! grep -q ': test$' <<<"$listed"; then
      echo "test filter '$f' matches no test in: ${target[*]}" >&2
      exit 1
    fi
  done
  DRTM_SCALE=0.01 cargo test -q "${target[@]}" -- "$@"
}

BENCH_SMOKE=0
CHAOS_SMOKE=0
RESIZE_SMOKE=0
MEMBERSHIP_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos-smoke) CHAOS_SMOKE=1 ;;
    --resize-smoke) RESIZE_SMOKE=1 ;;
    --membership-smoke) MEMBERSHIP_SMOKE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests (workspace superset) =="
cargo test -q --workspace

echo "== style: rustfmt =="
cargo fmt --all -- --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# perfbench/ is its own Cargo workspace, so the steps above never compile
# it; build it and run its self-tests so an API change cannot silently
# break the repository benchmark.
echo "== benchmark package: build + self-tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

SCRATCH_DIRS=()
cleanup() { rm -rf "${SCRATCH_DIRS[@]:-}"; }
trap cleanup EXIT

if [ "$BENCH_SMOKE" = 1 ]; then
  echo "== bench smoke: fig10d + fig12 at minimum scale =="
  SMOKE_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$SMOKE_OUT")
  DRTM_SCALE=0.01 DRTM_BENCH_OUT="$SMOKE_OUT" \
    cargo bench -q -p drtm-bench --bench fig10d_cache_size
  DRTM_SCALE=0.01 DRTM_FIG12_SCALEOUT_NODES=16 DRTM_FIG12_SCALEOUT_WORKERS=32 \
    DRTM_BENCH_OUT="$SMOKE_OUT" \
    cargo bench -q -p drtm-bench --bench fig12_tpcc_machines
  echo "== bench smoke: validate emitted JSON + diff vs committed baselines =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    --diff . "$SMOKE_OUT"/BENCH_*.json
fi

if [ "$RESIZE_SMOKE" = 1 ]; then
  echo "== resize smoke: split-order observational equivalence =="
  filtered_tests --test proptest_stores -- elastic_hash_matches_cluster_hash
  echo "== resize smoke: live-migration workload (typed aborts, dual-read, conservation) =="
  filtered_tests -p drtm-workloads -- elastic
  echo "== resize smoke: migration crash points =="
  filtered_tests --test chaos -- migration
fi

if [ "$MEMBERSHIP_SMOKE" = 1 ]; then
  echo "== membership smoke: membership crash points + detector dispatch + e2e =="
  filtered_tests --test chaos -- \
    join_crash_points leave_mid_drain failure_detector_drives elastic_kv_serves
  echo "== membership smoke: random join/leave/kill interleavings vs model =="
  DRTM_SCALE=0.01 cargo test -q --test membership
  echo "== membership smoke: workload round-trip + typed routing gate =="
  filtered_tests -p drtm-workloads -- join_then_leave membership_gate
  echo "== membership smoke: fig12 membership-churn segment =="
  MEM_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$MEM_OUT")
  DRTM_SCALE=0.01 DRTM_FIG12_SCALEOUT_NODES=16 DRTM_FIG12_SCALEOUT_WORKERS=32 \
    DRTM_BENCH_OUT="$MEM_OUT" \
    cargo bench -q -p drtm-bench --bench fig12_tpcc_machines
  echo "== membership smoke: validate emitted JSON =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    "$MEM_OUT"/BENCH_fig12_tpcc_machines.json
fi

if [ "$CHAOS_SMOKE" = 1 ]; then
  echo "== chaos smoke: crash-point matrix at minimum scale =="
  DRTM_SCALE=0.01 cargo test -q --test chaos
  echo "== chaos smoke: fallback log-before-unlock crash points =="
  filtered_tests --test chaos -- fallback_pipeline
  echo "== chaos smoke: crash_recovery example =="
  cargo run --release --example crash_recovery
  echo "== chaos smoke: tab6 crash+recovery + durable-free RO segments =="
  CHAOS_OUT="$(mktemp -d)"
  SCRATCH_DIRS+=("$CHAOS_OUT")
  DRTM_SCALE=0.01 DRTM_BENCH_OUT="$CHAOS_OUT" \
    cargo bench -q -p drtm-bench --bench tab6_durability
  echo "== chaos smoke: validate emitted JSON =="
  cargo run -q --release -p drtm-bench --bin check_bench_json -- \
    "$CHAOS_OUT"/BENCH_tab6_durability.json
fi

echo "CI OK"
