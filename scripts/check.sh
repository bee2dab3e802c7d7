#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, the full test suite
# and the benchmark harness's self-tests. Run before every push.
#
#   scripts/check.sh              # the standard gate
#   scripts/check.sh chaos-soak   # heavy fault-injection soak (release,
#                                 # end-to-end chaos runs; see
#                                 # crates/corp-faults/tests/soak.rs)
#   scripts/check.sh perf-smoke   # hot-path throughput smoke: runs the
#                                 # perf experiment (which prints one line
#                                 # and exits 2 on any non-finite or zero
#                                 # throughput or a failed write) and
#                                 # requires BENCH_hotpath.json output,
#                                 # then restores the committed file
#   scripts/check.sh serve-smoke  # serving-mode smoke: a short trace
#                                 # replay through the corp-serve daemon
#                                 # that must measure non-empty placement-
#                                 # latency percentiles and shed nothing
#                                 # at low load (--smoke asserts both)
#   scripts/check.sh resilience-smoke
#                                 # chaos-serve smoke: the daemon under
#                                 # combined control-plane faults and
#                                 # arrival storms; --smoke asserts a
#                                 # byte-identical full replay, the
#                                 # zero-jobs-lost conservation law, and
#                                 # a complete breaker trip/recover cycle;
#                                 # --bench records BENCH_serve.json,
#                                 # restored to the committed file once
#                                 # the checks pass
#   scripts/check.sh scale-smoke  # streaming-soak smoke: a 5k-job synthetic
#                                 # stream through the reclaiming arena
#                                 # engine; --smoke asserts job conservation
#                                 # and that the arena high-water mark stays
#                                 # far below the trace length (memory
#                                 # bounded by concurrent jobs); records
#                                 # BENCH_scale.json
#   scripts/check.sh doc          # rustdoc gate only: every public item
#                                 # documented, no broken intra-doc links
#   scripts/check.sh perf-regression
#                                 # end-to-end throughput gate: reruns the
#                                 # e2e experiment (shard sweep included)
#                                 # against the committed BENCH_e2e.json and
#                                 # fails (one line, exit 2) if CORP's
#                                 # pooled slots/sec drops
#                                 # >20% below it, if the sharded-8
#                                 # control-plane arm falls >20% below its own
#                                 # committed number (on multi-core hosts
#                                 # also: below the fresh pooled run), or if
#                                 # its fast-path hit rate
#                                 # regresses >5pp below the committed
#                                 # baseline
set -euo pipefail
cd "$(dirname "$0")/.."

doc_gate() {
    # Only the repo's own crates: the vendored stand-ins under vendor/
    # track upstream API shapes, not our documentation posture.
    local own_crates=()
    for d in crates/*/; do
        own_crates+=(-p "$(basename "$d")")
    done
    echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps ${own_crates[*]}"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${own_crates[@]}"
}

if [[ "${1:-}" == "doc" ]]; then
    doc_gate
    echo "Doc gate passed."
    exit 0
fi

if [[ "${1:-}" == "chaos-soak" ]]; then
    echo "==> cargo test -p corp-faults --release -- --ignored soak"
    cargo test -p corp-faults --release -- --ignored soak
    echo "Chaos soak passed."
    exit 0
fi

if [[ "${1:-}" == "perf-smoke" ]]; then
    rm -f BENCH_hotpath.json
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- --fast perf"
    cargo run --release -p corp-bench --bin corp-exp -- --fast perf
    if [[ ! -s BENCH_hotpath.json ]]; then
        echo "perf-smoke FAILED: BENCH_hotpath.json missing or empty" >&2
        exit 1
    fi
    echo "Perf smoke passed ($(wc -c < BENCH_hotpath.json) bytes of baseline)."
    # The smoke run rewrites the committed baseline; restore it.
    git checkout -- BENCH_hotpath.json 2>/dev/null || true
    exit 0
fi

if [[ "${1:-}" == "serve-smoke" ]]; then
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- serve --fast --jobs 60 --speed inf --seed 7 --smoke"
    cargo run --release -p corp-bench --bin corp-exp -- serve --fast --jobs 60 --speed inf --seed 7 --smoke
    echo "Serve smoke passed."
    exit 0
fi

if [[ "${1:-}" == "resilience-smoke" ]]; then
    rm -f BENCH_serve.json
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- resilience --fast --smoke --bench"
    cargo run --release -p corp-bench --bin corp-exp -- resilience --fast --smoke --bench
    if [[ ! -s BENCH_serve.json ]]; then
        echo "resilience-smoke FAILED: BENCH_serve.json missing or empty" >&2
        exit 1
    fi
    if ! grep -q '"determinism":true' BENCH_serve.json || ! grep -q '"jobs_lost":0' BENCH_serve.json; then
        echo "resilience-smoke FAILED: BENCH_serve.json reports lost jobs or nondeterminism" >&2
        exit 1
    fi
    echo "Resilience smoke passed ($(wc -c < BENCH_serve.json) bytes of baseline)."
    # The smoke run rewrites the committed baseline; restore it.
    git checkout -- BENCH_serve.json 2>/dev/null || true
    exit 0
fi

scale_smoke() {
    rm -f BENCH_scale.json
    echo "==> cargo run --release -p corp-bench --bin corp-exp -- scale --smoke"
    cargo run --release -p corp-bench --bin corp-exp -- scale --smoke
    if [[ ! -s BENCH_scale.json ]]; then
        echo "scale-smoke FAILED: BENCH_scale.json missing or empty" >&2
        exit 1
    fi
    if ! grep -q '"unfinished":0' BENCH_scale.json; then
        echo "scale-smoke FAILED: BENCH_scale.json reports unfinished jobs" >&2
        exit 1
    fi
    echo "Scale smoke passed ($(wc -c < BENCH_scale.json) bytes of baseline)."
    # The smoke run rewrites the committed full-soak baseline; restore it.
    git checkout -- BENCH_scale.json 2>/dev/null || true
}

if [[ "${1:-}" == "scale-smoke" ]]; then
    scale_smoke
    exit 0
fi

if [[ "${1:-}" == "perf-regression" ]]; then
    if [[ ! -s BENCH_e2e.json ]]; then
        echo "perf-regression FAILED: no committed BENCH_e2e.json to compare against" >&2
        exit 1
    fi
    # Snapshot the committed baseline first: the runner rewrites
    # BENCH_e2e.json with the fresh numbers after the comparison passes.
    committed=$(mktemp)
    trap 'rm -f "$committed"' EXIT
    cp BENCH_e2e.json "$committed"
    echo "==> CORP_E2E_BASELINE=<committed BENCH_e2e.json> cargo run --release -p corp-bench --bin corp-exp -- --fast e2e"
    CORP_E2E_BASELINE="$committed" cargo run --release -p corp-bench --bin corp-exp -- --fast e2e
    # The runner enforces the numeric gates (pooled regression, sharded-8
    # vs pooled, fast-path-rate floor); here we only require that the
    # fresh output actually carried the shard sweep it gated on.
    if ! grep -q '"arm":"sharded-8"' BENCH_e2e.json; then
        echo "perf-regression FAILED: fresh BENCH_e2e.json has no sharded-8 arm" >&2
        git checkout -- BENCH_e2e.json 2>/dev/null || true
        exit 1
    fi
    git checkout -- BENCH_e2e.json 2>/dev/null || true
    echo "Perf regression gate passed."
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

doc_gate

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The benchmark harness is a package of its own that drives the crates
# through their public APIs; its self-tests catch API changes that would
# break the benchmark. Builds into the gitignored perfbench/target/.
echo "==> cargo test --release --manifest-path perfbench/Cargo.toml"
cargo test --release --manifest-path perfbench/Cargo.toml

scale_smoke

echo "All checks passed."
