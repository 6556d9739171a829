# Convenience targets for the dohperf reproduction.

.PHONY: build test doc repro repro-full examples verify clean \
        ci fmt-check clippy gates bless alloc perf perf-test

build:
	cargo build --workspace --release --offline

test:
	cargo test --workspace -q

# API docs; any rustdoc warning fails the build (as in CI).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Quick reproduction of every table and figure (25% scale, ~1 min).
repro:
	cargo run --release -p dohperf-bench --bin repro -- all

# The paper's full 22k-client scale (~5 min).
repro-full:
	cargo run --release -p dohperf-bench --bin repro -- --scale 1.0 all

# Mirror of .github/workflows/ci.yml, runnable locally and offline: the
# same build, test, lint, gate, allocation and benchmark-test jobs.
ci: fmt-check clippy doc build test gates alloc perf-test

# CI plus the determinism check that 1-worker and multi-worker campaigns
# serialize identically.
verify: ci
	cargo test --release -p dohperf --test integration_parallel -- thread_count_is_invisible

fmt-check:
	cargo fmt --all -- --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Every byte-identity and metrics gate, one row each of
# crates/bench/src/gates.rs: metrics vs ci/baseline-metrics*.json at
# tolerance 0 (exit 3 on drift), --from-store and thread/shard store
# bytes identical to the direct run, and the golden traces.
# `repro gate NAME...` runs single rows.
gates:
	cargo run --release --offline -p dohperf-bench --bin repro -- gate

# Rewrite every baseline and golden trace after an intended behaviour
# change (the identity checks still run).
bless:
	cargo run --release --offline -p dohperf-bench --bin repro -- gate --bless

# Zero-allocation gate (DESIGN.md §12): with the counting global
# allocator, a warm campaign run must make no steady-state hot-path
# allocation.
alloc:
	cargo test --release --offline -p dohperf --features alloc-count --test integration_alloc

# The perf benchmark (perfbench/README.md): exactly the command
# BENCHMARK.json declares. Runs the four workloads, checks every output
# and prints each end-to-end metric. For `--workload NAME`, `--trace 1`
# or `--repeat N`, append them after `run` on the same cargo command.
perf:
	cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- run

# The benchmark's own tests (perf_smoke: every workload at scale 0.01,
# every BENCHMARK.json metric printed, one trace per workload).
# perfbench/ is a workspace of its own, so `cargo test --workspace`
# does not reach them.
perf-test:
	cargo test --offline --release --manifest-path perfbench/Cargo.toml

examples:
	cargo run --release --example quickstart
	cargo run --release --example provider_shootout
	cargo run --release --example methodology_tour -- ID
	cargo run --release --example live_do53

clean:
	cargo clean
