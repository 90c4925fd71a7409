# Convenience targets; scripts/ci.sh is the canonical offline CI gate.

.PHONY: ci ci-quick test bench bench-check experiments fmt clippy lint

ci:
	scripts/ci.sh

ci-quick:
	scripts/ci.sh --quick

test:
	cargo test --workspace

bench:
	cargo bench -p sprite-bench

bench-check:
	scripts/bench_check.sh

experiments:
	cargo run -p sprite-bench --release --bin experiments

fmt:
	cargo fmt

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Clippy first: it holds the hasher and wall-clock bans (clippy.toml).
lint: clippy
	cargo run -q -p sprite_lint -- crates src tests examples
