#!/usr/bin/env bash
# Regenerates BENCH_gate.json, the perf-regression-gate baseline that CI
# diffs every run against (see .github/workflows/ci.yml, job perf-gate).
#
# CI runs the gate in quick mode, so the committed baseline must be a
# quick-mode recording; perfgate refuses to compare across modes. Run
# this on a quiet machine, inspect the diff, and commit it together with
# the change that moved the numbers.
#
# The long-form scale baselines (BENCH_birdseye.json, BENCH_ingest.json,
# BENCH_serve.json) are narrative documents updated by hand from full
# `cargo bench` runs; perfgate only cross-checks their acceptance
# sections (every `<name>_speedup` key must meet `<name>_required`).
# When the render hot path changes, re-run
#   cargo bench -p jedule-bench --bench birdseye_scale
# on a quiet machine and recompute BENCH_birdseye.json's ratios from the
# criterion medians — in particular `soa_layout_1m_speedup`
# (= layout_only_auto / layout_prepared_auto at 1M tasks), the columnar
# storage gate, alongside the LOD and window-culling ratios.
# When the ingest or snapshot path changes, also re-run
#   cargo bench -p jedule-bench --bench pack_load
# and recompute BENCH_ingest.json's `jpack_load_1m_speedup`
# (= pack_cold/swf_parse_prepare / pack_cold/jpack_load at 1M tasks),
# the mmap-snapshot cold-load gate. BENCH_serve.json is rewritten
# whole by a full (not JEDULE_BENCH_QUICK) run of
# `cargo bench -p jedule-bench --bench serve_load`, including its
# `sidecar_cold_first_request_speedup` row; a quick run only prints.
set -euo pipefail
cd "$(dirname "$0")/.."

JEDULE_BENCH_QUICK=1 cargo run --release -p jedule-bench --bin perfgate -- --update
git --no-pager diff --stat -- BENCH_gate.json || true
echo "Review the diff above and commit BENCH_gate.json if it looks right."
echo "If the render hot path changed, also refresh BENCH_birdseye.json's"
echo "acceptance ratios from a full birdseye_scale run (see header)."
