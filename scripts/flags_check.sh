#!/usr/bin/env bash
# Build-flags gate (CI step; run any time with scripts/flags_check.sh).
# The root dune-workspace selects the release profile and the root dune
# file pins the dev profile's compile flags (docs/PERF.md, "Build").
# Fails if a module of the access kernel — lib/memsim's Memsim and the
# lib/cachesim Timing and Cache_level it inlines — compiles with
# -opaque, which stops every cross-module [@inline] on the access path,
# or lacks -strict-sequence or the pinned warning set.
set -euo pipefail
cd "$(dirname "$0")/.."

targets=(
  _build/default/lib/memsim/.nvmpi_memsim.objs/native/nvmpi_memsim__Memsim.cmx
  _build/default/lib/cachesim/.nvmpi_cachesim.objs/native/nvmpi_cachesim__Timing.cmx
  _build/default/lib/cachesim/.nvmpi_cachesim.objs/native/nvmpi_cachesim__Cache_level.cmx
)
warnings='@1..3@5..28@30..39@43@46..47@49..57@61..62-40'

fail=0
err() { echo "flags_check: $*" >&2; fail=1; }
for target in "${targets[@]}"; do
  # One argument per line in dune's output; flatten to one spaced line.
  cmd=" $(dune rules "$target" | tr -s ' \n' '  ') "
  case "$cmd" in *" -opaque "*) err "$target compiles with -opaque" ;; esac
  case "$cmd" in *" -strict-sequence "*) ;; *) err "$target compiles without -strict-sequence" ;; esac
  case "$cmd" in *" -w $warnings "*) ;; *) err "$target compiles without -w $warnings" ;; esac
done
[ "$fail" -eq 0 ] && echo "flags_check: ok"
exit "$fail"
