#!/usr/bin/env bash
# Build-flags gate (CI step; run any time with scripts/flags_check.sh).
# The root dune-workspace selects the release profile and the root dune
# file pins the dev profile's compile flags (docs/PERF.md, "Build").
# Fails if a module of the access kernel — lib/memsim's Memsim and the
# lib/cachesim Timing and Cache_level it inlines — compiles with
# -opaque, which stops every cross-module [@inline] on the access path,
# or lacks -strict-sequence or the pinned warning set. Also fails if a
# per-access function of those modules, or Cache_level's flush_line,
# calls the write barrier caml_modify (docs/PERF.md, "Cache-level
# storage"): a set helper typed ['a array] or an allocation moved into
# Cache_level's probe would add one to every access, and no simulated
# cycle would show it. And fails if a charge of Timing calls Clock.tick
# or a typed access of Memsim calls check_align instead of inlining it:
# a raise kept inside either makes it too big to inline.
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
# Each object with a pattern naming its per-access functions and one
# naming the symbols they must not reference; OCaml 5.1 names a
# function's symbol <module>.<name>_<stamp>.
objs=_build/default/lib
forbidden=(
  "$objs/cachesim/.nvmpi_cachesim.objs/native/nvmpi_cachesim__Cache_level.o"
  '[.$](access|probe|flush_line|close_gap)_[0-9]+>:$'
  'caml_modify'
  "$objs/cachesim/.nvmpi_cachesim.objs/native/nvmpi_cachesim__Timing.o"
  '[.$]access_l[123]_[0-9]+>:$'
  'caml_modify|Clock[.]tick_[0-9]+'
  "$objs/cachesim/.nvmpi_cachesim.objs/native/nvmpi_cachesim__Timing.o"
  '[.$](alu|flush)_[0-9]+>:$'
  'Clock[.]tick_[0-9]+'
  "$objs/memsim/.nvmpi_memsim.objs/native/nvmpi_memsim__Memsim.o"
  '[.$](load|store)(8|16|32|64)_[0-9]+>:$'
  'caml_modify|Memsim[.]check_align_[0-9]+'
)
for ((k = 0; k < ${#forbidden[@]}; k += 3)); do
  obj=${forbidden[k]} pat=${forbidden[k + 1]} bad=${forbidden[k + 2]}
  dune build "$obj"
  # One line per function matching [pat]: its symbol, how many
  # references to a symbol matching [bad] its body holds, and the
  # symbols.
  report=$(objdump -dr "$obj" | awk -v pat="$pat" -v bad="$bad" '
    /^[0-9a-f]+ <.*>:$/ {
      f = ($2 ~ pat) ? substr($2, 2, length($2) - 3) : ""
      if (f != "") n[f] += 0
    }
    f != "" && / R_/ && match($NF, bad) {
      n[f]++
      s = substr($NF, RSTART, RLENGTH)
      if (index(" " syms[f] " ", " " s " ") == 0) syms[f] = syms[f] " " s
    }
    END { for (g in n) print g, n[g], syms[g] }')
  [ -n "$report" ] || err "$obj: no function matches $pat"
  while read -r f n syms; do
    [ -z "$f" ] || [ "$n" -eq 0 ] || err "$f calls $syms ($n references)"
  done <<< "$report"
done
[ "$fail" -eq 0 ] && echo "flags_check: ok"
exit "$fail"
