#!/usr/bin/env bash
# Documentation consistency gate (CI step; run any time with
# scripts/doc_check.sh). Five checks, all derived from the code so the
# docs cannot silently go stale:
#
#   1. every nvmpi subcommand (the Cmd.info names in bin/nvmpi.ml) is
#      mentioned in README.md or docs/;
#   2. every registered counter prefix (the first dotted component of
#      counter names in lib/) has a catalogue entry in docs/METRICS.md;
#   3. every intra-repo markdown link in the curated docs resolves
#      (anchors stripped; http(s)/mailto links skipped);
#   4. every `dune exec <dir>/<name>.exe` in the docs, the skill notes,
#      scripts/ and CI names an executable that <dir>/dune declares,
#      and every scripts/<name>.sh they mention exists;
#   5. every backticked `Module.value` in README.md, DESIGN.md,
#      EXPERIMENTS.md and docs/ (docs/PERF.md excepted: it narrates
#      deleted code) names a val, type or record field of that module's
#      .mli under lib/. The address kinds Vaddr, Off, Riv, Rid and Seg
#      may also resolve in kinds.mli, and Page_image in memsim.mli. A
#      module with no .mli is not checked.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() { echo "doc_check: $*" >&2; fail=1; }

# --- 1. subcommands ---------------------------------------------------

subcommands=$(grep -oE 'Cmd\.info "[a-z]+"' bin/nvmpi.ml | cut -d'"' -f2 \
              | grep -v '^nvmpi$' | sort -u)
[ -n "$subcommands" ] || { echo "doc_check: no subcommands found in bin/nvmpi.ml" >&2; exit 2; }
for sub in $subcommands; do
  if ! grep -rqw "$sub" README.md docs/; then
    err "subcommand 'nvmpi $sub' is not mentioned in README.md or docs/"
  fi
done

# --- 2. counter prefixes ----------------------------------------------

# Counter names are dotted lowercase string literals at the registration
# / increment idioms (Metrics.counter, Metrics.incr, Metrics.handle,
# Machine.count, the staged Machine.bump/Machine.cell, and the local
# `c "..."` alias). Dynamic names (repr.<name>.loads, built with
# sprintf) still expose their prefix in the format literal.
prefixes=$(grep -rhE 'Metrics\.(counter|incr|handle)|Machine\.(count|bump|cell)| c "[a-z]' \
             --include='*.ml' lib/ \
           | grep -oE '"[a-z][a-z0-9_-]*\.[a-z0-9_.%<>-]*"' \
           | cut -d'"' -f2 | cut -d. -f1 | sort -u)
[ -n "$prefixes" ] || { echo "doc_check: no counter prefixes found in lib/" >&2; exit 2; }
for prefix in $prefixes; do
  if ! grep -qE "\`?${prefix}\." docs/METRICS.md; then
    err "counter prefix '${prefix}.*' has no entry in docs/METRICS.md"
  fi
done

# --- 3. markdown links ------------------------------------------------

docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md $(ls docs/*.md)"
for doc in $docs; do
  [ -f "$doc" ] || continue
  # Extract (target) of every [text](target) / ![alt](target).
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    case "$path" in
      /*) resolved=".$path" ;;
      *)  resolved="$(dirname "$doc")/$path" ;;
    esac
    if [ ! -e "$resolved" ]; then
      err "$doc links to '$target' but '$resolved' does not exist"
    fi
  done < <(grep -oE '\]\([^)[:space:]]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done

# --- 4. executables and scripts ---------------------------------------

scanned="README.md DESIGN.md EXPERIMENTS.md docs .claude/skills scripts .github/workflows/ci.yml"
# The executables a dune file declares: the (name ...) or (names ...)
# that opens each executable(s)/test(s) stanza.
declared() {
  tr '\n' ' ' < "$1" \
    | grep -oE '\((executables?|tests?)[[:space:]]+\(names?[[:space:]]+[^)]*\)' \
    | sed -E 's/.*\(names?[[:space:]]+//; s/\)$//' | tr -s ' \t' '\n'
}
exes=$(grep -rhoE 'dune exec [A-Za-z0-9_/-]+\.exe' $scanned | sed 's/^dune exec //' | sort -u)
for exe in $exes; do
  dir="${exe%/*}"
  name="$(basename "$exe" .exe)"
  if [ ! -f "$dir/dune" ]; then
    err "'dune exec $exe' is named, but $dir/dune does not exist"
  elif ! declared "$dir/dune" | grep -qx "$name"; then
    err "'dune exec $exe' is named, but $dir/dune declares no executable '$name'"
  fi
done
scripts=$(grep -rhoE 'scripts/[A-Za-z0-9_-]+\.sh' $scanned | sort -u)
for script in $scripts; do
  [ -f "$script" ] || err "'$script' is named, but it does not exist"
done

# --- 5. module values --------------------------------------------------

mlis=$(find lib -name '*.mli' | sort)
refdocs="README.md DESIGN.md EXPERIMENTS.md $(ls docs/*.md | grep -vx docs/PERF.md)"
nrefs=0
# Each match is doc:`Path.To.Module.value; the module is the last
# capitalized component.
while IFS= read -r match; do
  doc="${match%%:*}"
  path="${match#*:\`}"
  value="${path##*.}"
  mods="${path%.*}"
  mod="${mods##*.}"
  files=$(printf '%s\n' $mlis | grep "/${mod,}\.mli\$" || true)
  case "$mod" in
    Vaddr|Off|Riv|Rid|Seg) files="$files lib/addr/kinds.mli" ;;
    Page_image) files="$files lib/memsim/memsim.mli" ;;
  esac
  [ -n "${files// /}" ] || continue
  nrefs=$((nrefs + 1))
  val="^[[:space:]]*(val|external)[[:space:]]+${value}[[:space:]]*:"
  typ="^[[:space:]]*(type|and)[[:space:]]+(nonrec[[:space:]]+)?('[a-z_]+[[:space:]]+|\([^)]*\)[[:space:]]*)?${value}([[:space:]]|\$)"
  field="(^|[{;[:space:]])(mutable[[:space:]]+)?${value}[[:space:]]+:"
  if ! grep -qE "$val|$typ|$field" $files; then
    err "$doc names \`$mod.$value\`, but no val, type or field '$value' is in" $files
  fi
done < <(grep -oE "\`([A-Z][A-Za-z0-9_]*\.)+[a-z_][A-Za-z0-9_']*" $refdocs | sort -u)

if [ "$fail" -ne 0 ]; then
  echo "doc_check: FAIL" >&2
  exit 1
fi
echo "doc_check: PASS ($(echo "$subcommands" | wc -w | tr -d ' ') subcommands, $(echo "$prefixes" | wc -w | tr -d ' ') counter prefixes, links OK, $(echo "$exes" | wc -w | tr -d ' ') executables, $(echo "$scripts" | wc -w | tr -d ' ') scripts, $nrefs module values)"
