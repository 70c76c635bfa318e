#!/usr/bin/env bash
# Fails when docs/ARCHITECTURE.md, docs/DIAGNOSTICS.md or docs/METRICS.md
# references a source directory, file, sibling doc or `Type::member` that no
# longer exists; when any of those, README.md or the verify skill
# (.claude/skills/verify/SKILL.md) names a bench target, bench or example
# binary that has no source, passes a bench a flag other than --smoke, or
# passes cnpu_lint an option tools/cnpu_lint.cc does not parse; or when the
# rule catalogue in docs/DIAGNOSTICS.md and the registry in
# src/analysis/rules.h list different rule IDs. So the module map, rule
# catalogue, metric definitions, bench table and quoted commands cannot rot
# silently. Run from anywhere: paths resolve relative to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
failed=0

# A repo-root path starts where no path character precedes it (a leading
# `./` is allowed), so the tail of a longer path such as perfbench/run.py
# is not read as bench/run.py.
path_start='(^|[^A-Za-z0-9_./-])(\./)?'
path_roots='(src|tests|bench|examples|tools|perfbench)'

check_doc() {
  local doc="$1"

  # Every `src/<dir>/`, `tests/`, `bench/`, ... style directory reference
  # (directory references end with a slash; `src/foo/bar.h` is a file ref).
  while IFS= read -r dir; do
    if [[ ! -d "$repo_root/$dir" ]]; then
      echo "check_docs: $(basename "$doc") references missing directory: $dir" >&2
      failed=1
    fi
  done < <(grep -oE "$path_start$path_roots(/[A-Za-z0-9_-]+)*/" "$doc" \
             | sed -E 's:^[^a-z]+::; s:/$::' | sort -u)

  # Every `path/file.ext` reference (module headers, test files).
  while IFS= read -r file; do
    if [[ ! -f "$repo_root/$file" ]]; then
      echo "check_docs: $(basename "$doc") references missing file: $file" >&2
      failed=1
    fi
  done < <(grep -oE "$path_start$path_roots/[A-Za-z0-9_/-]+\.[a-z]+" "$doc" \
             | sed -E 's:^[^a-z]+::' | sort -u)

  # Every backticked `Type::member` must name a member that still appears
  # as a word in src/ code (comments stripped), so a removed or renamed
  # field cannot linger in the docs.
  while IFS= read -r ref; do
    if ! grep -qxF "${ref##*::}" <<<"$src_words"; then
      echo "check_docs: $(basename "$doc") references missing member: $ref" >&2
      failed=1
    fi
  done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' "$doc" \
             | tr -d '`' | sort -u)

  # Linked sibling docs must exist (e.g. METRICS.md).
  while IFS= read -r link; do
    if [[ ! -f "$repo_root/docs/$link" ]]; then
      echo "check_docs: $(basename "$doc") links missing doc: docs/$link" >&2
      failed=1
    fi
  done < <(grep -oE '\]\(([A-Za-z0-9_]+\.md)\)' "$doc" | sed 's/^](//;s/)$//' | sort -u)
}

# Bench and example names and the commands that run them.
check_commands() {
  local doc="$1" name target path dir cmd flag
  name="$(basename "$doc")"

  # Every `bench_<name>` word must be a bench target (a bench/ source) or
  # the bench_all aggregate; words like .bench_build or
  # check_perfbench_digests are not bench names, nor is a script under
  # tools/ such as tools/bench_trajectory.py.
  while IFS= read -r target; do
    if [[ "$target" != bench_all && ! -f "$repo_root/bench/$target.cc" ]]; then
      echo "check_docs: $name references missing bench target: $target" >&2
      failed=1
    fi
  done < <(grep -oE '[A-Za-z0-9_./]*bench_[a-z0-9_]+' "$doc" \
             | grep -vE '(^|/)tools/' | sed 's:.*/::' | grep -E '^bench_' \
             | sort -u)

  # Every ./build/bench/<name> and ./build/examples/<name> binary must be
  # built from bench/<name>.cc or examples/<name>.cc.
  while IFS= read -r path; do
    dir="${path#./build/}"
    dir="${dir%%/*}"
    if [[ ! -f "$repo_root/$dir/${path##*/}.cc" ]]; then
      echo "check_docs: $name runs a binary with no source: $path" >&2
      failed=1
    fi
  done < <(grep -oE '\./build/(bench|examples)/[A-Za-z0-9_]+' "$doc" | sort -u)

  # A bench takes no flag but --smoke (bench::read_args exits 2 on any
  # other argument).
  while IFS= read -r cmd; do
    for flag in $(grep -oE ' -[^ ]*' <<<"$cmd"); do
      if [[ "$flag" != --smoke ]]; then
        echo "check_docs: $name passes $flag to a bench: $cmd" >&2
        failed=1
      fi
    done
  done < <(grep -oE '\./build/bench/[A-Za-z0-9_]+( +-[^ `#]*)*' "$doc" | sort -u)

  # Every option a quoted cnpu_lint command passes must be one
  # tools/cnpu_lint.cc parses: its "--flag" literal appears there.
  while IFS= read -r cmd; do
    for flag in $(grep -oE ' --?[a-z][a-z-]*' <<<"$cmd"); do
      if ! grep -qF -- "\"$flag\"" "$repo_root/tools/cnpu_lint.cc"; then
        echo "check_docs: $name passes cnpu_lint an option it does not parse: $cmd" >&2
        failed=1
      fi
    done
  done < <(grep -oE 'cnpu_lint( +[^ `#]+)*' "$doc" | sort -u)
}

# Every identifier of src/ code with `//` comments stripped.
src_words="$(find "$repo_root/src" -name '*.h' -o -name '*.cc' \
               | xargs sed -e 's://.*$::' \
               | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)"

for doc in docs/ARCHITECTURE.md docs/DIAGNOSTICS.md docs/METRICS.md \
           README.md .claude/skills/verify/SKILL.md; do
  if [[ ! -f "$repo_root/$doc" ]]; then
    echo "check_docs: missing $doc" >&2
    failed=1
    continue
  fi
  if [[ "$doc" == docs/* ]]; then
    check_doc "$repo_root/$doc"
  fi
  check_commands "$repo_root/$doc"
done

# The rule catalogue table lists exactly the IDs src/analysis/rules.h
# registers: a rule added or retired on one side only fails here.
registry_ids="$(grep -oE 'kRule[A-Za-z0-9]+ = "[A-Z][0-9]{3}"' \
                  "$repo_root/src/analysis/rules.h" \
                | grep -oE '"[A-Z][0-9]{3}"' | tr -d '"' | sort)"
catalogue_ids="$(grep -oE '^\| [A-Z][0-9]{3} \|' "$repo_root/docs/DIAGNOSTICS.md" \
                 | grep -oE '[A-Z][0-9]{3}' | sort)"
if [[ "$registry_ids" != "$catalogue_ids" ]]; then
  echo "check_docs: DIAGNOSTICS.md rule catalogue differs from src/analysis/rules.h:" >&2
  comm -23 <(echo "$registry_ids") <(echo "$catalogue_ids") \
    | sed 's/^/  only in rules.h: /' >&2
  comm -13 <(echo "$registry_ids") <(echo "$catalogue_ids") \
    | sed 's/^/  only in DIAGNOSTICS.md: /' >&2
  failed=1
fi

if [[ "$failed" -ne 0 ]]; then
  exit 1
fi
echo "check_docs: all doc references resolve"
