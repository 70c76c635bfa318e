#!/usr/bin/env bash
# Fails when docs/ARCHITECTURE.md, docs/DIAGNOSTICS.md or docs/METRICS.md
# references a source directory, file, bench target, sibling doc or
# `Type::member` that no longer exists, or when the rule catalogue in
# docs/DIAGNOSTICS.md and the registry in src/analysis/rules.h list
# different rule IDs, so the module map, rule catalogue, metric definitions
# and bench table cannot rot silently. Run from anywhere: paths resolve
# relative to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
failed=0

check_doc() {
  local doc="$1"

  if [[ ! -f "$doc" ]]; then
    echo "check_docs: missing $doc" >&2
    failed=1
    return
  fi

  # Every `src/<dir>/`, `tests/`, `bench/`, ... style directory reference
  # (directory references end with a slash; `src/foo/bar.h` is a file ref).
  while IFS= read -r dir; do
    if [[ ! -d "$repo_root/$dir" ]]; then
      echo "check_docs: $(basename "$doc") references missing directory: $dir" >&2
      failed=1
    fi
  done < <(grep -oE '(src|tests|bench|examples|tools)(/[A-Za-z0-9_-]+)*/' "$doc" \
             | sed 's:/$::' | sort -u)

  # Every `path/file.ext` reference (module headers, test files).
  while IFS= read -r file; do
    if [[ ! -f "$repo_root/$file" ]]; then
      echo "check_docs: $(basename "$doc") references missing file: $file" >&2
      failed=1
    fi
  done < <(grep -oE '(src|tests|bench|examples|tools)/[A-Za-z0-9_/-]+\.[a-z]+' "$doc" | sort -u)

  # Every `bench_<name>` token must be a real bench target (a bench/ source).
  while IFS= read -r target; do
    if [[ ! -f "$repo_root/bench/$target.cc" ]]; then
      echo "check_docs: $(basename "$doc") references missing bench target: $target" >&2
      failed=1
    fi
  done < <(grep -oE 'bench_[a-z0-9_]+' "$doc" | sort -u)

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

# Every identifier of src/ code with `//` comments stripped.
src_words="$(find "$repo_root/src" -name '*.h' -o -name '*.cc' \
               | xargs sed -e 's://.*$::' \
               | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)"

check_doc "$repo_root/docs/ARCHITECTURE.md"
check_doc "$repo_root/docs/DIAGNOSTICS.md"
check_doc "$repo_root/docs/METRICS.md"

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
