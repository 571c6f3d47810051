#!/usr/bin/env bash
# Verify that every local markdown link in README.md and docs/*.md points at
# a file that exists, so docs cross-references cannot rot. External (http)
# links and pure #anchors are skipped. Also fail when a comment under src/,
# bench/ or tools/ cites a DESIGN document: there is none, the design notes
# live in docs/ARCHITECTURE.md. Run from the repository root.
#
# usage: check_doc_links.sh [file.md ...]   (default: README.md docs/*.md)
set -euo pipefail

FILES=("$@")
if [[ ${#FILES[@]} -eq 0 ]]; then
  FILES=(README.md docs/*.md)
fi

fail=0
for file in "${FILES[@]}"; do
  dir=$(dirname "$file")
  # Inline links: [text](target). Good enough for our docs; reference-style
  # links are not used here.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"           # strip an anchor suffix
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN: $file -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$file" | sed -E 's/^\]\(//; s/\)$//')
done

# The bracket keeps this script from matching its own pattern.
if grep -rnI 'DESIGN[.]md' src bench tools; then
  echo "BROKEN: the lines above cite a DESIGN document that does not exist;" \
    "point them at docs/ARCHITECTURE.md"
  fail=1
fi

if [[ $fail -ne 0 ]]; then
  echo "docs link check failed"
  exit 1
fi
echo "docs link check OK (${FILES[*]})"
