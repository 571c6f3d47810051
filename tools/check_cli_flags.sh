#!/usr/bin/env bash
# Stale-flag lint: every flag of a mcmcpar_run command quoted in README.md,
# docs/*.md, tools/*.sh or the verify skill must appear in the tool's help
# text, so deleting a flag cannot leave docs behind that still use it.
#
#   tools/check_cli_flags.sh path/to/mcmcpar_run
#
# A quoted command runs from `mcmcpar_run` to the next backtick, pipe, `;`,
# `&`, `#` or unindented line break; indented lines continue it.
set -euo pipefail
[[ $# -eq 1 ]] || { echo "usage: $0 path/to/mcmcpar_run" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
known=$("$1" --help | grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)
[[ -n $known ]] || { echo "$1 --help listed no flags" >&2; exit 2; }

status=0
for file in "$root/README.md" "$root"/docs/*.md "$root"/tools/*.sh \
            "$root/.claude/skills/verify/SKILL.md"; do
  [[ -f $file ]] || continue
  quoted=$(sed -e ':a;N;$!ba;s/\n[ \t]\+/ /g' "$file" |
           grep -oE 'mcmcpar_run[ \t][^`|;&#]*' |
           grep -oE -- '(^|[ \t])--[a-zA-Z][a-zA-Z0-9-]*' | tr -d ' \t' |
           sort -u || true)
  for flag in $quoted; do
    if ! grep -qxF -- "$flag" <<<"$known"; then
      echo "${file#"$root"/}: 'mcmcpar_run $flag' is not in its --help" >&2
      status=1
    fi
  done
done
exit $status
