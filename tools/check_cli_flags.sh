#!/usr/bin/env bash
# Stale-flag lint: every flag of a mcmcpar_run command quoted in README.md,
# docs/*.md, tools/*.sh or the verify skill must appear in the tool's help
# text, and every `--opt KEY=` in it (less any `inner.` prefix) must be an
# option key its --list prints, so deleting a flag or an option cannot leave
# docs behind that still use it.
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
keys=$("$1" --list | sed -n '/^per-strategy options/,$p' | tail -n +2 |
       grep -oE '(^|[[:blank:]])[a-z][a-z0-9.-]*=' | tr -d ' \t=' | sort -u)
[[ -n $keys ]] || { echo "$1 --list listed no option keys" >&2; exit 2; }

status=0
for file in "$root/README.md" "$root"/docs/*.md "$root"/tools/*.sh \
            "$root/.claude/skills/verify/SKILL.md"; do
  [[ -f $file ]] || continue
  commands=$(sed -e ':a;N;$!ba;s/\n[ \t]\+/ /g' "$file" |
             grep -oE 'mcmcpar_run[[:blank:]][^`|;&#]*' || true)
  quoted=$(grep -oE -- '(^|[[:blank:]])--[a-zA-Z][a-zA-Z0-9-]*' <<<"$commands" |
           tr -d ' \t' | sort -u || true)
  for flag in $quoted; do
    if ! grep -qxF -- "$flag" <<<"$known"; then
      echo "${file#"$root"/}: 'mcmcpar_run $flag' is not in its --help" >&2
      status=1
    fi
  done
  used=$(grep -oE -- '--opt[[:blank:]]+[^[:blank:]=]+=' <<<"$commands" |
         sed -E 's/^--opt[[:blank:]]+(inner\.)*//; s/=$//' | sort -u || true)
  for key in $used; do
    grep -qxF -- "$key" <<<"$keys" && continue
    echo "${file#"$root"/}: option '$key=' is not listed by --list" >&2
    status=1
  done
done
exit $status
