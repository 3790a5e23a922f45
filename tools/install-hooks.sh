#!/bin/sh
# install-hooks.sh: installs the fastcc git pre-commit hook.
#
# The hook runs `tools/fastcc-lint` over the staged src/ files, well under a
# second for the whole tree.  A finding blocks the commit; fix it or add a
# reasoned `// lint:allow(check -- reason)` and restage.
# Bypass a single commit with `git commit --no-verify`.
#
# Usage: tools/install-hooks.sh [--dry-run]
#   --dry-run  print the hook to stdout instead of installing it (used by
#              the ctest smoke check; no repository state is touched).
set -eu

hook_body() {
  cat <<'HOOK'
#!/bin/sh
# fastcc pre-commit hook (installed by tools/install-hooks.sh).
# Runs fastcc-lint on the staged src/ files; a finding blocks the commit.
# Bypass once with `git commit --no-verify`.
set -u

root=$(git rev-parse --show-toplevel) || exit 0
staged=$(git diff --cached --name-only --diff-filter=ACMR -- \
           'src/*.h' 'src/*.cc' 'src/*.hpp' 'src/*.cpp')
[ -z "$staged" ] && exit 0

files=""
for f in $staged; do
  [ -f "$root/$f" ] && files="$files $root/$f"
done
[ -z "$files" ] && exit 0

# shellcheck disable=SC2086  # word-splitting $files is intended
exec python3 "$root/tools/fastcc-lint" $files
HOOK
}

if [ "${1:-}" = "--dry-run" ]; then
  hook_body
  exit 0
fi

root=$(git rev-parse --show-toplevel)
hooks_dir=$(git rev-parse --git-path hooks)
case "$hooks_dir" in
  /*) ;;
  *) hooks_dir="$root/$hooks_dir" ;;
esac

mkdir -p "$hooks_dir"
target="$hooks_dir/pre-commit"
if [ -e "$target" ] && ! grep -q "fastcc pre-commit hook" "$target"; then
  echo "install-hooks.sh: $target exists and is not ours; not overwriting" >&2
  exit 1
fi
hook_body > "$target"
chmod +x "$target"
echo "installed $target"
