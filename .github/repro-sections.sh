#!/usr/bin/env bash
# Hashes a `repro` output read from stdin: line 1 is the sha256 of the
# whole output, then one line per section — the sha256 of its exact
# bytes and its header. A section runs from a `=== … ===` header line to
# the line before the next header; lines before the first header form
# the preamble section. A pinned run diffs this against a committed
# file, so a moved figure names its section, and line 1 keeps the check
# byte-exact.
#
#   repro --jobs 2 quick | bash .github/repro-sections.sh \
#     | diff .github/repro-pins/quick.txt -
set -euo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cat > "$dir/all"
echo "$(sha256sum < "$dir/all" | cut -d' ' -f1)  (whole output)"
# One file per section. awk ends every line it copies with a newline;
# an output whose last line has none gets that byte trimmed below.
awk -v dir="$dir" '
  BEGIN { n = 0; file = dir "/0"; print "(preamble)" > (dir "/names"); printf "" > file }
  /^=== .* ===$/ { close(file); n++; file = dir "/" n; print > (dir "/names") }
  { print > file }
' "$dir/all"
last=$(($(wc -l < "$dir/names") - 1))
if [ -s "$dir/all" ] && [ -n "$(tail -c 1 "$dir/all")" ]; then
  truncate -s -1 "$dir/$last"
fi
i=0
while IFS= read -r name; do
  echo "$(sha256sum < "$dir/$i" | cut -d' ' -f1)  $name"
  i=$((i + 1))
done < "$dir/names"
