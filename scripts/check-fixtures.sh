#!/usr/bin/env bash
# Golden-fixture drift detector.
#
# Regenerates the byte fixtures into a scratch directory and
# byte-compares them with the committed ones under tests/fixtures/: the
# store artifacts and deltas (*.intx), the wire v3 request and reply
# frames (*.frames), and the write-ahead log (*.wal). A mismatch means a
# byte format (or the compiler's deterministic output) changed without
# the fixtures — and therefore the format-version policy in DESIGN.md
# §5 — being updated.
#
# Usage: bash scripts/check-fixtures.sh   (from the repo root; CI runs it)
set -euo pipefail

cd "$(dirname "$0")/.."

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

cargo run --quiet --locked --example regen_fixtures -- "$scratch"

status=0
shopt -s nullglob
committed=(tests/fixtures/*)
if [ "${#committed[@]}" -eq 0 ]; then
  echo "error: no committed fixtures under tests/fixtures/" >&2
  exit 1
fi
for fixture in "${committed[@]}"; do
  name="$(basename "$fixture")"
  if [ ! -f "$scratch/$name" ]; then
    echo "DRIFT: $name is committed but the regenerator no longer produces it" >&2
    status=1
  elif ! cmp -s "$fixture" "$scratch/$name"; then
    echo "DRIFT: $name differs from its regenerated bytes" >&2
    echo "       (if the format changed on purpose: bump FORMAT_VERSION," >&2
    echo "        update DESIGN.md §5, and rerun 'cargo run --example regen_fixtures')" >&2
    status=1
  fi
done
for produced in "$scratch"/*; do
  name="$(basename "$produced")"
  if [ ! -f "tests/fixtures/$name" ]; then
    echo "DRIFT: regenerator produced $name, which is not committed" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "golden fixtures: ${#committed[@]} file(s) byte-identical with regeneration"
fi
exit "$status"
