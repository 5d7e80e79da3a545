# Shell helper of the tier1 workflow's end-to-end steps; each sources this file.
# checked NAME COMMAND...: runs COMMAND and passes its stderr through; fails,
# naming NAME, when COMMAND fails or its stderr says a weight update ended on
# its budget or the tree is incomplete (no splittable leaf remained).
checked() {
  local name=$1; shift
  "$@" 2> "$RUNNER_TEMP/stderr.txt" || { cat "$RUNNER_TEMP/stderr.txt" >&2; return 1; }
  cat "$RUNNER_TEMP/stderr.txt" >&2
  if grep -q "ended on its budget" "$RUNNER_TEMP/stderr.txt"; then echo "$name: a weight update ended on its budget" >&2; return 1; fi
  if grep -q "no splittable leaf remains" "$RUNNER_TEMP/stderr.txt"; then echo "$name: the tree is incomplete" >&2; return 1; fi
}
