#!/usr/bin/env bash
# Lint gate: run `fixq lint --format json` over every example query,
# check the JSON diagnostic schema with jq, and fail on any
# error-severity finding (the CLI exits non-zero exactly then, but we
# also assert it from the JSON so the schema and the exit code cannot
# drift apart silently). Every example runs against a generated
# curriculum.xml, and lint's first-IFP verdicts must equal those of a
# `fixq serve` check on the same text and document, with and without
# --stratified: the CLI and serve share one prepare pipeline.
set -euo pipefail

FIXQ=${FIXQ:-dune exec fixq --}
shopt -s nullglob
examples=(examples/*.xq)
if [ ${#examples[@]} -eq 0 ]; then
  echo "no example queries found" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
$FIXQ generate curriculum --size 20 --seed 1 >"$tmp/curriculum.xml"
docs=(--doc "curriculum.xml=$tmp/curriculum.xml")

# the verdict triple of the first IFP, null when there is none
verdicts='if (.ifps | length) == 0 then null
          else .ifps[0] | {syntactic, algebraic, delta_by} end'

for f in "${examples[@]}"; do
  echo "lint $f"
  out=$($FIXQ lint --format json "${docs[@]}" "$f")
  jq -c "$verdicts" <<<"$out" >"$tmp/$(basename "$f").plain"
  $FIXQ lint --stratified --format json "${docs[@]}" "$f" \
    | jq -c "$verdicts" >"$tmp/$(basename "$f").stratified"

  # every diagnostic carries the full located shape with a stable code
  jq -e '
    .diagnostics | all(
      (.severity | IN("error", "warning", "info")) and
      (.code | test("^FQ[0-9]{3}$")) and
      (.line | type == "number") and
      (.col | type == "number") and
      (.context | type == "string") and
      (.message | type == "string"))' <<<"$out" >/dev/null

  # every IFP got a divergence verdict, both checker fields and the
  # check that licensed Delta (null when neither did)
  jq -e '
    .ifps | all(
      (.divergence | IN("terminates", "bounded", "may-diverge")) and
      (.syntactic | type == "boolean") and
      (.delta_by | . == null or IN("syntactic", "algebraic")) and
      (.hint_repairable | type == "boolean"))' <<<"$out" >/dev/null

  # the error counter agrees with the per-diagnostic severities
  jq -e '.errors == ([.diagnostics[] | select(.severity == "error")] | length)' \
    <<<"$out" >/dev/null

  errors=$(jq '.errors' <<<"$out")
  if [ "$errors" -ne 0 ]; then
    echo "error-severity findings in $f:" >&2
    jq -r '.diagnostics[] | select(.severity == "error")
           | "  \(.line):\(.col) \(.code) \(.message)"' <<<"$out" >&2
    exit 1
  fi

  # the SARIF view carries the same findings in the 2.1.0 shape:
  # versioned log, one fixq driver run, every result a located FQ0xx
  sarif=$($FIXQ lint --format sarif "${docs[@]}" "$f")
  jq -e '.version == "2.1.0" and (.runs | length == 1)
         and .runs[0].tool.driver.name == "fixq"' <<<"$sarif" >/dev/null
  jq -e '
    .runs[0].results | all(
      (.ruleId | test("^FQ[0-9]{3}$")) and
      (.level | IN("error", "warning", "note")) and
      (.message.text | type == "string") and
      (.locations[0].physicalLocation.artifactLocation.uri
         | type == "string") and
      (.locations[0].physicalLocation.region.startLine
         | type == "number"))' <<<"$sarif" >/dev/null
  # every reported ruleId is declared in the driver's rule table
  jq -e '(.runs[0].tool.driver.rules | map(.id)) as $ids
         | .runs[0].results | all(.ruleId | IN($ids[]))' <<<"$sarif" >/dev/null
  # JSON and SARIF agree on the number of findings
  jq -e --argjson n "$(jq '.diagnostics | length' <<<"$out")" \
    '.runs[0].results | length == $n' <<<"$sarif" >/dev/null
done


# One serve session checks every example in both modes; response i
# answers example i/2, stratified when i is odd.
{
  jq -cn --arg path "$tmp/curriculum.xml" \
    '{op: "load-doc", uri: "curriculum.xml", path: $path}'
  i=0
  for f in "${examples[@]}"; do
    for stratified in false true; do
      jq -cn --rawfile q "$f" --argjson s "$stratified" --argjson id "$i" \
        '{op: "check", id: $id, query: $q, stratified: $s}'
      i=$((i + 1))
    done
  done
} | $FIXQ serve --pipe >"$tmp/serve.jsonl"

i=0
for f in "${examples[@]}"; do
  for mode in plain stratified; do
    lint=$(cat "$tmp/$(basename "$f").$mode")
    serve=$(jq -c --argjson id "$i" 'select(.id == $id)
      | if .ok and .ifp_count == 0 then null
        else {syntactic, algebraic, delta_by} end' "$tmp/serve.jsonl")
    if [ "$lint" != "$serve" ]; then
      echo "lint and serve disagree on $f ($mode): lint $lint, serve $serve" >&2
      exit 1
    fi
    i=$((i + 1))
  done
done

echo "all ${#examples[@]} example queries lint clean and match serve"
