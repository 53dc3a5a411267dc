#!/usr/bin/env bash
# Lint gate: run `fixq lint --format json` over every example query,
# check the JSON diagnostic schema with jq, and fail on any
# error-severity finding (the CLI exits non-zero exactly then, but we
# also assert it from the JSON so the schema and the exit code cannot
# drift apart silently).
set -euo pipefail

FIXQ=${FIXQ:-dune exec fixq --}
shopt -s nullglob
examples=(examples/*.xq)
if [ ${#examples[@]} -eq 0 ]; then
  echo "no example queries found" >&2
  exit 1
fi

for f in "${examples[@]}"; do
  echo "lint $f"
  out=$($FIXQ lint --format json "$f")

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
  sarif=$($FIXQ lint --format sarif "$f")
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

echo "all ${#examples[@]} example queries lint clean"
