#!/bin/sh
# check_orphans.sh — every internal package must be imported by at least
# one package other than itself. Imports from non-test files, in-package
# test files and external (_test package) test files all count, so a
# helper imported only by other packages' tests (internal/testkit)
# passes, while a package imported only by its own tests is an orphan.
# The benchmark module under perfbench/ counts as an importer too. Run
# from anywhere; `make orphans-check` wires it into ci.
set -eu
cd "$(dirname "$0")/.."

# One "importer imported" line per import edge.
fmt='{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}
{{end}}{{range .TestImports}}{{$p}} {{.}}
{{end}}{{range .XTestImports}}{{$p}} {{.}}
{{end}}'
edges=$(mktemp)
trap 'rm -f "$edges"' EXIT
go list -f "$fmt" ./... >"$edges"
if [ -f perfbench/go.mod ]; then
    (cd perfbench && GOFLAGS=-mod=readonly go list -f "$fmt" ./...) >>"$edges"
fi

fail=0
for pkg in $(go list ./internal/...); do
    if ! awk -v p="$pkg" '$2 == p && $1 != p { found = 1; exit } END { exit !found }' "$edges"; then
        echo "orphans-check: $pkg is imported by no other package" >&2
        fail=1
    fi
done
if [ "$fail" -eq 0 ]; then
    echo "orphans-check: every internal package has an importer"
fi
exit "$fail"
