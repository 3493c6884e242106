#!/bin/sh
# loc.sh — count non-test Go lines per package directory, excluding the
# frozen benchmark harness under perfbench/. Two columns: "total" is every
# line, "code" drops blank lines and comment-only lines (// and /* */
# blocks). The last row sums all packages. Run from anywhere:
#
#   sh scripts/loc.sh        (or: make loc)
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.git/*' |
    LC_ALL=C sort |
    xargs awk '
FNR == 1 {
    dir = FILENAME
    sub(/^\.\//, "", dir)
    if (dir ~ /\//) sub(/\/[^\/]*$/, "", dir); else dir = "."
    inblock = 0
}
{
    total[dir]++
    line = $0
    gsub(/^[ \t]+|[ \t]+$/, "", line)
    if (inblock) {
        if (index(line, "*/")) inblock = 0
        next
    }
    if (line == "" || line ~ /^\/\//) next
    if (line ~ /^\/\*/) {
        if (!index(line, "*/")) inblock = 1
        next
    }
    code[dir]++
}
END {
    printf "%-28s %8s %8s\n", "package", "total", "code"
    n = 0
    for (d in total) dirs[++n] = d
    # insertion sort: awk has no portable sort builtin
    for (i = 2; i <= n; i++) {
        v = dirs[i]
        for (j = i - 1; j > 0 && dirs[j] > v; j--) dirs[j + 1] = dirs[j]
        dirs[j + 1] = v
    }
    for (i = 1; i <= n; i++) {
        d = dirs[i]
        printf "%-28s %8d %8d\n", d, total[d], code[d]
        t += total[d]; c += code[d]
    }
    printf "%-28s %8d %8d\n", "all (excluding perfbench)", t, c
}'
