#!/bin/sh
# Prints the number of non-blank, non-comment lines of OCaml source under
# lib/ (or under the directories given as arguments): one line for .ml
# files, one for .mli files and one for both.  A line counts when
# it holds any character outside a comment.  Comments nest and may span
# lines; a "(*" inside a string literal does not open one.  Reports only.
#
# Usage: scripts/loc.sh [DIR...]
set -eu

cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- lib

count() {
  find "$@" -type f | sort | xargs -r awk '
  FNR == 1 { depth = 0; instr = 0 }
  {
    line = $0; n = length(line); code = 0; i = 1
    while (i <= n) {
      c = substr(line, i, 1); c2 = substr(line, i, 2)
      if (instr) {
        if (depth == 0 && c != " " && c != "\t") code = 1
        if (c == "\\") i++
        else if (c == "\"") instr = 0
      } else if (c2 == "(*") { depth++; i++ }
      else if (depth > 0 && c2 == "*)") { depth--; i++ }
      else if (c == "\"") {
        instr = 1
        if (depth == 0) code = 1
      } else if (c == "\x27" && substr(line, i + 1, 1) == "\\") {
        # an escaped character literal: skip to its closing quote
        if (depth == 0) code = 1
        j = index(substr(line, i + 3), "\x27")
        if (j > 0) i += j + 1
      } else if (c == "\x27" && substr(line, i + 2, 1) == "\x27") {
        # a character literal such as the double quote in single quotes
        if (depth == 0) code = 1
        i += 2
      } else if (depth == 0 && c != " " && c != "\t") code = 1
      i++
    }
    if (code) total++
  }
  END { print total + 0 }
'
}

ml=$(count "$@" -name '*.ml'); ml=${ml:-0}
mli=$(count "$@" -name '*.mli'); mli=${mli:-0}
echo ".ml  $ml"
echo ".mli $mli"
echo "all  $((ml + mli))"
