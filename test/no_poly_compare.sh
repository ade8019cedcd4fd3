#!/bin/sh
# Fails when a native object given as an argument imports one of the
# polymorphic ordering primitives. A comparison whose operand type the
# compiler cannot see to be an int or a float compiles to a call to one
# of them on every evaluation; in the modules the restart and move
# kernels run per iteration that is a silent slowdown, which a type
# annotation removes. Structural equality ([caml_equal]) is allowed.
# Symbols may carry the leading underscore of Mach-O targets. An object
# that nm cannot read fails the check (exit 2) rather than passing it.
prims='^_?caml_(lessthan|lessequal|greaterthan|greaterequal|compare)$'
status=0
for obj in "$@"; do
  syms=$(nm -u "$obj") || { echo "nm -u $obj failed" >&2; exit 2; }
  found=$(printf '%s\n' "$syms" |
    awk -v re="$prims" '$NF ~ re { printf "%s ", $NF }')
  if [ -n "$found" ]; then
    echo "$(basename "$obj" .o): polymorphic ordering: $found"
    status=1
  fi
done
exit $status
