(** Int-only comparisons.

    [open Xutil.Intcmp] shadows Stdlib's polymorphic [compare], [min],
    [max] and the six comparison operators with [int]-typed versions.
    The compiler turns each into a machine compare in place, where the
    polymorphic ones cost a C call ([caml_compare], [caml_lessequal], ...)
    unless the argument type happens to be known as [int] at the call
    site.  A module that opens this one cannot compare anything but ints
    by accident: a polymorphic comparison fails to type-check, and other
    types must say [String.equal], [String.compare] or match a pattern. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"

val min : int -> int -> int
val max : int -> int -> int
