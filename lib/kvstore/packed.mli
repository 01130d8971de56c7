(** A value's columns in their wire encoding, one immutable string:

    {v varint ncols | ncols * (varint len | bytes) v}

    This is the byte sequence a [Value (Some cols)] response carries after
    its tag and a put log record carries after its key, so a store that
    keeps each value in this form ({!Store.Contiguous}) answers a
    full-value get with one blit and no per-column work.  Every function
    here reads strings built by {!pack}; they are never parsed from
    untrusted input. *)

val pack : string array -> string
(** Encode the columns. *)

val unpack : string -> string array
(** Decode every column (fresh strings). *)

val select : string -> int list -> string array
(** [select p cols] is the listed columns in request order; an index
    that is negative or past the last column reads as [""].  Each
    requested column walks the length prefixes before it, which suits
    the small values this layout is for. *)
