(* Per-connection network buffers for the reactor path.

   Both halves are owned by exactly one shard at a time, so nothing here
   synchronizes.  The design goal is zero steady-state allocation on the
   request path: buffers grow geometrically while a connection warms up
   and are then reused for every subsequent frame — [grows] counts every
   underlying [Bytes.create] so benchmarks and tests can assert the
   steady state really is allocation-free. *)

open Xutil

let grow_count = Atomic.make 0

let grows () = Atomic.get grow_count

(* ---- inbound: compacting receive buffer with in-place frame parse ---- *)

module In = struct
  type t = {
    mutable buf : Bytes.t;
    mutable head : int; (* first unconsumed byte *)
    mutable tail : int; (* first free byte *)
    max_frame : int;
    chunk : int; (* minimum spare capacity before a read *)
  }

  type refill = Filled of int | Eof | Blocked

  type frame = Frame of int * int | Partial | Bad_frame

  let create ?(capacity = 4096) ?(max_frame = 64 * 1024 * 1024) () =
    {
      buf = Bytes.create (Int.max 16 capacity);
      head = 0;
      tail = 0;
      max_frame;
      chunk = 4096;
    }

  let pending t = t.tail - t.head

  let contents t = Bytes.unsafe_to_string t.buf

  (* Slide the unconsumed region to offset 0 and make sure at least
     [chunk] bytes are free past [tail].  Only called from [refill], so
     frame positions handed out by [next_frame] stay valid until the
     caller reads again. *)
  let make_room t =
    let live = pending t in
    if t.head > 0 then begin
      if live > 0 then Bytes.blit t.buf t.head t.buf 0 live;
      t.head <- 0;
      t.tail <- live
    end;
    if Bytes.length t.buf - t.tail < t.chunk then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap - live < t.chunk do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Atomic.incr grow_count;
      Bytes.blit t.buf 0 nb 0 live;
      t.buf <- nb
    end

  let rec refill t fd =
    make_room t;
    match Unix.read fd t.buf t.tail (Bytes.length t.buf - t.tail) with
    | 0 -> Eof
    | n ->
        t.tail <- t.tail + n;
        Filled n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Blocked
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill t fd
    | exception Unix.Unix_error (_, _, _) -> Eof

  let next_frame t =
    if pending t < 4 then Partial
    else begin
      let len = Int32.to_int (Bytes.get_int32_le t.buf t.head) in
      if len < 0 || len > t.max_frame then Bad_frame
      else if pending t < 4 + len then Partial
      else begin
        let pos = t.head + 4 in
        t.head <- t.head + 4 + len;
        Frame (pos, len)
      end
    end
end

(* ---- outbound: coalescing send buffer with back-patched headers ---- *)

module Out = struct
  type t = {
    w : Binio.writer;
    budget : int;
    mutable cap : int; (* last observed capacity, for grow accounting *)
  }

  type flush = Drained | Blocked | Closed

  let create ?(budget = 1 lsl 20) () =
    let w = Binio.writer ~capacity:4096 () in
    { w; budget; cap = Bytes.length (Binio.unsafe_bytes w) }

  let writer t = t.w

  let pending t = Binio.length t.w

  let over_budget t = pending t > t.budget

  let note_growth t =
    let cap = Bytes.length (Binio.unsafe_bytes t.w) in
    if cap > t.cap then begin
      Atomic.incr grow_count;
      t.cap <- cap
    end

  let begin_frame t =
    let marker = Binio.length t.w in
    Binio.write_u32 t.w 0;
    marker

  let end_frame t marker =
    Binio.patch_u32 t.w ~pos:marker (Binio.length t.w - marker - 4);
    note_growth t

  (* Write as much accumulated output as the socket will take.  A partial
     write slides the remainder down ([Binio.drop_prefix]) — typical
     flushes drain everything, so the memmove is rare. *)
  let rec flush t fd =
    let len = pending t in
    if len = 0 then Drained
    else begin
      match Unix.single_write fd (Binio.unsafe_bytes t.w) 0 len with
      | n ->
          if n = len then begin
            Binio.reset t.w;
            Drained
          end
          else begin
            Binio.drop_prefix t.w n;
            flush t fd
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Blocked
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush t fd
      | exception Unix.Unix_error (_, _, _) -> Closed
    end
end
