(* Version-validated read cache for the hottest keys.

   Direct-mapped over immutable entries: each slot holds at most one
   (key, value, version) entry plus an invalidation stamp.  The value is
   the store's wire-form bytes ([Kvstore.Packed]), so a hit answers a
   full-value get with no decode.  The protocol that keeps a filled
   entry coherent with the shards:

     - hit:        a lock-free read of the slot's entry; if its key
                   matches, the cached value is the answer.  A hit
                   racing an invalidation linearizes just before the
                   write that triggered it.
     - fill:       a reader that missed captures the slot's stamp
                   {e before} reading the backing shard, and the fill is
                   accepted only if the stamp is unchanged when the value
                   comes back (checked under the slot lock).  Any write
                   to a key mapping to the slot during the read window
                   bumps the stamp and kills the in-flight fill — the
                   stale-fill race (read old value / concurrent write
                   invalidates / fill publishes the old value forever)
                   cannot happen.
     - invalidate: called by the router {e after} the shard write
                   completes: bump the slot stamp, then drop the entry if
                   it is for the written key.  The stamp bump is
                   unconditional so it also fences in-flight fills of
                   other keys sharing the slot.

   Layout is three parallel flat arrays (entries / stamps / locks) rather
   than an array of slot records: the hit path reads exactly one cell of
   [entries] and then the immutable entry itself — two cache lines before
   the key compare instead of four.  Entries are immutable records
   swapped through a single array cell, so the lock-free hit path can
   never observe a torn value; the plain (non-atomic) cell reads are safe
   under OCaml's memory model (no tearing for pointer-sized cells — a
   racing reader sees some previously-published entry, which the stamp
   protocol already accounts for).  Stamp reads outside the lock may be
   stale, which only makes a fill more conservative: a stale captured
   stamp can never match a bumped current one. *)

type entry = { key : string; value : string; version : int64 }

(* Counters are plain ints: [fills]/[rejected_fills]/[invalidations] are
   updated under slot locks (exact up to slot overlap); [hits]/[misses]
   are on the lock-free path, so concurrent increments may lose a tick.
   They steer benchmarks and gauges, not correctness. *)
type t = {
  entries : entry option array;
  stamps : int array; (* written only under the matching lock *)
  locks : Xutil.Spinlock.t array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
  mutable rejected_fills : int;
  mutable invalidations : int;
}

(* FNV-1a over the key bytes in native int arithmetic (the Int64 version
   boxes on every byte); any well-mixed string hash works.  The offset
   basis exceeds OCaml's 63-bit int literals, so it is truncated once at
   init. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L land max_int

let hash key =
  let h = ref fnv_offset in
  for i = 0 to String.length key - 1 do
    h := (!h lxor Char.code key.[i]) * 0x100000001b3
  done;
  !h land max_int

let rec pow2_above n k = if k >= n then k else pow2_above n (k * 2)

let create ~slots =
  let n = pow2_above (max 16 slots) 16 in
  {
    entries = Array.make n None;
    stamps = Array.make n 0;
    locks = Array.init n (fun _ -> Xutil.Spinlock.create ());
    mask = n - 1;
    hits = 0;
    misses = 0;
    fills = 0;
    rejected_fills = 0;
    invalidations = 0;
  }

let slots t = Array.length t.entries

let find t h key =
  match t.entries.(h land t.mask) with
  | Some e when String.equal e.key key ->
      t.hits <- t.hits + 1;
      Some e.value
  | _ ->
      t.misses <- t.misses + 1;
      None

let stamp t h = t.stamps.(h land t.mask)

let fill t h key ~stamp:st ~version value =
  let i = h land t.mask in
  Xutil.Spinlock.with_lock t.locks.(i) (fun () ->
      if t.stamps.(i) = st then begin
        t.entries.(i) <- Some { key; value; version };
        t.fills <- t.fills + 1;
        true
      end
      else begin
        t.rejected_fills <- t.rejected_fills + 1;
        false
      end)

let invalidate t h key =
  let i = h land t.mask in
  Xutil.Spinlock.with_lock t.locks.(i) (fun () ->
      t.stamps.(i) <- t.stamps.(i) + 1;
      t.invalidations <- t.invalidations + 1;
      match t.entries.(i) with
      | Some e when String.equal e.key key -> t.entries.(i) <- None
      | _ -> ())

let cached_version t key =
  match t.entries.(hash key land t.mask) with
  | Some e when String.equal e.key key -> Some e.version
  | _ -> None

let clear t =
  for i = 0 to t.mask do
    Xutil.Spinlock.with_lock t.locks.(i) (fun () ->
        t.stamps.(i) <- t.stamps.(i) + 1;
        t.entries.(i) <- None)
  done

type stats = {
  s_hits : int;
  s_misses : int;
  s_fills : int;
  s_rejected_fills : int;
  s_invalidations : int;
}

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_fills = t.fills;
    s_rejected_fills = t.rejected_fills;
    s_invalidations = t.invalidations;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.fills <- 0;
  t.rejected_fills <- 0;
  t.invalidations <- 0
