(** Version-validated read cache for the hottest keys (the Fig 13 skew
    mitigation's serving layer).

    Direct-mapped over immutable entries in a flat slot array, so a hit
    is one cell read plus the entry itself — lock-free, and it can never
    observe a torn value.  Coherence comes from a per-slot invalidation
    stamp:

    + a reader that misses captures {!stamp} {e before} reading the
      backing shard and passes it to {!fill}; the fill is dropped if any
      write bumped the stamp in between (the stale-fill race);
    + writers call {!invalidate} {e after} the shard write completes,
      which bumps the stamp and evicts the entry.

    Entries carry the store's value version, so a validator can check
    that a cached value is never older than the store's current one.

    Every operation takes the key's hash [h] (from {!hash}) so a caller
    on the hot path hashes once and reuses it for slot selection,
    fingerprint gating, and shard routing. *)

type t

val hash : string -> int
(** FNV-1a over the key bytes, in \[0, max_int\].  The router reuses this
    one value for cache slots, hot-set fingerprints, and hash-partition
    routing. *)

val create : slots:int -> t
(** [slots] is rounded up to a power of two (minimum 16). *)

val slots : t -> int

val find : t -> int -> string -> string option
(** [find t h key] — lock-free probe for the cached value (the store's
    wire-form bytes, {!Kvstore.Packed}).  Counted as a hit or miss in
    {!stats}. *)

val stamp : t -> int -> int
(** [stamp t h] — current invalidation stamp of the key's slot.  Capture
    it before reading the backing store. *)

val fill : t -> int -> string -> stamp:int -> version:int64 -> string -> bool
(** Publish a value read from the backing store; returns [false] (and
    caches nothing) if the slot's stamp moved since [stamp] was taken. *)

val invalidate : t -> int -> string -> unit
(** Bump the key's slot stamp (always — this also fences in-flight fills
    of slot-sharing keys) and drop the entry if it caches [key].  Call
    after the backing-store write completes. *)

val cached_version : t -> string -> int64 option
(** The version a cached entry was filled at, if [key] is cached. *)

val clear : t -> unit

type stats = {
  s_hits : int;
  s_misses : int;
  s_fills : int;
  s_rejected_fills : int;
  s_invalidations : int;
}

val stats : t -> stats
(** Telemetry counters.  Hit/miss counts ride the lock-free path, so
    concurrent increments may occasionally be lost — they steer gauges
    and benchmarks, not correctness; exact when callers are quiescent. *)

val reset_stats : t -> unit
