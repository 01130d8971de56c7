(* Keyspace router: N independent stores behind one Store-shaped face.

   Routing is hash-partitioned by default (FNV-1a, stable across runs and
   router instances) with pluggable range partitioning.  Point ops go to
   the owning shard; multi_get fans out per shard and re-scatters results
   in request order; scans run on every shard and k-way merge into one
   ordered stream.

   The optional hot-key layer (Fig 13's skew mitigation) sits in front of
   the shards: a space-saving sketch samples the get stream, the top-K
   keys become fill-eligible, and a version-validated read cache
   (Hotcache) serves them without touching — or locking — the owning
   shard.  Writes go to the shard first and invalidate second, so a
   cached entry can never outlive the value it mirrors. *)

type concurrency =
  | Concurrent
      (* shards are full concurrent Masstrees; the router adds routing only *)
  | Dedicated
      (* one core per shard (§6.6 hard-partitioned model): every shard
         access serializes on that shard's lock, so a hot shard saturates
         exactly as a dedicated-core deployment would *)

type partitioning =
  | Hash
  | Range of string array
      (* boundaries.(i) = first key NOT owned by shard i; sorted, length n-1 *)

type hot_config = {
  hot_slots : int;
  sketch_capacity : int;
  refresh_every : int;
  sample : int;
}

(* sample 1-in-16 keeps the sketch off the common path (a uniform
   workload pays ~1-2% for the hot-key layer it never benefits from);
   1024 sampled observations between refreshes means the top-K set
   adapts every ~16k gets. *)
let default_hot_config =
  { hot_slots = 1024; sketch_capacity = 4096; refresh_every = 1024; sample = 16 }

type hot = {
  cache : Hotcache.t;
  sketch : Heavy_hitter.t;
  sketch_lock : Xutil.Spinlock.t;
  (* Hot-set membership as a flat byte-fingerprint table:
     fp.[h land fp_mask] holds one hash-derived byte of a current top-K
     key ('\000' = empty).  Bytes keep the whole table L2-resident (8x
     hot_slots is 128KB at the default), so the gate costs ~nothing —
     that is what lets every get consult it FIRST and lets cold keys skip
     the cache entirely, paying only hash + tick + this read for the
     whole hot-key layer.  A 1-in-256 false positive admits a cold key to
     probe-and-fill; with 4x slots over top-K the resulting churn is
     noise.  Swapped wholesale at refresh; readers seeing the old table
     briefly is harmless (the gate affects only which keys get cached,
     never coherence — invalidation doesn't consult it). *)
  fp : Bytes.t Atomic.t;
  fp_mask : int;
  config : hot_config;
  mutable next_refresh : int;
  ticks : int ref array; (* per-worker sampling counters; races are benign *)
}

(* A subscribed replica as the router sees it: transport-agnostic
   closures (in-process [Repl.Replica.read], or a TCP client's
   [Repl_read]).  [rh_read] answers [`Stale] when the replica's applied
   clock is below the caller's floor and [`Down] on transport failure —
   both fall back to the owning shard. *)
type replica_handle = {
  rh_label : string;
  rh_read :
    string ->
    int list ->
    int64 ->
    [ `Value of string array option | `Stale | `Down ];
  rh_applied : unit -> int64;
}

type t = {
  stores : Kvstore.Store.t array;
  partitioning : partitioning;
  locks : Xutil.Spinlock.t array; (* used only in Dedicated mode *)
  concurrency : concurrency;
  hot : hot option;
  loads : int Atomic.t array; (* shard accesses routed past the cache *)
  mutable replicas : replica_handle array;
  rr_cursor : int Atomic.t; (* round-robin over replicas *)
  offload_served : int Atomic.t;
  offload_fallback : int Atomic.t;
}

(* One hash per key per operation: Hotcache's FNV-1a doubles as the
   hash-partition routing hash and the fingerprint, so the hot path
   hashes once and reuses the value everywhere. *)
let fnv1a = Hotcache.hash

(* the fingerprint byte comes from hash bits the slot index doesn't use;
   0 is reserved for "empty" *)
let fp_byte hv =
  let b = (hv lsr 24) land 0xff in
  if b = 0 then 1 else b

let rec pow2_above n k = if k >= n then k else pow2_above n (k * 2)

let create ?(partitioning = Hash) ?(concurrency = Concurrent) ?hot stores =
  let n = Array.length stores in
  assert (n > 0);
  (match partitioning with
  | Hash -> ()
  | Range bs ->
      assert (Array.length bs = n - 1);
      Array.iteri (fun i b -> if i > 0 then assert (String.compare bs.(i - 1) b <= 0)) bs);
  let hot =
    Option.map
      (fun config ->
        (* note_get's 1-in-[sample] gate is a power-of-two mask; round a
           caller's rate up so e.g. sample=10 means 1-in-16, not the
           silent 1-in-4 that mask 0b1001 would give *)
        let config = { config with sample = pow2_above (Int.max 1 config.sample) 1 } in
        (* 4x slots over the top-K target tames direct-map collisions
           between hot keys; 8x fingerprints keep the gate's false-drop
           rate low.  Both are flat arrays, a few tens of KB. *)
        let fp_len = pow2_above (8 * Int.max 16 config.hot_slots) 16 in
        {
          cache = Hotcache.create ~slots:(4 * config.hot_slots);
          sketch = Heavy_hitter.create ~capacity:config.sketch_capacity;
          sketch_lock = Xutil.Spinlock.create ();
          fp = Atomic.make (Bytes.make fp_len '\000');
          fp_mask = fp_len - 1;
          config;
          next_refresh = config.refresh_every;
          ticks = Array.init 64 (fun _ -> ref 0);
        })
      hot
  in
  {
    stores;
    partitioning;
    locks = Array.init n (fun _ -> Xutil.Spinlock.create ());
    concurrency;
    hot;
    loads = Array.init n (fun _ -> Atomic.make 0);
    replicas = [||];
    rr_cursor = Atomic.make 0;
    offload_served = Atomic.make 0;
    offload_fallback = Atomic.make 0;
  }

let shards t = Array.length t.stores

let stores t = t.stores

(* [hv] = fnv1a key, computed once by the caller on hot paths. *)
let shard_of_h t hv key =
  match t.partitioning with
  | Hash -> hv mod Array.length t.stores
  | Range bs ->
      (* first boundary strictly above [key] names the owner *)
      let lo = ref 0 and hi = ref (Array.length bs) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if String.compare key bs.(mid) < 0 then hi := mid else lo := mid + 1
      done;
      !lo

let shard_of t key = shard_of_h t (fnv1a key) key

let with_shard t s f =
  Atomic.incr t.loads.(s);
  match t.concurrency with
  | Concurrent -> f t.stores.(s)
  | Dedicated -> Xutil.Spinlock.with_lock t.locks.(s) (fun () -> f t.stores.(s))

let shard_loads t = Array.map Atomic.get t.loads

let reset_shard_loads t = Array.iter (fun a -> Atomic.set a 0) t.loads

(* ---- hot-key layer ---- *)

(* Sample roughly 1-in-[sample] gets into the sketch (per-worker tick
   counters, try-lock so a busy sketch just drops the sample), refreshing
   the fill-eligible top-K set every [refresh_every] sketched
   observations. *)
let note_get h ~worker key =
  let tick = h.ticks.(worker land 63) in
  incr tick;
  if !tick land (h.config.sample - 1) = 0 && Xutil.Spinlock.try_lock h.sketch_lock
  then begin
    Heavy_hitter.observe h.sketch key;
    if Heavy_hitter.observed h.sketch >= h.next_refresh then begin
      let top = Heavy_hitter.top h.sketch h.config.hot_slots in
      let fp = Bytes.make (h.fp_mask + 1) '\000' in
      List.iter
        (fun (k, _) ->
          let hv = fnv1a k in
          Bytes.set fp (hv land h.fp_mask) (Char.unsafe_chr (fp_byte hv)))
        top;
      Atomic.set h.fp fp;
      (* age the sketch so the set tracks the current mix *)
      Heavy_hitter.decay h.sketch;
      h.next_refresh <- Heavy_hitter.observed h.sketch + h.config.refresh_every
    end;
    Xutil.Spinlock.unlock h.sketch_lock
  end

let fill_eligible h hv =
  Char.code (Bytes.unsafe_get (Atomic.get h.fp) (hv land h.fp_mask)) = fp_byte hv

(* ---- point operations ---- *)

(* Fill-eligible miss path: capture the slot stamp before the shard read
   and publish (value, version) only if no write intervened. *)
let get_fill t h hv key =
  let st = Hotcache.stamp h.cache hv in
  match
    with_shard t (shard_of_h t hv key) (fun store -> Kvstore.Store.get_packed_value store key)
  with
  | None -> None
  | Some (version, p) ->
      ignore (Hotcache.fill h.cache hv key ~stamp:st ~version p);
      Some p

(* Full-value get through the hot-key layer, in wire form: hash once,
   consult the L2-resident fingerprint gate first.  Keys outside the hot
   set skip the cache entirely — their only overhead over a plain routed
   get is the hash (shared with routing), a tick, and one byte read.
   Keys inside it probe the cache and fill on a miss. *)
let get_hot t h ~worker key =
  let hv = fnv1a key in
  note_get h ~worker key;
  if fill_eligible h hv then
    match Hotcache.find h.cache hv key with
    | Some p -> Some p
    | None -> get_fill t h hv key
  else with_shard t (shard_of_h t hv key) (fun store -> Kvstore.Store.get_packed store key)

let get_packed ?(worker = 0) t key =
  match t.hot with
  | None -> with_shard t (shard_of t key) (fun store -> Kvstore.Store.get_packed store key)
  | Some h -> get_hot t h ~worker key

let get ?(worker = 0) t key =
  match t.hot with
  | None -> with_shard t (shard_of t key) (fun store -> Kvstore.Store.get store key)
  | Some h -> Option.map Kvstore.Packed.unpack (get_hot t h ~worker key)

let get_columns ?(worker = 0) t key columns =
  match t.hot with
  | None ->
      with_shard t (shard_of t key) (fun store -> Kvstore.Store.get_columns store key columns)
  | Some h -> Option.map (fun p -> Kvstore.Packed.select p columns) (get_hot t h ~worker key)

let get_value t key =
  with_shard t (shard_of t key) (fun store -> Kvstore.Store.get_value store key)

let write_op t ~worker key op =
  match t.hot with
  | None -> with_shard t (shard_of t key) (fun store -> op store)
  | Some h ->
      let hv = fnv1a key in
      let r = with_shard t (shard_of_h t hv key) (fun store -> op store) in
      Hotcache.invalidate h.cache hv key;
      ignore worker;
      r

let put ?(worker = 0) t key columns =
  write_op t ~worker key (fun store -> Kvstore.Store.put ~worker store key columns)

let put_columns ?(worker = 0) t key updates =
  write_op t ~worker key (fun store -> Kvstore.Store.put_columns ~worker store key updates)

let remove ?(worker = 0) t key =
  write_op t ~worker key (fun store -> Kvstore.Store.remove ~worker store key)

(* ---- replica read offload ---- *)

let set_replicas t handles = t.replicas <- Array.of_list handles

let replica_count t = Array.length t.replicas

(* Bounded-staleness read through the replica table: round-robin a
   replica first (the alternative Fig-13 mitigation — a hot shard's read
   traffic fans across subscribers instead of serializing on the owning
   partition), fall back to the owning shard when the replica is behind
   the caller's floor or unreachable.  [floor = 0L] accepts any replica
   state; a read-your-writes caller passes the version clock it saw. *)
let get_offload ?(worker = 0) ?(columns = []) ?(floor = 0L) t key =
  let primary () =
    match columns with
    | [] -> get ~worker t key
    | cols -> get_columns ~worker t key cols
  in
  let n = Array.length t.replicas in
  if n = 0 then primary ()
  else begin
    let r = t.replicas.((Atomic.fetch_and_add t.rr_cursor 1 land max_int) mod n) in
    match r.rh_read key columns floor with
    | `Value v ->
        Atomic.incr t.offload_served;
        v
    | `Stale | `Down ->
        Atomic.incr t.offload_fallback;
        primary ()
  end

let offload_stats t =
  (Atomic.get t.offload_served, Atomic.get t.offload_fallback)

(* ---- multi_get fan-out ---- *)

let multi_get_packed ?(worker = 0) t keys =
  let n = Array.length keys in
  let results = Array.make n None in
  let nshards = Array.length t.stores in
  (* classify each key: cache hit, fill-eligible miss, or plain miss *)
  let plain = Array.make nshards [] in
  let fills = Array.make nshards [] in
  Array.iteri
    (fun i key ->
      let hv = fnv1a key in
      let s = shard_of_h t hv key in
      match t.hot with
      | None -> plain.(s) <- (i, key) :: plain.(s)
      | Some h -> (
          note_get h ~worker key;
          if fill_eligible h hv then
            match Hotcache.find h.cache hv key with
            | Some p -> results.(i) <- Some p
            | None ->
                (* stamp captured now, before any shard read below *)
                fills.(s) <- (i, key, hv, Hotcache.stamp h.cache hv) :: fills.(s)
          else plain.(s) <- (i, key) :: plain.(s)))
    keys;
  for s = 0 to nshards - 1 do
    if plain.(s) <> [] || fills.(s) <> [] then
      with_shard t s (fun store ->
          (match plain.(s) with
          | [] -> ()
          | l ->
              let l = Array.of_list l in
              let ks = Array.map snd l in
              let rs = Kvstore.Store.multi_get_packed store ks in
              Array.iteri (fun j (i, _) -> results.(i) <- rs.(j)) l);
          List.iter
            (fun (i, key, hv, st) ->
              match Kvstore.Store.get_packed_value store key with
              | None -> results.(i) <- None
              | Some (version, p) ->
                  (match t.hot with
                  | Some h -> ignore (Hotcache.fill h.cache hv key ~stamp:st ~version p)
                  | None -> ());
                  results.(i) <- Some p)
            fills.(s))
  done;
  results

let multi_get ?worker t keys =
  Array.map (Option.map Kvstore.Packed.unpack) (multi_get_packed ?worker t keys)

(* ---- merged scans ---- *)

(* Per-shard fetch granularity for merged scans.  Memory is
   O(shards * min(limit, scan_chunk)) regardless of the client-supplied
   count, so a getrange with a huge limit streams like the single-store
   path instead of buffering every shard's contents (and can't be used as
   a memory-exhaustion vector by an unauthenticated client). *)
let scan_chunk = 256

(* K-way merge over per-shard cursors.  Each shard contributes a bounded
   chunk at a time; when a shard's chunk drains and it may hold more, we
   refill from just past the last key it yielded.  [collect shard ~resume
   ~limit emit] scans shard index [shard] — [resume = None] from the
   caller's origin, [Some k] from the shard's own last-yielded key [k]
   (inclusive; the refill filter below drops the duplicate).  The
   collector chooses the cursor source: the live store (via [with_shard],
   for [getrange]) or a pinned per-shard snapshot ([Snapshot.getrange]).
   Shards own disjoint keys, so the merge never sees duplicates across
   shards.  Over live cursors, the result is not atomic w.r.t. concurrent
   writers — a refill reads the shard's current state, exactly as a long
   single-store scan reads each leaf's current state as it passes; over
   snapshot cursors every refill resolves at the pinned cut, so the merge
   is one consistent view. *)
let merged_scan t ~limit ~collect ~cmp f =
  if limit <= 0 then 0
  else begin
    let nshards = Array.length t.stores in
    let chunk = Int.min limit scan_chunk in
    let bufs = Array.make nshards [||] in
    let idx = Array.make nshards 0 in
    let more = Array.make nshards true (* shard may hold keys beyond its buffer *) in
    let fetch s ~resume =
      (* one extra slot on refills: the inclusive resume key comes back
         first and is dropped, netting [chunk] fresh pairs *)
      let want = match resume with None -> chunk | Some _ -> chunk + 1 in
      let acc = ref [] in
      let got = ref 0 in
      collect s ~resume ~limit:want (fun k v ->
          incr got;
          match resume with
          | Some last when cmp k last <= 0 -> ()
          | _ -> acc := (k, v) :: !acc);
      bufs.(s) <- Array.of_list (List.rev !acc);
      idx.(s) <- 0;
      more.(s) <- !got >= want
    in
    for s = 0 to nshards - 1 do
      fetch s ~resume:None
    done;
    let refill s =
      (* refill (at most once per call) until the shard yields a key or
         proves empty; resume from the last key this shard yielded *)
      while idx.(s) >= Array.length bufs.(s) && more.(s) do
        let n = Array.length bufs.(s) in
        if n = 0 then more.(s) <- false (* a full-but-all-duplicate chunk can't happen *)
        else fetch s ~resume:(Some (fst bufs.(s).(n - 1)))
      done
    in
    let emitted = ref 0 in
    let continue = ref true in
    while !continue && !emitted < limit do
      let best = ref (-1) in
      for s = 0 to nshards - 1 do
        refill s;
        if idx.(s) < Array.length bufs.(s) then
          match !best with
          | -1 -> best := s
          | b -> if cmp (fst bufs.(s).(idx.(s))) (fst bufs.(b).(idx.(b))) < 0 then best := s
      done;
      match !best with
      | -1 -> continue := false
      | s ->
          let k, v = bufs.(s).(idx.(s)) in
          idx.(s) <- idx.(s) + 1;
          f k v;
          incr emitted
    done;
    !emitted
  end

let getrange t ~start ?columns ~limit f =
  merged_scan t ~limit
    ~collect:(fun s ~resume ~limit emit ->
      with_shard t s (fun store ->
          let start = match resume with None -> start | Some k -> k in
          ignore (Kvstore.Store.getrange store ~start ?columns ~limit emit)))
    ~cmp:String.compare f

let getrange_rev t ?start ?columns ~limit f =
  merged_scan t ~limit
    ~collect:(fun s ~resume ~limit emit ->
      with_shard t s (fun store ->
          let start = match resume with None -> start | Some k -> Some k in
          ignore (Kvstore.Store.getrange_rev store ?start ?columns ~limit emit)))
    ~cmp:(fun a b -> String.compare b a)
    f

(* ---- cross-shard snapshots ---- *)

module Snapshot = struct
  type router = t

  type snap = { srouter : router; parts : Kvstore.Store.Snapshot.snap array }

  (* One coordinator opens every shard's snapshot before returning, so
     the cut is coordinated: any write acked after [open_] returns is
     invisible on every shard (each shard's pin covers everything that
     shard committed before its open).  Shards have independent version
     clocks, so there is no single cross-shard timestamp — the guarantee
     is per-shard consistency plus the common happens-before line drawn
     by this call. *)
  let open_ (t : router) = { srouter = t; parts = Array.map Kvstore.Store.Snapshot.open_ t.stores }

  let versions s = Array.map Kvstore.Store.Snapshot.version s.parts

  (* Snapshot reads bypass the hot-key cache (it mirrors live values)
     and the Dedicated-mode shard locks (snapshot resolution never
     blocks on writers). *)
  let read s key =
    let sh = shard_of s.srouter key in
    Kvstore.Store.Snapshot.read s.parts.(sh) key

  let read_columns s key columns =
    let sh = shard_of s.srouter key in
    Kvstore.Store.Snapshot.read_columns s.parts.(sh) key columns

  let getrange s ~start ?columns ~limit f =
    merged_scan s.srouter ~limit
      ~collect:(fun sh ~resume ~limit emit ->
        let start = match resume with None -> start | Some k -> k in
        ignore (Kvstore.Store.Snapshot.getrange s.parts.(sh) ~start ?columns ~limit emit))
      ~cmp:String.compare f

  let close s = Array.iter Kvstore.Store.Snapshot.close s.parts
end

(* ---- whole-tier helpers ---- *)

let cardinal t = Array.fold_left (fun acc s -> acc + Kvstore.Store.cardinal s) 0 t.stores

let close t = Array.iter Kvstore.Store.close t.stores

let check t =
  let rec go i =
    if i >= Array.length t.stores then Ok ()
    else
      match Kvstore.Store.check t.stores.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
  in
  go 0

(* Arena leak oracle across the tier: quiesce each shard (draining its
   deferred frees), then check allocs == frees + reachable per store.
   Single-threaded callers only, like [check]. *)
let pool_consistency t =
  let rec go i =
    if i >= Array.length t.stores then Ok ()
    else begin
      Kvstore.Store.maintain t.stores.(i);
      match Kvstore.Store.pool_consistency t.stores.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
    end
  in
  go 0

let hot_stats t = Option.map (fun h -> Hotcache.stats h.cache) t.hot

let hot_key_count t =
  match t.hot with
  | None -> 0
  | Some h ->
      let fp = Atomic.get h.fp in
      let n = ref 0 in
      Bytes.iter (fun c -> if c <> '\000' then incr n) fp;
      !n

let imbalance_pct loads =
  let n = Array.length loads in
  let total = Array.fold_left ( + ) 0 loads in
  if n = 0 || total = 0 then 0.0
  else begin
    let mean = float_of_int total /. float_of_int n in
    let mx = Array.fold_left Int.max 0 loads in
    (float_of_int mx -. mean) /. mean *. 100.0
  end

let register_obs t =
  let reg = Obs.Registry.global in
  Obs.Registry.gauge reg "shard.shards" (fun () -> Array.length t.stores);
  Obs.Registry.gauge reg "shard.cardinal" (fun () -> cardinal t);
  Obs.Registry.gauge reg "shard.imbalance_pct" (fun () ->
      int_of_float (imbalance_pct (shard_loads t)));
  Obs.Registry.gauge reg "shard.replicas" (fun () -> Array.length t.replicas);
  Obs.Registry.gauge reg "shard.offload.served" (fun () ->
      Atomic.get t.offload_served);
  Obs.Registry.gauge reg "shard.offload.fallback" (fun () ->
      Atomic.get t.offload_fallback);
  (* Arena occupancy summed across the shard stores, plus process-wide
     GC gauges (the sharded server registers through the router only). *)
  let sum_pools f =
    Array.fold_left (fun a s -> a + f (Kvstore.Store.pool_stats s)) 0 t.stores
  in
  Obs.Registry.gauge reg "pool.cells_live" (fun () ->
      sum_pools (fun p -> p.Masstree_core.Pool.cells_live));
  Obs.Registry.gauge reg "pool.blobs_live" (fun () ->
      sum_pools (fun p -> p.Masstree_core.Pool.blobs_live));
  Obs.Registry.gauge reg "pool.deferred_frees" (fun () ->
      sum_pools (fun p -> p.Masstree_core.Pool.deferred_frees));
  Obs.Registry.gauge reg "pool.footprint_bytes" (fun () ->
      Array.fold_left (fun a s -> a + Kvstore.Store.pool_footprint s) 0 t.stores);
  Obs.Registry.register_gc reg;
  Array.iteri
    (fun i a ->
      Obs.Registry.gauge reg (Printf.sprintf "shard.load.%d" i) (fun () -> Atomic.get a))
    t.loads;
  match t.hot with
  | None -> ()
  | Some h ->
      Obs.Registry.gauge reg "shard.hot.keys" (fun () -> hot_key_count t);
      Obs.Registry.gauge reg "shard.hot.hits" (fun () -> (Hotcache.stats h.cache).Hotcache.s_hits);
      Obs.Registry.gauge reg "shard.hot.misses" (fun () ->
          (Hotcache.stats h.cache).Hotcache.s_misses);
      Obs.Registry.gauge reg "shard.hot.fills" (fun () ->
          (Hotcache.stats h.cache).Hotcache.s_fills);
      Obs.Registry.gauge reg "shard.hot.invalidations" (fun () ->
          (Hotcache.stats h.cache).Hotcache.s_invalidations);
      Obs.Registry.gauge reg "shard.hot.hit_rate_pct" (fun () ->
          let s = Hotcache.stats h.cache in
          let total = s.Hotcache.s_hits + s.Hotcache.s_misses in
          if total = 0 then 0 else 100 * s.Hotcache.s_hits / total)
