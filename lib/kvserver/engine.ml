(* Telemetry handles, resolved once at module load.  Recording is gated
   on the global registry's enabled flag, so a disabled registry costs
   one atomic load per request. *)

let reg = Obs.Registry.global

let kind_names = [| "get"; "put"; "put_cols"; "remove"; "scan"; "stats"; "snap"; "repl" |]

let kind_of = function
  | Protocol.Get _ -> 0
  | Protocol.Put _ -> 1
  | Protocol.Put_cols _ -> 2
  | Protocol.Remove _ -> 3
  | Protocol.Getrange _ | Protocol.Getrange_rev _ -> 4
  | Protocol.Stats -> 5
  | Protocol.Snap_open | Protocol.Snap_read _ | Protocol.Snap_range _
  | Protocol.Snap_close _ ->
      6
  | Protocol.Repl_open | Protocol.Repl_batch _ | Protocol.Repl_ack _
  | Protocol.Repl_status | Protocol.Repl_promote | Protocol.Repl_read _ ->
      7

let key_of = function
  | Protocol.Get { key; _ }
  | Protocol.Put { key; _ }
  | Protocol.Put_cols { key; _ }
  | Protocol.Remove key
  | Protocol.Snap_read { key; _ }
  | Protocol.Repl_read { key; _ } ->
      key
  | Protocol.Getrange { start; _ }
  | Protocol.Getrange_rev { start; _ }
  | Protocol.Snap_range { start; _ } ->
      start
  | Protocol.Stats | Protocol.Snap_open | Protocol.Snap_close _ | Protocol.Repl_open
  | Protocol.Repl_batch _ | Protocol.Repl_ack _ | Protocol.Repl_status
  | Protocol.Repl_promote ->
      ""

let op_counters = Array.map (fun k -> Obs.Registry.counter reg ("ops." ^ k)) kind_names

let lat_histos = Array.map (fun k -> Obs.Registry.histogram reg ("lat_us." ^ k)) kind_names

let failed_counter = Obs.Registry.counter reg "ops.failed"

let batches_counter = Obs.Registry.counter reg "ops.batches"

let multiget_hist = Obs.Registry.histogram reg "lat_us.multiget_batch"

(* The serving target behind a transport: one store, or a sharded tier
   whose router owns key placement, multi_get fan-out, merged scans, and
   the hot-key cache.  Protocol semantics are identical either way — a
   client cannot tell which one it talks to.

   The backend also owns the wire-level snapshot leases: Snap_open pins
   a store (or cross-shard) snapshot and grants a TTL lease on it, so a
   client that dies mid-scan can't wedge version pruning — the periodic
   [sweep_snapshots] (the daemon's timer thread) expires it and closes
   the underlying snapshot.  Any snapshot call renews its lease. *)

type target = Single of Kvstore.Store.t | Sharded of Shard.Router.t

type snap_handle =
  | Snap_single of Kvstore.Store.Snapshot.snap
  | Snap_sharded of Shard.Router.Snapshot.snap

(* [repl_handler] is dependency inversion: lib/repl sits above this
   library (it needs Protocol), so the daemon injects the Repl_* service
   — a Source on the primary, a Replica on a standby — after building
   the backend.  [readonly] is the replica serving contract: client
   writes are rejected until promotion flips it off (replication applies
   through the store layer directly, not through [execute_op]). *)
type backend = {
  target : target;
  leases : snap_handle Mvcc.Lease.t;
  mutable repl_handler : (worker:int -> Protocol.request -> Protocol.response) option;
  mutable readonly : bool;
}

let close_snap_handle = function
  | Snap_single s -> Kvstore.Store.Snapshot.close s
  | Snap_sharded s -> Shard.Router.Snapshot.close s

let default_snap_ttl_us = 30_000_000L

let make_backend ?(snap_ttl_us = default_snap_ttl_us) target =
  {
    target;
    leases =
      Mvcc.Lease.create ~ttl_us:snap_ttl_us
        ~on_expire:(fun _id h -> close_snap_handle h)
        ();
    repl_handler = None;
    readonly = false;
  }

let set_repl_handler b h = b.repl_handler <- Some h

let set_readonly b v = b.readonly <- v

let is_readonly b = b.readonly

let single ?snap_ttl_us s = make_backend ?snap_ttl_us (Single s)

let sharded ?snap_ttl_us r = make_backend ?snap_ttl_us (Sharded r)

let sweep_snapshots b = Mvcc.Lease.sweep b.leases

let open_snapshots b = Mvcc.Lease.count b.leases

let b_get ~worker b key =
  match b.target with
  | Single s -> Kvstore.Store.get s key
  | Sharded r -> Shard.Router.get ~worker r key

let b_get_packed ~worker b key =
  match b.target with
  | Single s -> Kvstore.Store.get_packed s key
  | Sharded r -> Shard.Router.get_packed ~worker r key

let b_get_columns ~worker b key columns =
  match b.target with
  | Single s -> Kvstore.Store.get_columns s key columns
  | Sharded r -> Shard.Router.get_columns ~worker r key columns

let b_put ~worker b key columns =
  match b.target with
  | Single s -> Kvstore.Store.put ~worker s key columns
  | Sharded r -> Shard.Router.put ~worker r key columns

let b_put_columns ~worker b key updates =
  match b.target with
  | Single s -> Kvstore.Store.put_columns ~worker s key updates
  | Sharded r -> Shard.Router.put_columns ~worker r key updates

let b_remove ~worker b key =
  match b.target with
  | Single s -> Kvstore.Store.remove ~worker s key
  | Sharded r -> Shard.Router.remove ~worker r key

let b_multi_get_packed ~worker b keys =
  match b.target with
  | Single s -> Kvstore.Store.multi_get_packed s keys
  | Sharded r -> Shard.Router.multi_get_packed ~worker r keys

(* Full-value gets answer with the stored wire bytes: the response
   encoder blits them, with no per-column work. *)
let value_packed = function None -> Protocol.Value None | Some p -> Protocol.Value_packed p

let b_getrange b ~start ?columns ~limit f =
  match b.target with
  | Single s -> Kvstore.Store.getrange s ~start ?columns ~limit f
  | Sharded r -> Shard.Router.getrange r ~start ?columns ~limit f

let b_getrange_rev b ?start ?columns ~limit f =
  match b.target with
  | Single s -> Kvstore.Store.getrange_rev s ?start ?columns ~limit f
  | Sharded r -> Shard.Router.getrange_rev r ?start ?columns ~limit f

let b_snap_open b =
  let h =
    match b.target with
    | Single s -> Snap_single (Kvstore.Store.Snapshot.open_ s)
    | Sharded r -> Snap_sharded (Shard.Router.Snapshot.open_ r)
  in
  Mvcc.Lease.grant b.leases h

let snap_err = function
  | Mvcc.Lease.Unknown -> Protocol.Snap_failed Protocol.Snap_unknown
  | Mvcc.Lease.Expired -> Protocol.Snap_failed Protocol.Snap_expired

(* Snapshot reads run on the handle with the lease {e pinned}
   ([with_lease]): the TTL sweep on the timer thread, or a concurrent
   Snap_close for the same id, may doom the lease mid-request, but the
   underlying snapshot is only closed once the last in-flight request
   unpins — a long scan can never have the horizon advance and prune
   drop entries it is still reading. *)

let b_snap_read b ~snap ~key ~columns =
  match
    Mvcc.Lease.with_lease b.leases snap (fun h ->
        match (h, columns) with
        | Snap_single s, [] -> Kvstore.Store.Snapshot.read s key
        | Snap_single s, cols -> Kvstore.Store.Snapshot.read_columns s key cols
        | Snap_sharded s, [] -> Shard.Router.Snapshot.read s key
        | Snap_sharded s, cols -> Shard.Router.Snapshot.read_columns s key cols)
  with
  | Error e -> snap_err e
  | Ok v -> Protocol.Value v

let b_snap_range b ~snap ~start ~count ~columns =
  match
    Mvcc.Lease.with_lease b.leases snap (fun h ->
        let acc = ref [] in
        let cols = match columns with [] -> None | l -> Some l in
        (match h with
        | Snap_single s ->
            ignore
              (Kvstore.Store.Snapshot.getrange s ~start ?columns:cols ~limit:count
                 (fun k v -> acc := (k, v) :: !acc))
        | Snap_sharded s ->
            ignore
              (Shard.Router.Snapshot.getrange s ~start ?columns:cols ~limit:count
                 (fun k v -> acc := (k, v) :: !acc)));
        List.rev !acc)
  with
  | Error e -> snap_err e
  | Ok items -> Protocol.Range items

let b_snap_close b snap =
  (* The close itself goes through the lease table's [on_expire] — now,
     or at the last unpin if reads are in flight. *)
  match Mvcc.Lease.release b.leases snap with
  | Error e -> snap_err e
  | Ok () -> Protocol.Snap_closed

let execute_op ~worker backend req =
  match req with
  | (Protocol.Put _ | Protocol.Put_cols _ | Protocol.Remove _) when backend.readonly ->
      Protocol.Failed "read-only replica (promote to accept writes)"
  | Protocol.Repl_open | Protocol.Repl_batch _ | Protocol.Repl_ack _
  | Protocol.Repl_status | Protocol.Repl_promote -> (
      match backend.repl_handler with
      | Some h -> h ~worker req
      | None -> Protocol.Failed "replication not enabled")
  | Protocol.Repl_read { key; columns; floor = _ } -> (
      (* Replicas answer through their handler (floor vs. applied clock);
         a primary is trivially fresh — the floor came from its own
         clock — so it serves the read directly. *)
      match backend.repl_handler with
      | Some h -> h ~worker req
      | None ->
          Protocol.Value
            (match columns with
            | [] -> b_get ~worker backend key
            | cols -> b_get_columns ~worker backend key cols))
  | Protocol.Get { key; columns = [] } -> value_packed (b_get_packed ~worker backend key)
  | Protocol.Get { key; columns } ->
      Protocol.Value (b_get_columns ~worker backend key columns)
  | Protocol.Put { key; columns } ->
      b_put ~worker backend key columns;
      Protocol.Ok_put
  | Protocol.Put_cols { key; updates } ->
      b_put_columns ~worker backend key updates;
      Protocol.Ok_put
  | Protocol.Remove key -> Protocol.Removed (b_remove ~worker backend key)
  | Protocol.Getrange { start; count; columns } ->
      let acc = ref [] in
      let cols = match columns with [] -> None | l -> Some l in
      ignore
        (b_getrange backend ~start ?columns:cols ~limit:count (fun k v ->
             acc := (k, v) :: !acc));
      Protocol.Range (List.rev !acc)
  | Protocol.Getrange_rev { start; count; columns } ->
      let acc = ref [] in
      let cols = match columns with [] -> None | l -> Some l in
      let start = if String.equal start "" then None else Some start in
      ignore
        (b_getrange_rev backend ?start ?columns:cols ~limit:count (fun k v ->
             acc := (k, v) :: !acc));
      Protocol.Range (List.rev !acc)
  | Protocol.Stats -> Protocol.Stats_reply (Obs.Registry.snapshot reg)
  | Protocol.Snap_open -> Protocol.Snap_opened (b_snap_open backend)
  | Protocol.Snap_read { snap; key; columns } -> b_snap_read backend ~snap ~key ~columns
  | Protocol.Snap_range { snap; start; count; columns } ->
      b_snap_range backend ~snap ~start ~count ~columns
  | Protocol.Snap_close snap -> b_snap_close backend snap

let execute_op ~worker backend req =
  try execute_op ~worker backend req
  with e -> Protocol.Failed (Printexc.to_string e)

let execute ~worker backend req =
  if not (Obs.Registry.is_enabled reg) then execute_op ~worker backend req
  else begin
    let t0 = Xutil.Clock.now_ns () in
    let resp = execute_op ~worker backend req in
    let dur_us = Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) t0) / 1000 in
    let k = kind_of req in
    Obs.Registry.incr ~worker op_counters.(k);
    Obs.Registry.observe ~worker lat_histos.(k) dur_us;
    (match resp with
    | Protocol.Failed _ -> Obs.Registry.incr ~worker failed_counter
    | _ -> ());
    Obs.Trace.maybe_record (Obs.Registry.trace reg) ~worker ~op:kind_names.(k)
      ~key:(key_of req) ~dur_us;
    resp
  end

(* One software-pipelined group get (§4.8, docs/BATCHING.md) for a
   batch of full-value gets: one interleaved traversal instead of
   independent descents.  The traversal is shared, so telemetry records
   it as one [lat_us.multiget_batch] sample plus one [ops.get] count per
   key. *)
let group_get ~worker backend keys =
  let t0 = Xutil.Clock.now_ns () in
  let results = b_multi_get_packed ~worker backend keys in
  if Obs.Registry.is_enabled reg then begin
    let dur_us = Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) t0) / 1000 in
    Obs.Registry.add ~worker op_counters.(0) (Array.length keys);
    Obs.Registry.observe ~worker multiget_hist dur_us;
    Obs.Trace.maybe_record (Obs.Registry.trace reg) ~worker ~op:"multiget" ~key:keys.(0)
      ~dur_us
  end;
  results

let is_full_get = function Protocol.Get { columns = []; _ } -> true | _ -> false

let get_key = function Protocol.Get { key; _ } -> key | _ -> assert false

(* Batches made entirely of full-value gets take the group-get path. *)
let execute_batch ~worker backend reqs =
  if Obs.Registry.is_enabled reg then Obs.Registry.incr ~worker batches_counter;
  if reqs <> [] && List.for_all is_full_get reqs then
    match group_get ~worker backend (Array.of_list (List.map get_key reqs)) with
    | results -> Array.fold_right (fun r acc -> value_packed r :: acc) results []
    | exception e -> List.map (fun _ -> Protocol.Failed (Printexc.to_string e)) reqs
  else List.map (execute ~worker backend) reqs

let handle_frame ~worker backend body =
  match Protocol.decode_requests body with
  | reqs -> Protocol.encode_responses (execute_batch ~worker backend reqs)
  | exception _ -> Protocol.encode_responses [ Protocol.Failed "malformed frame" ]

(* ---- pipelined multi-frame execution (reactor path) ---- *)

(* A run of consecutive full-value-get frames shares one software-
   pipelined group get (§4.8): the pipelining client sent independent
   lookups, so the whole window traverses the trie together instead of
   frame by frame.  Telemetry parity with [execute_batch]: one
   [ops.batches] per frame, one [lat_us.multiget_batch] sample for the
   shared traversal. *)
let execute_get_run ~worker backend frames emit =
  if Obs.Registry.is_enabled reg then
    Obs.Registry.add ~worker batches_counter (List.length frames);
  let keys = Array.of_list (List.concat_map (List.map get_key) frames) in
  match group_get ~worker backend keys with
  | results ->
      let idx = ref 0 in
      List.iter
        (fun reqs ->
          emit
            (List.map
               (fun _ ->
                 let r = results.(!idx) in
                 incr idx;
                 value_packed r)
               reqs))
        frames
  | exception e ->
      let msg = Printexc.to_string e in
      List.iter (fun reqs -> emit (List.map (fun _ -> Protocol.Failed msg) reqs)) frames

let execute_frames ~worker backend ~buf ~frames ~emit =
  let run = ref [] in
  let flush_run () =
    match !run with
    | [] -> ()
    | fs ->
        execute_get_run ~worker backend (List.rev fs) emit;
        run := []
  in
  List.iter
    (fun (pos, len) ->
      match Protocol.decode_requests_sub buf ~pos ~len with
      | exception _ ->
          flush_run ();
          emit [ Protocol.Failed "malformed frame" ]
      | reqs ->
          if reqs <> [] && List.for_all is_full_get reqs then run := reqs :: !run
          else begin
            flush_run ();
            emit (execute_batch ~worker backend reqs)
          end)
    frames;
  flush_run ()
