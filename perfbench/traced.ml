(* The traced in-process run: no sockets, the same seed and frames as the
   served run, and spans recorded only here, around public calls.

   1. Framed pass.  Per frame, one [frame] span over [protocol.decode]
      ([Protocol.decode_requests_sub]), [engine.execute]
      ([Engine.execute_batch]) and [protocol.encode]
      ([Protocol.encode_responses_into]).  The same frames also run
      untraced; the time difference is the tracing overhead.
   2. Peel passes on the same frames, one layer down each: [Shard.Router]
      calls (a 1-shard router over the single store on [mycsb-a]), the
      owning shards' [Kvstore.Store] calls, and bare
      [Masstree_core.Tree]s loaded with the same keys.  Each layer's self
      time is its per-op time minus the layer below on the same ops.
      Passes 1 and 2 run three rounds and keep each figure's fastest
      round, so a burst of host noise in one pass does not leak into a
      difference.
   3. Per-kind passes on the workload's key distribution: single-key
      get, one-column put and one-column scan on a store and on a bare
      tree, the tree's pipelined group get at batch 32, and
      [Store.put_columns] with a [Persist.Logger] minus without.  They
      give every kind a figure even where the mix has none of it.

   GC words and logger counts are read at the same boundaries.  Spans
   stay in memory and are written out at the end. *)

open Kvserver
module Tree = Masstree_core.Tree

(* ---- span buffer ---- *)

let span_names =
  [| "frame"; "protocol.decode"; "engine.execute"; "protocol.encode"; "router"; "store"; "tree" |]

let cap = 1 lsl 18

type spans = {
  name : int array;
  parent : int array;
  start : int array;
  stop : int array;
  mutable n : int;
  mutable dropped : int;
}

let spans () =
  {
    name = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

(* Record a span and return its id (-1 once the buffer is full). *)
let span s ~name ~parent t0 t1 =
  if s.n >= cap then begin
    s.dropped <- s.dropped + 1;
    -1
  end
  else begin
    let i = s.n in
    s.name.(i) <- name;
    s.parent.(i) <- parent;
    s.start.(i) <- t0;
    s.stop.(i) <- t1;
    s.n <- i + 1;
    i
  end

let write_spans s path ~origin =
  let oc = open_out path in
  output_string oc "id\tname\tparent\tstart_ns\tend_ns\n";
  for i = 0 to s.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i span_names.(s.name.(i)) s.parent.(i)
      (s.start.(i) - origin) (s.stop.(i) - origin)
  done;
  close_out oc

(* ---- helpers ---- *)

let words () = Gc.minor_words ()

let is_full_get = function Protocol.Get { columns = []; _ } -> true | _ -> false

let full_get_keys (f : Spec.frame) =
  if Array.length f.reqs > 0 && Array.for_all is_full_get f.reqs then
    Some (Array.map (function Protocol.Get { key; _ } -> key | _ -> "") f.reqs)
  else None

(* [keys] split by owning shard, request order kept within a shard. *)
let by_shard ~shards ~owner keys =
  let b = Array.make shards [] in
  for i = Array.length keys - 1 downto 0 do
    let s = owner keys.(i) in
    b.(s) <- keys.(i) :: b.(s)
  done;
  Array.map Array.of_list b

let ops_of frames n =
  let ops = ref 0 in
  for i = 0 to n - 1 do
    ops := !ops + Array.length frames.(i mod Array.length frames).Spec.reqs
  done;
  !ops

type result = {
  metrics : (string * float * string) list;
  spans_written : int;
  dropped : int;
  codec_ns_per_op : float;  (** decode + execute + encode per op *)
}

let run (w : Spec.t) ~seed ~(stream : Spec.stream) ~seconds ~dir ~spans_path =
  let b = Backend.create w ~dir in
  let shards = Array.length b.Backend.stores in
  let owner = Backend.owner b in
  let router =
    match b.Backend.router with Some r -> r | None -> Shard.Router.create b.Backend.stores
  in
  (* Bare trees, one per shard, holding the same keys. *)
  let trees = Array.init shards (fun _ -> Tree.create ()) in
  Array.iteri (fun i k -> ignore (Tree.put trees.(owner k) k i)) stream.Spec.keys;
  Gc.compact ();
  let frames =
    let c0 = stream.Spec.conns.(0) and c1 = stream.Spec.conns.(1) in
    Array.init (Array.length c0 + Array.length c1) (fun i ->
        if i land 1 = 0 then c0.(i / 2) else c1.(i / 2))
  in
  let nf = Array.length frames in
  let budget = int_of_float (seconds *. 1e9) in
  let s = spans () in
  let origin = Clock.now () in
  let writer = Xutil.Binio.writer ~capacity:65536 () in
  (* Untraced framed pass, time-bounded; it fixes the frame count [n]
     every later pass runs. *)
  let framed_untraced ~ns ~limit =
    let t0 = Clock.now () in
    let stop = if ns = max_int then max_int else t0 + ns in
    let i = ref 0 in
    while !i < limit && Clock.now () < stop do
      let f = frames.(!i mod nf) in
      Xutil.Binio.reset writer;
      let reqs = Protocol.decode_requests_sub f.body ~pos:0 ~len:(String.length f.body) in
      Protocol.encode_responses_into writer (Engine.execute_batch ~worker:0 b.Backend.engine reqs);
      incr i
    done;
    (!i, Clock.now () - t0)
  in
  ignore (framed_untraced ~ns:(budget / 20) ~limit:max_int);
  let n, _ = framed_untraced ~ns:(budget / 20) ~limit:max_int in
  let ops = ops_of frames n in
  let fops = float_of_int ops in
  (* Traced framed pass over the same [n] frames: per-layer ns, and
     minor-heap words allocated by decode + encode and by the frame. *)
  let framed_traced () =
    let dec = ref 0 and exe = ref 0 and enc = ref 0 in
    let codec_words = ref 0.0 in
    let w_start = words () in
    let t_start = Clock.now () in
    for i = 0 to n - 1 do
      let f = frames.(i mod nf) in
      Xutil.Binio.reset writer;
      let t0 = Clock.now () in
      let wd0 = words () in
      let reqs = Protocol.decode_requests_sub f.body ~pos:0 ~len:(String.length f.body) in
      let t1 = Clock.now () in
      let wd1 = words () in
      let resps = Engine.execute_batch ~worker:0 b.Backend.engine reqs in
      let t2 = Clock.now () in
      let wd2 = words () in
      Protocol.encode_responses_into writer resps;
      let t3 = Clock.now () in
      codec_words := !codec_words +. (wd1 -. wd0) +. (words () -. wd2);
      dec := !dec + (t1 - t0);
      exe := !exe + (t2 - t1);
      enc := !enc + (t3 - t2);
      let fr = span s ~name:0 ~parent:(-1) t0 t3 in
      ignore (span s ~name:1 ~parent:fr t0 t1);
      ignore (span s ~name:2 ~parent:fr t1 t2);
      ignore (span s ~name:3 ~parent:fr t2 t3)
    done;
    (Clock.now () - t_start, !dec, !exe, !enc, !codec_words, words () -. w_start)
  in
  (* Peel passes on the same frames, one span per frame. *)
  let peel name f =
    let total = ref 0 in
    for i = 0 to n - 1 do
      let t0 = Clock.now () in
      f frames.(i mod nf);
      let t1 = Clock.now () in
      total := !total + (t1 - t0);
      ignore (span s ~name ~parent:(-1) t0 t1)
    done;
    !total
  in
  let router_op (f : Spec.frame) =
    match full_get_keys f with
    | Some keys -> ignore (Shard.Router.multi_get ~worker:0 router keys)
    | None ->
        Array.iter
          (function
            | Protocol.Get { key; _ } -> ignore (Shard.Router.get ~worker:0 router key)
            | Protocol.Put_cols { key; updates } ->
                Shard.Router.put_columns ~worker:0 router key updates
            | _ -> ())
          f.reqs
  in
  let store_op (f : Spec.frame) =
    match full_get_keys f with
    | Some keys ->
        Array.iteri
          (fun sh ks ->
            if Array.length ks > 0 then ignore (Kvstore.Store.multi_get b.Backend.stores.(sh) ks))
          (by_shard ~shards ~owner keys)
    | None ->
        Array.iter
          (function
            | Protocol.Get { key; _ } -> ignore (Kvstore.Store.get b.Backend.stores.(owner key) key)
            | Protocol.Put_cols { key; updates } ->
                Kvstore.Store.put_columns ~worker:0 b.Backend.stores.(owner key) key updates
            | _ -> ())
          f.reqs
  in
  let tree_op (f : Spec.frame) =
    match full_get_keys f with
    | Some keys ->
        Array.iteri
          (fun sh ks ->
            if Array.length ks > 0 then ignore (Tree.multi_get_pipelined trees.(sh) ks))
          (by_shard ~shards ~owner keys)
    | None ->
        Array.iter
          (function
            | Protocol.Get { key; _ } -> ignore (Tree.get trees.(owner key) key)
            | Protocol.Put_cols { key; _ } -> ignore (Tree.put trees.(owner key) key 0)
            | _ -> ())
          f.reqs
  in
  let untraced_ns = ref max_int and traced_ns = ref max_int in
  let dec_ns = ref max_int and exe_ns = ref max_int and enc_ns = ref max_int in
  let router_ns = ref max_int and store_ns = ref max_int and tree_ns = ref max_int in
  let codec_words = ref 0.0 and framed_words = ref 0.0 and store_words = ref 0.0 in
  let keep r v = if v < !r then r := v in
  for _ = 1 to 3 do
    keep untraced_ns (snd (framed_untraced ~ns:max_int ~limit:n));
    let total, dec, exe, enc, cw, fw = framed_traced () in
    keep traced_ns total;
    keep dec_ns dec;
    keep exe_ns exe;
    keep enc_ns enc;
    codec_words := cw;
    framed_words := fw;
    keep router_ns (peel 4 router_op);
    let w0 = words () in
    keep store_ns (peel 5 store_op);
    store_words := words () -. w0;
    keep tree_ns (peel 6 tree_op)
  done;
  let untraced_ns = !untraced_ns and traced_ns = !traced_ns in
  let router_ns = !router_ns and store_ns = !store_ns and tree_ns = !tree_ns in
  let codec_words = !codec_words and framed_words = !framed_words and store_words = !store_words in
  let backend_ns = if b.Backend.router = None then store_ns else router_ns in
  (* Per-kind passes on the workload's key distribution. *)
  let kinds = 20_000 in
  let rng = Xutil.Rng.create (Int64.of_int ((seed * 31) + 7)) in
  let zipf = Workload.Zipf.create ~theta:0.99 ~n:w.records () in
  let draw () =
    stream.Spec.keys.(match w.mix with
                      | Spec.C_batch -> Xutil.Rng.int rng w.records
                      | Spec.A -> Workload.Zipf.scramble zipf rng)
  in
  let gkeys = Array.init kinds (fun _ -> draw ()) in
  let puts =
    Array.init kinds (fun _ ->
        let k = draw () and c = Xutil.Rng.int rng Spec.columns in
        (k, [ (c, Spec.cell k c 1) ]))
  in
  let scans = Array.init (kinds / 10) (fun _ -> (draw (), 1 + Xutil.Rng.int rng 100, Xutil.Rng.int rng Spec.columns)) in
  (* Fastest of three runs of [f]. *)
  let time f =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = Clock.now () in
      f ();
      keep best (Clock.now () - t0)
    done;
    float_of_int !best
  in
  let per_key ns k = ns /. float_of_int (max 1 k) in
  let store_get =
    per_key (time (fun () -> Array.iter (fun k -> ignore (Kvstore.Store.get b.Backend.stores.(owner k) k)) gkeys)) kinds
  in
  let tree_get = per_key (time (fun () -> Array.iter (fun k -> ignore (Tree.get trees.(owner k) k)) gkeys)) kinds in
  let tree_mget =
    let groups = by_shard ~shards ~owner gkeys in
    per_key
      (time (fun () ->
           Array.iteri
             (fun sh ks ->
               let len = Array.length ks in
               let i = ref 0 in
               while !i + 32 <= len do
                 ignore (Tree.multi_get_pipelined trees.(sh) (Array.sub ks !i 32));
                 i := !i + 32
               done)
             groups))
      (Array.fold_left (fun a ks -> a + (Array.length ks / 32 * 32)) 0 groups)
  in
  let store_put =
    per_key
      (time (fun () ->
           Array.iter
             (fun (k, u) -> Kvstore.Store.put_columns ~worker:0 b.Backend.stores.(owner k) k u)
             puts))
      kinds
  in
  let scan_records f =
    let records = ref 0 in
    let ns =
      time (fun () ->
          records := 0;
          Array.iter (fun sc -> records := !records + f sc) scans)
    in
    per_key ns (max 1 !records)
  in
  let store_scan =
    scan_records (fun (start, count, c) ->
        Kvstore.Store.getrange b.Backend.stores.(owner start) ~start ~columns:[ c ] ~limit:count
          (fun _ _ -> ()))
  in
  let tree_scan =
    scan_records (fun (start, count, _) -> Tree.scan trees.(owner start) ~start ~limit:count (fun _ _ -> ()))
  in
  (* Logger: the same one-column puts on two stores holding the same
     keys, one logging through a Persist.Logger with the default 200 ms
     group commit, one not. *)
  let log = Persist.Logger.create (Filename.concat dir "peel-log") in
  let logged = Kvstore.Store.create ~logs:[| log |] () in
  let bare = Kvstore.Store.create () in
  Array.iter
    (fun (k, _) ->
      let v = Spec.value k in
      Kvstore.Store.put ~worker:0 logged k v;
      Kvstore.Store.put ~worker:0 bare k v)
    puts;
  Persist.Logger.sync log;
  let bytes0 = Persist.Logger.synced_bytes log in
  let put_all st = time (fun () -> Array.iter (fun (k, u) -> Kvstore.Store.put_columns ~worker:0 st k u) puts) in
  let bare_ns = put_all bare in
  let logged_ns = put_all logged in
  Persist.Logger.sync log;
  let log_bytes = Persist.Logger.synced_bytes log - bytes0 in
  Kvstore.Store.close logged;
  let snap = Obs.Registry.snapshot Obs.Registry.global in
  let hist name = Client.hist snap name in
  (* A 4-shard hash tier's load split of the frame stream. *)
  let tier = Shard.Router.create (Array.init 4 (fun _ -> Kvstore.Store.create ())) in
  let loads = Array.make 4 0 in
  for i = 0 to n - 1 do
    Array.iter
      (function
        | Protocol.Get { key; _ } | Protocol.Put_cols { key; _ } ->
            let sh = Shard.Router.shard_of tier key in
            loads.(sh) <- loads.(sh) + 1
        | _ -> ())
      frames.(i mod nf).Spec.reqs
  done;
  write_spans s spans_path ~origin;
  Backend.close b;
  let per_op ns = float_of_int ns /. fops in
  {
    metrics =
      [
        ("protocol.decode_ns_per_op", per_op !dec_ns, "ns");
        ("protocol.encode_ns_per_op", per_op !enc_ns, "ns");
        ("protocol.alloc_words_per_op", codec_words /. fops, "words");
        ("engine.execute_ns_per_op", per_op !exe_ns, "ns");
        ("engine.self_ns_per_op", per_op (!exe_ns - backend_ns), "ns");
        ("router.ns_per_op", per_op router_ns, "ns");
        ("router.self_ns_per_op", per_op (router_ns - store_ns), "ns");
        ("router.shard_imbalance_pct", Shard.Router.imbalance_pct loads, "%");
        ("store.get_ns", store_get, "ns");
        ("store.put_ns", store_put, "ns");
        ("store.scan_ns_per_record", store_scan, "ns");
        ("store.self_ns_per_op", per_op (store_ns - tree_ns), "ns");
        ("store.alloc_words_per_op", store_words /. fops, "words");
        ("tree.multi_get_ns_per_key", tree_mget, "ns");
        ("tree.get_ns", tree_get, "ns");
        ("tree.scan_ns_per_record", tree_scan, "ns");
        ("logger.append_ns", (logged_ns -. bare_ns) /. float_of_int kinds, "ns");
        ("logger.bytes_per_put", float_of_int log_bytes /. float_of_int (3 * kinds), "B");
        ("log.fsync_p50_us", float_of_int (hist "log.fsync_us").p50, "us");
        ("log.commit_lag_p50_us", float_of_int (hist "log.commit_lag_us").p50, "us");
        ("gc.minor_words_per_op", framed_words /. fops, "words");
        ( "trace.overhead_pct",
          100.0 *. float_of_int (traced_ns - untraced_ns) /. float_of_int untraced_ns,
          "%" );
      ];
    spans_written = s.n;
    dropped = s.dropped;
    codec_ns_per_op = per_op (!dec_ns + !exe_ns + !enc_ns);
  }
