(* Whole-stack MYCSB benchmark.

     pb.exe run --workload mycsb-a --seed 1 --seconds 10 --trace 0 [--out DIR]
     pb.exe serve --workload mycsb-a --dir DIR      (started by run)

   [run] generates the seeded request stream, starts the server process
   (set up three times; the median is [setup_s]), then loads it over two
   loopback connections: a closed-loop phase for throughput and an
   open-loop phase at a fixed rate for latency, every response checked.
   With [--trace 1] it runs the served phases once more for the server's
   per-layer counters and then the traced in-process run ([Traced]).  The
   last line of output is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}]. *)

let mkdir_p = Shard.Bootstrap.mkdir_p

let rm_rf = Shard.Bootstrap.rm_rf

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of unsorted ns samples, in µs. *)
let pct_us samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else float_of_int a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))) /. 1e3

(* A slice or window during which the hypervisor stole more than this
   share of the host's CPU measures the host, not the program.  Figures
   are medians over the calm ones; with fewer than three calm, over the
   three calmest. *)
let calm_pct = 2.0

let calm values =
  let ok = List.filter (fun (_, st) -> st < calm_pct) values in
  if List.length ok >= 3 then List.map fst ok
  else
    List.map fst
      (List.filteri (fun i _ -> i < 3) (List.stable_sort (fun (_, a) (_, b) -> compare a b) values))

(* Mean steal over seconds [lo, hi) of a phase (0 where unmeasured). *)
let steal_over steal lo hi =
  let n = max 0 (min hi (Array.length steal) - lo) in
  if n = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 (Array.sub steal lo n) /. float_of_int n

(* The open loop cut into windows of [window_ns] by due time: each
   window's percentile [q] with the window's host steal.  A window counts
   if it holds at least [min_samples] (the schedule puts 1000 or more in
   each, so a window's p99 has ten beyond it; the last one may be cut
   short). *)
let windows latencies dues ~window_ns ~min_samples ~steal q =
  let nw = 1 + (Array.fold_left max 0 dues / window_ns) in
  let buckets = Array.make nw [] in
  Array.iteri (fun i d -> buckets.(d / window_ns) <- latencies.(i) :: buckets.(d / window_ns)) dues;
  let secs = window_ns / 1_000_000_000 in
  List.concat
    (List.mapi
       (fun k l ->
         if List.length l >= min_samples then
           [ (pct_us (Array.of_list l) q, steal_over steal (k * secs) ((k + 1) * secs)) ]
         else [])
       (Array.to_list buckets))

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       ms)

type served = {
  setups : int list;  (** ns, spawn to both connections open *)
  poller : string;
  closed_ops : int;
  closed_ns : int;
  slices : int array;  (** checked ops completed in each second of the closed loop *)
  slice_steal : float array;  (** host steal % in each of those seconds *)
  latencies : int array;
  dues : int array;
  open_steal : float array;  (** host steal % in each second of the open loop *)
  lags : int array;
  attempted : int;
  failed : int;
  cross_ok : bool;
  rss_kb : int;
  server_cpu_ns : int;
  client_cpu_ns : int;
  steal_pct : float;  (** host CPU time stolen by the hypervisor over the closed loop *)
  before : Obs.Snapshot.t;  (** server telemetry around the closed loop *)
  after : Obs.Snapshot.t;
}

let serve_phases (w : Spec.t) ~seconds ~setups ~out ~stream =
  let exe = Sys.executable_name in
  let frames c = stream.Spec.conns.(c) in
  let times = ref [] in
  let rec setup i =
    let dir = Filename.concat out (Printf.sprintf "srv-%d-%d" (Unix.getpid ()) i) in
    mkdir_p dir;
    let t0 = Clock.now () in
    let srv = Client.spawn ~exe ~w ~dir in
    let conns = List.init 2 (fun c -> Client.connect ~port:srv.Client.port (frames c)) in
    times := (Clock.now () - t0) :: !times;
    if i < setups then begin
      List.iter Client.close conns;
      Client.stop srv;
      rm_rf dir;
      setup (i + 1)
    end
    else (srv, conns, dir)
  in
  let srv, conns, dir = setup 1 in
  Fun.protect
    ~finally:(fun () ->
      List.iter Client.close conns;
      Client.stop srv;
      rm_rf dir)
    (fun () ->
      let total = { Client.ops = 0; failed = 0 } in
      let phase_ns = int_of_float (seconds *. 1e9 /. 2.0) in
      (* Warm-up: caches fill and lazy set-up finishes before timing. *)
      ignore (Client.closed_loop conns total ~window:w.window ~ns:1_000_000_000);
      let c0 = List.hd conns in
      let pid = srv.Client.pid in
      let s_a = Client.stats c0 in
      let cpu_a = Client.cpu_ns pid and self_a = Client.self_cpu_ns () in
      let host_a = Client.host_ticks () in
      let closed = { Client.ops = 0; failed = 0 } in
      let closed_ns, slices, slice_steal =
        Client.closed_loop conns closed ~window:w.window ~ns:phase_ns
      in
      let cpu_b = Client.cpu_ns pid and self_b = Client.self_cpu_ns () in
      let host_b = Client.host_ticks () in
      let s_b = Client.stats c0 in
      let opened = { Client.ops = 0; failed = 0 } in
      let o = Client.open_loop conns opened ~rate:w.rate ~ns:phase_ns in
      let s_c = Client.stats c0 in
      let rss_kb = Client.vm_hwm_kb pid in
      let cross name s0 s1 (t : Client.tally) =
        let server = Client.server_ops s1 - Client.server_ops s0 in
        Printf.printf "cross-check %s: server ops.* %d, client completed %d\n" name server t.ops;
        server = t.ops
      in
      let cross_ok = cross "closed" s_a s_b closed && cross "open" s_b s_c opened in
      {
        setups = List.rev !times;
        poller = srv.Client.poller;
        closed_ops = closed.ops - closed.failed;
        closed_ns;
        slices;
        slice_steal;
        open_steal = o.Client.steal;
        latencies = o.Client.latencies;
        dues = o.Client.dues;
        lags = o.Client.lags;
        attempted = total.ops + closed.ops + opened.ops;
        failed = total.failed + closed.failed + opened.failed;
        cross_ok;
        rss_kb;
        server_cpu_ns = cpu_b - cpu_a;
        client_cpu_ns = self_b - self_a;
        steal_pct =
          100.0 *. float_of_int (fst host_b - fst host_a)
          /. float_of_int (max 1 (snd host_b - snd host_a));
        before = s_a;
        after = s_b;
      })

(* Server telemetry over the closed loop, for the record. *)
let print_server_counters (r : served) =
  let ops = float_of_int (max 1 r.closed_ops) in
  Printf.printf "closed loop: server CPU %.0f ns/op, client CPU %.0f ns/op, host steal %.1f%%\n"
    (float_of_int r.server_cpu_ns /. ops) (float_of_int r.client_cpu_ns /. ops) r.steal_pct;
  let d name = Client.counter r.after name - Client.counter r.before name in
  let g name = Client.gauge r.after name - Client.gauge r.before name in
  Printf.printf "server (closed loop): net.frames %d net.flushes %d net.bytes_in %d net.bytes_out %d\n"
    (d "net.frames") (d "net.flushes") (d "net.bytes_in") (d "net.bytes_out");
  Printf.printf "server (closed loop): ops.get %d ops.put_cols %d ops.failed %d ops.batches %d\n"
    (d "ops.get") (d "ops.put_cols") (d "ops.failed") (d "ops.batches");
  Printf.printf "server (closed loop): masstree.root_retries %d local_retries %d pipeline_restarts %d\n"
    (g "masstree.root_retries") (g "masstree.local_retries") (g "masstree.pipeline_restarts");
  Printf.printf "server (closed loop): gc.minor_collections %d gc.major_collections %d\n"
    (g "gc.minor_collections") (g "gc.major_collections");
  List.iter
    (fun name ->
      let h0 = Client.hist r.before name and h1 = Client.hist r.after name in
      Printf.printf "server: %s samples %d in phase (%d total; p50 %d us, p99 %d us since start)\n"
        name (h1.count - h0.count) h1.count h1.p50 h1.p99)
    [ "log.fsync_us"; "log.commit_lag_us" ]

let served_layer_metrics (r : served) ~codec_ns_per_op =
  let ops = float_of_int (max 1 r.closed_ops) in
  let d name = float_of_int (Client.counter r.after name - Client.counter r.before name) in
  let g name = float_of_int (Client.gauge r.after name - Client.gauge r.before name) in
  let wake0 = Client.hist r.before "net.frames_per_wakeup"
  and wake1 = Client.hist r.after "net.frames_per_wakeup" in
  let server_cpu = float_of_int r.server_cpu_ns /. ops in
  [
    ("server.cpu_ns_per_op", server_cpu, "ns");
    ("reactor.self_ns_per_op", server_cpu -. codec_ns_per_op, "ns");
    ( "net.frames_per_wakeup",
      float_of_int (wake1.sum - wake0.sum) /. float_of_int (max 1 (wake1.count - wake0.count)),
      "frames" );
    ("net.flushes_per_frame", d "net.flushes" /. Float.max 1.0 (d "net.frames"), "flushes");
    ("net.bytes_out_per_op", d "net.bytes_out" /. ops, "B");
    ( "tree.retries_per_kop",
      1000.0 *. (g "masstree.root_retries" +. g "masstree.local_retries") /. ops,
      "count" );
    ("tree.pipeline_restarts_per_kop", 1000.0 *. g "masstree.pipeline_restarts" /. ops, "count");
    ( "gc.major_collections_per_s",
      g "gc.major_collections" /. (float_of_int r.closed_ns /. 1e9),
      "1/s" );
    ("client.cpu_ns_per_op", float_of_int r.client_cpu_ns /. ops, "ns");
    ("client.send_lag_p99_us", pct_us r.lags 0.99, "us");
  ]

let run (w : Spec.t) ~seed ~seconds ~trace ~out =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p out;
  let zero_share, step = Clock.step () in
  Printf.printf "clock: Monotonic_clock step %d ns; %.1f%% of back-to-back readings equal\n" step
    (100.0 *. zero_share);
  let t0 = Clock.now () in
  let stream = Spec.generate w ~seed ~nconns:2 in
  Printf.printf
    "workload %s: %d keys, %d shard(s), logs %s, %d request(s)/frame, window %d, open-loop %d frames/s\n"
    w.name w.records w.shards
    (if w.logs then "on (200 ms group commit)" else "off")
    w.per_frame w.window w.rate;
  Printf.printf "request stream: seed %d, 2 x %d frames, crc32c %08lx, generated in %.2f s\n%!" seed
    w.ring (Spec.checksum stream)
    (float_of_int (Clock.now () - t0) /. 1e9);
  let r = serve_phases w ~seconds ~setups:(if trace then 1 else 3) ~out ~stream in
  let fail_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  let setup_s = median (List.map (fun t -> float_of_int t /. 1e9) r.setups) in
  let slices =
    List.mapi
      (fun i n -> (float_of_int n, steal_over r.slice_steal i (i + 1)))
      (Array.to_list r.slices)
  in
  let ops_per_s = median (calm slices) in
  let nlat = Array.length r.latencies in
  let window_ns = Spec.window_ns w in
  let min_samples = w.rate * (window_ns / 1_000_000_000) / 2 in
  let tails =
    List.map
      (fun (name, q) ->
        (name, q, windows r.latencies r.dues ~window_ns ~min_samples ~steal:r.open_steal q))
      [ ("p50_us", 0.5); ("p90_us", 0.9); ("p99_us", 0.99) ]
  in
  let tail name = List.find_map (fun (n, _, per) -> if n = name then Some (median (calm per)) else None) tails in
  let p50 = Option.get (tail "p50_us") and p90 = Option.get (tail "p90_us") in
  let show l = String.concat " " (List.map (fun (v, st) -> Printf.sprintf "%.0f(%.1f%%)" v st) l) in
  Printf.printf "poller %s, loopback TCP, 2 connections, 1 client thread\n" r.poller;
  Printf.printf "setup_s samples: %s\n"
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.3f" (float_of_int t /. 1e9)) r.setups));
  Printf.printf
    "ops_per_s %.1f 1/s (closed loop: median of %d of %d 1-s slices with host steal < %.0f%%; %d \
     ops in %.2f s overall)\n"
    ops_per_s (List.length (calm slices)) (List.length slices) calm_pct r.closed_ops
    (float_of_int r.closed_ns /. 1e9);
  Printf.printf "closed-loop slices, ops/s (host steal): %s\n" (show slices);
  List.iter
    (fun (name, q, per) ->
      Printf.printf
        "%s %.1f us (n=%d; median of %d of %d %.0f-s windows with host steal < %.0f%%; overall %.1f \
         us); windows: %s\n"
        name (median (calm per)) nlat (List.length (calm per)) (List.length per)
        (float_of_int window_ns /. 1e9)
        calm_pct (pct_us r.latencies q) (show per))
    tails;
  Printf.printf "setup_s %.3f s (median of %d)\n" setup_s (List.length r.setups);
  Printf.printf "server_rss_mb %.1f MB\n" (float_of_int r.rss_kb /. 1024.0);
  Printf.printf "fail_frac %g (%d of %d)\n" fail_frac r.failed r.attempted;
  print_server_counters r;
  let metrics =
    if not trace then
      [
        ("ops_per_s", ops_per_s, "1/s");
        ("p50_us", p50, "us");
        ("p90_us", p90, "us");
        ("setup_s", setup_s, "s");
        ("server_rss_mb", float_of_int r.rss_kb /. 1024.0, "MB");
      ]
    else begin
      let dir = Filename.concat out (Printf.sprintf "traced-%d" (Unix.getpid ())) in
      mkdir_p dir;
      let spans_path = Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" w.name seed) in
      let tr =
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () -> Traced.run w ~seed ~stream ~seconds ~dir ~spans_path)
      in
      Printf.printf "traced run: %d spans written to %s (%d dropped)\n" tr.Traced.spans_written
        spans_path tr.Traced.dropped;
      served_layer_metrics r ~codec_ns_per_op:tr.Traced.codec_ns_per_op @ tr.Traced.metrics
    end
  in
  if trace then List.iter (fun (n, v, u) -> Printf.printf "  %s %.4g %s\n" n v u) metrics;
  let correct = r.failed = 0 && r.cross_ok && nlat > 0 && r.closed_ops > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 r.attempted) r.failed (json_metrics metrics)

let usage () =
  prerr_endline
    "usage: pb.exe run --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       pb.exe serve --workload W --dir DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | cmd :: rest -> (
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let w =
        match Spec.find (get "workload") with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %s (known: %s)\n" (get "workload")
              (String.concat ", " (List.map (fun (w : Spec.t) -> w.name) Spec.all));
            exit 2
      in
      match cmd with
      | "serve" -> Server.run w ~dir:(get "dir")
      | "run" ->
          run w ~seed:(int_of_string (get "seed")) ~seconds:(float_of_string (get "seconds"))
            ~trace:(get "trace" = "1")
            ~out:(Option.value ~default:"perfbench-out" (List.assoc_opt "out" o))
      | _ -> usage ())
  | [] -> usage ()
