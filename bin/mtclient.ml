(* mtclient: command-line client and load generator for mtd.

     mtclient --connect 127.0.0.1:7171 put mykey v0 v1 v2
     mtclient --connect 127.0.0.1:7171 get mykey
     mtclient --unix /tmp/mtd.sock scan user: 10
     mtclient --connect 127.0.0.1:7171 bench --ops 100000 --mix get
*)

open Cmdliner

let addr_of unix_sock connect =
  match (unix_sock, connect) with
  | Some path, _ -> Kvserver.Tcp.Unix_sock path
  | None, hostport -> (
      match String.index_opt hostport ':' with
      | Some i ->
          Kvserver.Tcp.Tcp
            ( String.sub hostport 0 i,
              int_of_string (String.sub hostport (i + 1) (String.length hostport - i - 1)) )
      | None -> Kvserver.Tcp.Tcp (hostport, 7171))

let pp_response = function
  | Kvserver.Protocol.Value None -> print_endline "(not found)"
  | Kvserver.Protocol.Value (Some cols) ->
      print_endline (String.concat "\t" (Array.to_list cols))
  | Kvserver.Protocol.Value_packed p ->
      print_endline (String.concat "\t" (Array.to_list (Kvstore.Packed.unpack p)))
  | Kvserver.Protocol.Ok_put -> print_endline "ok"
  | Kvserver.Protocol.Removed b -> print_endline (if b then "removed" else "(not found)")
  | Kvserver.Protocol.Range items ->
      List.iter
        (fun (k, cols) -> Printf.printf "%s\t%s\n" k (String.concat "\t" (Array.to_list cols)))
        items;
      Printf.printf "(%d keys)\n" (List.length items)
  | Kvserver.Protocol.Failed m -> Printf.printf "error: %s\n" m
  | Kvserver.Protocol.Stats_reply snap ->
      Format.printf "%a@." Obs.Snapshot.pp snap
  | Kvserver.Protocol.Snap_opened id -> Printf.printf "snapshot %Ld\n" id
  | Kvserver.Protocol.Snap_closed -> print_endline "closed"
  | Kvserver.Protocol.Snap_failed e ->
      Printf.printf "error: %s\n" (Kvserver.Protocol.snap_error_to_string e)
  | Kvserver.Protocol.Repl_opened { session; versions } ->
      Printf.printf "session %Ld at %s\n" session
        (String.concat ","
           (Array.to_list (Array.map Int64.to_string versions)))
  | Kvserver.Protocol.Repl_records { frames; done_; _ } ->
      Printf.printf "%d frame(s)%s\n" (List.length frames)
        (if done_ then " (done)" else "")
  | Kvserver.Protocol.Repl_acked -> print_endline "acked"
  | Kvserver.Protocol.Repl_promoted { versions } ->
      Printf.printf "promoted at %s\n"
        (String.concat ","
           (Array.to_list (Array.map Int64.to_string versions)))
  | Kvserver.Protocol.Repl_stale { applied } ->
      Printf.printf "stale: applied version %Ld below requested floor\n" applied
  | Kvserver.Protocol.Repl_status_reply st ->
      let open Kvserver.Protocol in
      Printf.printf "role:     %s\n" st.repl_role;
      Printf.printf "applied:  %s\n"
        (String.concat ","
           (Array.to_list (Array.map Int64.to_string st.repl_applied)));
      Printf.printf "horizon:  %s  (shipped log records per log)\n"
        (String.concat "," (Array.to_list (Array.map string_of_int st.repl_horizon)));
      Printf.printf "retained: %d tail bytes\n" st.repl_retained;
      if st.repl_peers = [] then print_endline "peers:    (none)"
      else
        List.iter
          (fun p ->
            Printf.printf "peer %Ld: lag %d record(s), applied %s\n" p.peer_session
              p.peer_lag
              (String.concat ","
                 (Array.to_list (Array.map Int64.to_string p.peer_applied))))
          st.repl_peers

let make_req keygen rng mix =
  match mix with
  | "get" -> Kvserver.Protocol.Get { key = keygen rng; columns = [] }
  | "put" -> Kvserver.Protocol.Put { key = keygen rng; columns = [| "12345678" |] }
  | "scan" -> Kvserver.Protocol.Getrange { start = keygen rng; count = 10; columns = [] }
  | _ -> failwith "mix must be get | put | scan"

(* One connection's worth of load; returns its latency histogram.  With
   [pipeline > 1], keeps that many request frames in flight (the paper's
   served-traffic mode: batching amortizes per-message cost, pipelining
   hides the round trip); latency is then recorded per frame as
   window-time / window-depth. *)
let client_worker addr keygen mix batch pipeline per_client seed =
  let client = Kvserver.Tcp.connect addr in
  let rng = Xutil.Rng.create seed in
  let remaining = ref per_client in
  let lat = Xutil.Histogram.create () in
  while !remaining > 0 do
    if pipeline <= 1 then begin
      let n = min batch !remaining in
      let reqs = List.init n (fun _ -> make_req keygen rng mix) in
      let s = Xutil.Clock.now_ns () in
      ignore (Kvserver.Tcp.call client reqs);
      Xutil.Histogram.add lat (Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) s) / 1000);
      remaining := !remaining - n
    end
    else begin
      let frames = ref [] in
      let n = ref 0 in
      while !n < !remaining && List.length !frames < pipeline do
        let b = min batch (!remaining - !n) in
        frames := List.init b (fun _ -> make_req keygen rng mix) :: !frames;
        n := !n + b
      done;
      let frames = List.rev !frames in
      let s = Xutil.Clock.now_ns () in
      ignore (Kvserver.Tcp.call_pipelined ~window:pipeline client frames);
      let us = Int64.to_int (Int64.sub (Xutil.Clock.now_ns ()) s) / 1000 in
      List.iter (fun _ -> Xutil.Histogram.add lat (us / List.length frames)) frames;
      remaining := !remaining - !n
    end
  done;
  Kvserver.Tcp.disconnect client;
  lat

let run_bench addr client ops mix batch pipeline clients =
  let keygen = Workload.Keygen.decimal_1_10 ~range:1_000_000 in
  (* Preload for get/scan mixes over the control connection. *)
  if mix <> "put" then begin
    let rng = Xutil.Rng.create 99L in
    let batch_load = 512 in
    let loaded = ref 0 in
    while !loaded < 100_000 do
      let reqs =
        List.init batch_load (fun _ ->
            Kvserver.Protocol.Put { key = keygen rng; columns = [| "12345678" |] })
      in
      ignore (Kvserver.Tcp.call client reqs);
      loaded := !loaded + batch_load
    done
  end;
  let per_client = max 1 (ops / clients) in
  let t0 = Xutil.Clock.now_ns () in
  let results = Array.init clients (fun _ -> Xutil.Histogram.create ()) in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              client_worker addr keygen mix batch pipeline per_client
                (Int64.of_int (100 + i)))
          ())
  in
  List.iter Thread.join threads;
  let lat = Xutil.Histogram.create () in
  Array.iter (fun h -> Xutil.Histogram.merge_into ~dst:lat h) results;
  let dt = Xutil.Clock.elapsed_s t0 in
  let total = per_client * clients in
  Printf.printf
    "%d %s ops over %d client(s) in %.2fs: %.0f ops/s (batch=%d, pipeline=%d, p50=%dus \
     p99=%dus per batch)\n"
    total mix clients dt
    (float_of_int total /. dt)
    batch pipeline
    (Xutil.Histogram.percentile lat 50.0)
    (Xutil.Histogram.percentile lat 99.0)

(* Scan over a freshly pinned server snapshot: open, range at the cut,
   close — one consistent view no matter what writers do meanwhile. *)
let snapshot_scan client ~start ~count =
  match Kvserver.Tcp.call client [ Kvserver.Protocol.Snap_open ] with
  | [ Kvserver.Protocol.Snap_opened id ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Snap_range { snap = id; start; count; columns = [] } ]);
      ignore (Kvserver.Tcp.call client [ Kvserver.Protocol.Snap_close id ])
  | resps -> List.iter pp_response resps

let run unix_sock connect ops batch pipeline clients snapshot args =
  let addr = addr_of unix_sock connect in
  let client = Kvserver.Tcp.connect addr in
  (match args with
  | [ "get"; key ] ->
      List.iter pp_response (Kvserver.Tcp.call client [ Kvserver.Protocol.Get { key; columns = [] } ])
  | "put" :: key :: cols when cols <> [] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Put { key; columns = Array.of_list cols } ])
  | [ "remove"; key ] ->
      List.iter pp_response (Kvserver.Tcp.call client [ Kvserver.Protocol.Remove key ])
  | [ "scan"; start; count ] when snapshot ->
      snapshot_scan client ~start ~count:(int_of_string count)
  | [ "scan"; start; count ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Getrange
               { start; count = int_of_string count; columns = [] } ])
  | [ "snap-open" ] ->
      List.iter pp_response (Kvserver.Tcp.call client [ Kvserver.Protocol.Snap_open ])
  | [ "snap-read"; id; key ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Snap_read
               { snap = Int64.of_string id; key; columns = [] } ])
  | [ "snap-scan"; id; start; count ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Snap_range
               { snap = Int64.of_string id; start; count = int_of_string count; columns = [] } ])
  | [ "snap-close"; id ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client [ Kvserver.Protocol.Snap_close (Int64.of_string id) ])
  | [ "stats" ] ->
      List.iter pp_response (Kvserver.Tcp.call client [ Kvserver.Protocol.Stats ])
  | [ "repl-status" ] ->
      List.iter pp_response (Kvserver.Tcp.call client [ Kvserver.Protocol.Repl_status ])
  | [ "repl-promote" ] ->
      List.iter pp_response (Kvserver.Tcp.call client [ Kvserver.Protocol.Repl_promote ])
  | [ "repl-get"; key ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Repl_read { key; columns = []; floor = 0L } ])
  | [ "repl-get"; key; floor ] ->
      List.iter pp_response
        (Kvserver.Tcp.call client
           [ Kvserver.Protocol.Repl_read
               { key; columns = []; floor = Int64.of_string floor } ])
  | [ "bench"; mix ] -> run_bench addr client ops mix batch pipeline clients
  | _ ->
      prerr_endline
        "usage: mtclient [--connect HOST:PORT | --unix PATH] (get K | put K V... | remove K | \
         scan [--snapshot] START N | snap-open | snap-read ID K | snap-scan ID START N | \
         snap-close ID | stats | repl-status | repl-promote | repl-get K [FLOOR] | \
         bench get|put|scan)";
      exit 2);
  Kvserver.Tcp.disconnect client

let unix_t =
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc:"Unix socket path.")

let connect_t =
  Arg.(value & opt string "127.0.0.1:7171" & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Server address.")

let ops_t = Arg.(value & opt int 100_000 & info [ "ops" ] ~docv:"N" ~doc:"Bench operations.")

let batch_t = Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N" ~doc:"Requests per message.")

let pipeline_t =
  Arg.(value & opt int 1 & info [ "pipeline" ] ~docv:"W" ~doc:"Request frames kept in flight per connection (1 = classic request/response).")

let clients_t =
  Arg.(value & opt int 1 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent bench connections.")

let snapshot_t =
  Arg.(value & flag & info [ "snapshot" ] ~doc:"Run scan over a freshly pinned server snapshot (open, range at the cut, close) instead of the live racing scan.")

let args_t = Arg.(value & pos_all string [] & info [] ~docv:"COMMAND")

let cmd =
  Cmd.v
    (Cmd.info "mtclient" ~doc:"Masstree client / load generator")
    Term.(
      const run $ unix_t $ connect_t $ ops_t $ batch_t $ pipeline_t $ clients_t
      $ snapshot_t $ args_t)

let () = exit (Cmd.eval cmd)
