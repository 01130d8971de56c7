(* The benchmark's server process: a workload's backend behind the
   reactor front end on loopback TCP (the path [mtd --reactor] serves),
   preloaded in process.  Prints [ready <port> <poller>] once it accepts
   connections, and serves until its stdin closes — so it also exits when
   the benchmark that started it dies. *)

let run (w : Spec.t) ~dir =
  let b = Backend.create w ~dir in
  (* Start serving from a compacted heap: otherwise how far the preload's
     major GC cycle got by the time the load starts differs run to run,
     and it shows in every served figure. *)
  Gc.compact ();
  let r =
    Kvserver.Reactor.serve ~shards:2 (Kvserver.Tcp.Tcp ("127.0.0.1", 0)) b.Backend.engine
  in
  let port =
    match Kvserver.Reactor.bound_addr r with
    | Kvserver.Tcp.Tcp (_, p) -> p
    | Kvserver.Tcp.Unix_sock _ -> 0
  in
  Printf.printf "ready %d %s\n%!" port (Kvserver.Reactor.backend r);
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file | Sys_error _ -> ());
  Kvserver.Reactor.shutdown r;
  Backend.close b
