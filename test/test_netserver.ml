(* The reactor front end and the pipelined protocol path: netbuf frame
   assembly, cross-frame multiget merging, partial-frame delivery at
   every byte boundary, oversized/truncated frames, deep pipelines on
   both server paths, and the steady-state zero-allocation claim. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Kvserver

(* ---- harness: run a test body against both server front ends ---- *)

type front = { name : string; addr : Tcp.addr; stop : unit -> unit }

let start_threaded () =
  let store = Kvstore.Store.create () in
  let server = Tcp.serve (Tcp.Tcp ("127.0.0.1", 0)) (Engine.single store) in
  { name = "threaded"; addr = Tcp.bound_addr server; stop = (fun () -> Tcp.shutdown server) }

let start_reactor ?(shards = 2) () =
  let store = Kvstore.Store.create () in
  let server = Reactor.serve ~shards (Tcp.Tcp ("127.0.0.1", 0)) (Engine.single store) in
  {
    name = "reactor";
    addr = Reactor.bound_addr server;
    stop = (fun () -> Reactor.shutdown server);
  }

let with_front mk f =
  let front = mk () in
  Fun.protect ~finally:front.stop (fun () -> f front)

let on_both f =
  with_front start_threaded f;
  with_front (start_reactor ~shards:2) f

(* ---- raw socket helpers for malformed/partial frames ---- *)

let send_all fd s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd b off len in
      go (off + n) (len - n)
    end
  in
  go 0 (Bytes.length b)

let raw_frame reqs =
  let body = Protocol.encode_requests reqs in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (String.length body));
  Bytes.to_string hdr ^ body

(* Read until EOF or timeout; true = the server closed the connection. *)
let closed_within fd secs =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs;
  let b = Bytes.create 256 in
  let rec drain () =
    match Unix.read fd b 0 256 with
    | 0 -> true
    | _ -> drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  drain ()

(* ---- netbuf unit tests (socketpair-driven) ---- *)

let test_netbuf_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock b;
  let inb = Netbuf.In.create ~capacity:16 () in
  check_bool "empty is partial" true (Netbuf.In.next_frame inb = Netbuf.In.Partial);
  (* Two frames and a torn third, delivered in one refill. *)
  let f1 = raw_frame [ Protocol.Get { key = "alpha"; columns = [] } ] in
  let f2 = raw_frame [ Protocol.Put { key = "beta"; columns = [| "v" |] } ] in
  let f3 = raw_frame [ Protocol.Remove "gamma" ] in
  send_all a (f1 ^ f2 ^ String.sub f3 0 5);
  let rec refill_all () =
    match Netbuf.In.refill inb b with
    | Netbuf.In.Filled _ -> refill_all ()
    | Netbuf.In.Blocked | Netbuf.In.Eof -> ()
  in
  refill_all ();
  (match Netbuf.In.next_frame inb with
  | Netbuf.In.Frame (pos, len) ->
      let reqs = Protocol.decode_requests_sub (Netbuf.In.contents inb) ~pos ~len in
      check_bool "frame 1" true (reqs = [ Protocol.Get { key = "alpha"; columns = [] } ])
  | _ -> Alcotest.fail "expected frame 1");
  (match Netbuf.In.next_frame inb with
  | Netbuf.In.Frame (pos, len) ->
      let reqs = Protocol.decode_requests_sub (Netbuf.In.contents inb) ~pos ~len in
      check_bool "frame 2" true
        (reqs = [ Protocol.Put { key = "beta"; columns = [| "v" |] } ])
  | _ -> Alcotest.fail "expected frame 2");
  check_bool "third torn" true (Netbuf.In.next_frame inb = Netbuf.In.Partial);
  (* Deliver the rest; the frame completes. *)
  send_all a (String.sub f3 5 (String.length f3 - 5));
  refill_all ();
  (match Netbuf.In.next_frame inb with
  | Netbuf.In.Frame (pos, len) ->
      let reqs = Protocol.decode_requests_sub (Netbuf.In.contents inb) ~pos ~len in
      check_bool "frame 3" true (reqs = [ Protocol.Remove "gamma" ])
  | _ -> Alcotest.fail "expected frame 3");
  (* Oversized length prefix is rejected, not allocated. *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (256 * 1024 * 1024));
  send_all a (Bytes.to_string hdr);
  refill_all ();
  check_bool "oversized rejected" true (Netbuf.In.next_frame inb = Netbuf.In.Bad_frame);
  Unix.close a;
  Unix.close b

let test_netbuf_out_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let out = Netbuf.Out.create ~budget:64 () in
  let resps = [ Protocol.Ok_put; Protocol.Value (Some [| "x"; "y" |]) ] in
  let m = Netbuf.Out.begin_frame out in
  Protocol.encode_responses_into (Netbuf.Out.writer out) resps;
  Netbuf.Out.end_frame out m;
  let m2 = Netbuf.Out.begin_frame out in
  Protocol.encode_responses_into (Netbuf.Out.writer out) [ Protocol.Removed true ];
  Netbuf.Out.end_frame out m2;
  check_bool "flush drains" true (Netbuf.Out.flush out a = Netbuf.Out.Drained);
  check_int "nothing pending" 0 (Netbuf.Out.pending out);
  (* Both frames arrive intact and in order over the wire. *)
  (match Protocol.read_frame b with
  | Some body -> check_bool "frame 1 body" true (Protocol.decode_responses body = resps)
  | None -> Alcotest.fail "missing frame 1");
  (match Protocol.read_frame b with
  | Some body ->
      check_bool "frame 2 body" true
        (Protocol.decode_responses body = [ Protocol.Removed true ])
  | None -> Alcotest.fail "missing frame 2");
  (* Budget: enough buffered output flips the backpressure signal. *)
  check_bool "under budget" false (Netbuf.Out.over_budget out);
  let m3 = Netbuf.Out.begin_frame out in
  Protocol.encode_responses_into (Netbuf.Out.writer out)
    [ Protocol.Failed (String.make 100 'x') ];
  Netbuf.Out.end_frame out m3;
  check_bool "over budget" true (Netbuf.Out.over_budget out);
  Unix.close a;
  Unix.close b

(* ---- engine: cross-frame pipelined execution ---- *)

let test_execute_frames_merges_get_runs () =
  let store = Kvstore.Store.create () in
  Kvstore.Store.put store "a" [| "1" |];
  Kvstore.Store.put store "b" [| "2" |];
  let bodies =
    [
      Protocol.encode_requests [ Protocol.Get { key = "a"; columns = [] } ];
      Protocol.encode_requests [ Protocol.Get { key = "b"; columns = [] };
                                 Protocol.Get { key = "missing"; columns = [] } ];
      Protocol.encode_requests [ Protocol.Put { key = "c"; columns = [| "3" |] } ];
      Protocol.encode_requests [ Protocol.Get { key = "c"; columns = [] } ];
    ]
  in
  let buf = Buffer.create 256 in
  let frames =
    List.map
      (fun body ->
        let pos = Buffer.length buf in
        Buffer.add_string buf body;
        (pos, String.length body))
      bodies
  in
  (* Compared as a client decodes them: full-value gets answer
     [Value_packed] in process, [Value] on the wire. *)
  let emitted = ref [] in
  Engine.execute_frames ~worker:0 (Engine.single store) ~buf:(Buffer.contents buf) ~frames
    ~emit:(fun r ->
      emitted := Protocol.decode_responses (Protocol.encode_responses r) :: !emitted);
  match List.rev !emitted with
  | [
   [ Protocol.Value (Some [| "1" |]) ];
   [ Protocol.Value (Some [| "2" |]); Protocol.Value None ];
   [ Protocol.Ok_put ];
   [ Protocol.Value (Some [| "3" |]) ];
  ] ->
      ()
  | _ -> Alcotest.fail "pipelined batch produced wrong responses"

let test_execute_frames_malformed_frame () =
  let store = Kvstore.Store.create () in
  let good = Protocol.encode_requests [ Protocol.Put { key = "k"; columns = [| "v" |] } ] in
  let bad = "\x02\xff\xff\xff" in
  let buf = good ^ bad ^ good in
  let frames =
    [
      (0, String.length good);
      (String.length good, String.length bad);
      (String.length good + String.length bad, String.length good);
    ]
  in
  let emitted = ref [] in
  Engine.execute_frames ~worker:0 (Engine.single store) ~buf ~frames
    ~emit:(fun r -> emitted := r :: !emitted);
  match List.rev !emitted with
  | [ [ Protocol.Ok_put ]; [ Protocol.Failed _ ]; [ Protocol.Ok_put ] ] -> ()
  | _ -> Alcotest.fail "malformed frame must fail alone, stream continues"

(* ---- reactor end-to-end ---- *)

let test_reactor_basic_ops () =
  with_front (start_reactor ~shards:2) (fun front ->
      let c = Tcp.connect front.addr in
      (match Tcp.call c [ Protocol.Put { key = "k"; columns = [| "v1"; "v2" |] } ] with
      | [ Protocol.Ok_put ] -> ()
      | _ -> Alcotest.fail "put");
      (match Tcp.call c [ Protocol.Get { key = "k"; columns = [ 1 ] } ] with
      | [ Protocol.Value (Some [| "v2" |]) ] -> ()
      | _ -> Alcotest.fail "get columns");
      (match Tcp.call c [ Protocol.Getrange { start = ""; count = 10; columns = [] } ] with
      | [ Protocol.Range [ ("k", _) ] ] -> ()
      | _ -> Alcotest.fail "scan");
      (match Tcp.call c [ Protocol.Stats ] with
      | [ Protocol.Stats_reply _ ] -> ()
      | _ -> Alcotest.fail "stats");
      (match Tcp.call c [ Protocol.Remove "k" ] with
      | [ Protocol.Removed true ] -> ()
      | _ -> Alcotest.fail "remove");
      Tcp.disconnect c)

let test_reactor_unix_socket () =
  let store = Kvstore.Store.create () in
  let path = Filename.temp_file "mtreact" ".s" in
  Sys.remove path;
  let server = Reactor.serve ~shards:1 (Tcp.Unix_sock path) (Engine.single store) in
  Fun.protect
    ~finally:(fun () -> Reactor.shutdown server)
    (fun () ->
      let c = Tcp.connect (Tcp.Unix_sock path) in
      (match Tcp.call c [ Protocol.Put { key = "u"; columns = [| "x" |] } ] with
      | [ Protocol.Ok_put ] -> ()
      | _ -> Alcotest.fail "put over unix socket");
      (match Tcp.call c [ Protocol.Get { key = "u"; columns = [] } ] with
      | [ Protocol.Value (Some [| "x" |]) ] -> ()
      | _ -> Alcotest.fail "get over unix socket");
      Tcp.disconnect c)

let test_reactor_many_clients () =
  let store = Kvstore.Store.create () in
  let server = Reactor.serve ~shards:3 (Tcp.Tcp ("127.0.0.1", 0)) (Engine.single store) in
  let addr = Reactor.bound_addr server in
  let threads =
    List.init 6 (fun d ->
        Thread.create
          (fun () ->
            let c = Tcp.connect addr in
            for i = 0 to 99 do
              let k = Printf.sprintf "r%d-%02d" d i in
              match
                Tcp.call c
                  [ Protocol.Put { key = k; columns = [| k |] };
                    Protocol.Get { key = k; columns = [] } ]
              with
              | [ Protocol.Ok_put; Protocol.Value (Some [| v |]) ] when String.equal v k
                ->
                  ()
              | _ -> failwith "bad reactor response"
            done;
            Tcp.disconnect c)
          ())
  in
  List.iter Thread.join threads;
  check_int "all stored" 600 (Kvstore.Store.cardinal store);
  Reactor.shutdown server

(* Satellite: frames split at every byte boundary across reads must still
   parse — the server never sees "one write = one frame". *)
let test_partial_frame_every_boundary () =
  on_both (fun front ->
      let c = Tcp.connect front.addr in
      (match Tcp.call c [ Protocol.Put { key = "pk"; columns = [| "pv" |] } ] with
      | [ Protocol.Ok_put ] -> ()
      | _ -> Alcotest.fail "seed put");
      let fd = Tcp.client_fd c in
      let frame = raw_frame [ Protocol.Get { key = "pk"; columns = [] } ] in
      let n = String.length frame in
      for split = 1 to n - 1 do
        send_all fd (String.sub frame 0 split);
        Thread.delay 0.002;
        send_all fd (String.sub frame split (n - split));
        match Protocol.read_frame fd with
        | Some body ->
            if Protocol.decode_responses body <> [ Protocol.Value (Some [| "pv" |]) ]
            then
              Alcotest.failf "%s: wrong response at split %d" front.name split
        | None -> Alcotest.failf "%s: connection died at split %d" front.name split
      done;
      Tcp.disconnect c)

(* Satellite: an oversized length prefix must produce a clean close, not
   a crash, a hang, or a 100 MB allocation. *)
let test_oversized_length_prefix () =
  on_both (fun front ->
      let c = Tcp.connect front.addr in
      let fd = Tcp.client_fd c in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int (100 * 1024 * 1024));
      send_all fd (Bytes.to_string hdr);
      check_bool
        (front.name ^ ": closes on oversized prefix")
        true (closed_within fd 5.0);
      Tcp.disconnect c)

(* Satellite: a frame whose body never arrives must end in a clean close
   when the peer gives up, never a hang. *)
let test_truncated_body () =
  on_both (fun front ->
      let c = Tcp.connect front.addr in
      let fd = Tcp.client_fd c in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 100l;
      send_all fd (Bytes.to_string hdr);
      send_all fd (String.make 10 'x');
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      check_bool
        (front.name ^ ": closes on truncated body")
        true (closed_within fd 5.0);
      Tcp.disconnect c)

(* Satellite: N frames written before reading any response; responses
   must come back complete and in order on both paths. *)
let test_pipelining_in_order () =
  on_both (fun front ->
      let c = Tcp.connect front.addr in
      let n = 48 in
      let frames =
        List.init n (fun i ->
            let k = Printf.sprintf "pl-%03d" i in
            [ Protocol.Put { key = k; columns = [| string_of_int i |] };
              Protocol.Get { key = k; columns = [] } ])
      in
      let replies = Tcp.call_pipelined ~window:12 c frames in
      check_int (front.name ^ ": reply count") n (List.length replies);
      List.iteri
        (fun i r ->
          match r with
          | [ Protocol.Ok_put; Protocol.Value (Some [| v |]) ]
            when String.equal v (string_of_int i) ->
              ()
          | _ -> Alcotest.failf "%s: out-of-order reply at %d" front.name i)
        replies;
      (* All-get window: exercises the cross-frame multiget merge. *)
      let get_frames =
        List.init n (fun i ->
            [ Protocol.Get { key = Printf.sprintf "pl-%03d" i; columns = [] } ])
      in
      let replies = Tcp.call_pipelined ~window:16 c get_frames in
      List.iteri
        (fun i r ->
          match r with
          | [ Protocol.Value (Some [| v |]) ] when String.equal v (string_of_int i) -> ()
          | _ -> Alcotest.failf "%s: bad multiget reply at %d" front.name i)
        replies;
      Tcp.disconnect c)

(* Acceptance: warmed-up connections run without any buffer growth — the
   steady-state request path does no per-frame allocation for headers or
   response assembly. *)
let test_steady_state_no_buffer_growth () =
  with_front (start_reactor ~shards:1) (fun front ->
      let c = Tcp.connect front.addr in
      let frames =
        List.init 64 (fun i ->
            let k = Printf.sprintf "ss-%02d" i in
            [ Protocol.Put { key = k; columns = [| "12345678" |] };
              Protocol.Get { key = k; columns = [] } ])
      in
      (* Warm up: buffers grow to their working size. *)
      ignore (Tcp.call_pipelined ~window:16 c frames);
      ignore (Tcp.call_pipelined ~window:16 c frames);
      let g0 = Netbuf.grows () in
      for _ = 1 to 10 do
        ignore (Tcp.call_pipelined ~window:16 c frames)
      done;
      let g1 = Netbuf.grows () in
      check_int "no buffer growth at steady state" g0 g1;
      Tcp.disconnect c)

let suite =
  [
    Alcotest.test_case "netbuf frame assembly" `Quick test_netbuf_frames;
    Alcotest.test_case "netbuf out roundtrip + budget" `Quick test_netbuf_out_roundtrip;
    Alcotest.test_case "engine merges get-only frame runs" `Quick
      test_execute_frames_merges_get_runs;
    Alcotest.test_case "engine isolates malformed frames" `Quick
      test_execute_frames_malformed_frame;
    Alcotest.test_case "reactor basic ops" `Quick test_reactor_basic_ops;
    Alcotest.test_case "reactor unix socket" `Quick test_reactor_unix_socket;
    Alcotest.test_case "reactor many clients" `Slow test_reactor_many_clients;
    Alcotest.test_case "partial frames at every boundary" `Slow
      test_partial_frame_every_boundary;
    Alcotest.test_case "oversized length prefix closes" `Quick
      test_oversized_length_prefix;
    Alcotest.test_case "truncated body closes" `Quick test_truncated_body;
    Alcotest.test_case "pipelining stays in order" `Quick test_pipelining_in_order;
    Alcotest.test_case "steady state allocates no buffers" `Slow
      test_steady_state_no_buffer_growth;
  ]
