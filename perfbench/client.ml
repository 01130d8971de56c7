(* The load side: the server process's lifecycle, the client's
   connections, the closed- and open-loop phases, and the readings taken
   from outside the server (the [Stats] wire request and [/proc]).

   One client thread drives both connections through [select]: the host
   has two cores and the server runs two reactor domains, so the client
   takes as little CPU as it can. *)

open Kvserver

(* ---- server process ---- *)

type server = { pid : int; to_srv : Unix.file_descr; from_srv : in_channel; port : int; poller : string }

exception Server_failed of string

(* Start [exe serve ...] and wait for its ready line. *)
let spawn ~exe ~(w : Spec.t) ~dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--workload"; w.name; "--dir"; dir |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  match Unix.select [ out_r ] [] [] 150.0 with
  | [], _, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise (Server_failed "server did not become ready")
  | _ -> (
      match String.split_on_char ' ' (input_line ic) with
      | [ "ready"; port; poller ] ->
          { pid; to_srv = in_w; from_srv = ic; port = int_of_string port; poller }
      | _ | (exception End_of_file) ->
          ignore (Unix.waitpid [] pid);
          raise (Server_failed "server exited during setup"))

(* Close the server's stdin and reap it; kill it if it lingers. *)
let stop s =
  (try Unix.close s.to_srv with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ();
  close_in_noerr s.from_srv

(* ---- /proc readings ---- *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of every thread of [pid], in ns (USER_HZ = 100). *)
let cpu_ns pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (int_of_string f.(11) + int_of_string f.(12)) * 10_000_000

(* Peak resident set ([VmHWM]) of [pid], in kB. *)
let vm_hwm_kb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* Host-wide CPU ticks from [/proc/stat]: (steal, total).  Steal is time
   the hypervisor ran something else while this VM wanted to run. *)
let host_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: rest ->
      let f = Array.of_list (List.filter_map int_of_string_opt rest) in
      (f.(7), f.(0) + f.(1) + f.(2) + f.(3) + f.(4) + f.(5) + f.(6) + f.(7))
  | _ -> (0, 1)

(* Host steal in each whole second of a phase: [/proc/stat] is read as
   each second boundary passes. *)
type steal_meter = { mutable next : int; mutable marks : (int * int) list }

let steal_meter t0 = { next = t0 + 1_000_000_000; marks = [ host_ticks () ] }

let steal_tick m now =
  if now >= m.next then begin
    let t = host_ticks () in
    while now >= m.next do
      m.marks <- t :: m.marks;
      m.next <- m.next + 1_000_000_000
    done
  end

(* Steal as a percentage of host CPU time, per whole second measured. *)
let steal_pcts m =
  let a = Array.of_list (List.rev m.marks) in
  Array.init
    (max 0 (Array.length a - 1))
    (fun i ->
      let (s0, t0), (s1, t1) = (a.(i), a.(i + 1)) in
      if t1 > t0 then 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0)

let self_cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* ---- connections ---- *)

type conn = {
  fd : Unix.file_descr;
  inb : Netbuf.In.t;
  frames : Spec.frame array;
  mutable sent : int;  (** frames sent this phase *)
  mutable answered : int;  (** response frames received this phase *)
  due : int array;  (** open loop: scheduled send time per in-flight frame *)
  mutable dead : bool;
}

type tally = { mutable ops : int; mutable failed : int }

let connect ~port frames =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    fd;
    inb = Netbuf.In.create ();
    frames;
    sent = 0;
    answered = 0;
    due = Array.make (Array.length frames) 0;
    dead = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let ring c = Array.length c.frames

let inflight c = c.sent - c.answered

let send c k =
  if k > 0 && not c.dead then begin
    let bodies = List.init k (fun i -> c.frames.((c.sent + i) mod ring c).Spec.body) in
    match Protocol.write_frames c.fd bodies with
    | () -> c.sent <- c.sent + k
    | exception Unix.Unix_error _ -> c.dead <- true
  end

(* One read, then every complete response frame in it: decoded,
   checked against its request frame, and handed to [on_frame] with the
   time the read returned. *)
let receive c tally ~on_frame =
  match Netbuf.In.refill c.inb c.fd with
  | Netbuf.In.Eof -> c.dead <- true
  | Netbuf.In.Blocked -> ()
  | Netbuf.In.Filled _ ->
      let now = Clock.now () in
      let rec frames () =
        match Netbuf.In.next_frame c.inb with
        | Netbuf.In.Frame (pos, len) ->
            let f = c.frames.(c.answered mod ring c) in
            let resps =
              try Protocol.decode_responses (String.sub (Netbuf.In.contents c.inb) pos len)
              with _ -> []
            in
            tally.ops <- tally.ops + Array.length f.Spec.expects;
            tally.failed <- tally.failed + Check.frame f.Spec.expects resps;
            on_frame c now;
            c.answered <- c.answered + 1;
            frames ()
        | Netbuf.In.Partial -> ()
        | Netbuf.In.Bad_frame -> c.dead <- true
      in
      frames ()

let live conns = List.filter (fun c -> not c.dead) conns

(* Wait up to [timeout_ns] for responses on any live connection. *)
let poll conns tally ~timeout_ns ~on_frame =
  match live conns with
  | [] -> ()
  | cs ->
      let fds = List.map (fun c -> c.fd) cs in
      let ready, _, _ =
        try Unix.select fds [] [] (float_of_int (max 0 timeout_ns) /. 1e9)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun c -> if List.memq c.fd ready then receive c tally ~on_frame) cs

let per_frame c = Array.length c.frames.(0).Spec.expects

(* Wait for every in-flight frame; what a dead connection still owed
   counts as failed. *)
let drain conns tally ~on_frame =
  let deadline = Clock.now () + 30_000_000_000 in
  while List.exists (fun c -> inflight c > 0) (live conns) && Clock.now () < deadline do
    poll conns tally ~timeout_ns:100_000_000 ~on_frame
  done;
  List.iter
    (fun c ->
      tally.failed <- tally.failed + (inflight c * per_frame c);
      tally.ops <- tally.ops + (inflight c * per_frame c);
      c.answered <- c.sent)
    conns

let reset conns = List.iter (fun c -> c.sent <- 0; c.answered <- 0) conns

(* Closed loop: [window] frames in flight per connection; each answered
   frame is replaced at once.  Returns the elapsed ns up to the last
   response, the checked ops completed in each whole second, and the
   host's steal in each second. *)
let closed_loop conns tally ~window ~ns =
  reset conns;
  let t0 = Clock.now () in
  let stop = t0 + ns in
  let slices = Array.make (max 1 (ns / 1_000_000_000)) 0 in
  let meter = steal_meter t0 in
  List.iter (fun c -> send c window) conns;
  let on_frame _ _ = () in
  while Clock.now () < stop && live conns <> [] do
    let before = List.map (fun c -> c.answered) conns in
    let ok0 = tally.ops - tally.failed in
    poll conns tally ~timeout_ns:50_000_000 ~on_frame;
    let now = Clock.now () in
    steal_tick meter now;
    let slice = (now - t0) / 1_000_000_000 in
    if slice < Array.length slices then
      slices.(slice) <- slices.(slice) + (tally.ops - tally.failed - ok0);
    List.iter2 (fun c b -> send c (c.answered - b)) conns before
  done;
  drain conns tally ~on_frame;
  (Clock.now () - t0, slices, steal_pcts meter)

type open_result = {
  latencies : int array;  (** ns, from due time to response read *)
  dues : int array;  (** ns after the phase start each answered frame was due *)
  lags : int array;
  steal : float array;  (** host steal % in each second of the phase *)
}

(* Open loop: frame [i] is due at [t0 + i / rate], alternating
   connections; its latency runs from when it was due to when its
   response was read, so a stall also delays every frame due behind it.
   [lags] is how late the generator sent each frame. *)
let open_loop conns tally ~rate ~ns =
  reset conns;
  let conns_a = Array.of_list conns in
  let nc = Array.length conns_a in
  let cap = (rate * (ns / 1_000_000_000 + 1)) + 16 in
  let latencies = Array.make cap 0 and dues = Array.make cap 0 and nlat = ref 0 in
  let lags = Array.make cap 0 and nlag = ref 0 in
  let t0 = Clock.now () in
  let on_frame c now =
    if !nlat < cap then begin
      let due = c.due.(c.answered mod ring c) in
      latencies.(!nlat) <- now - due;
      dues.(!nlat) <- due - t0;
      incr nlat
    end
  in
  let stop = t0 + ns in
  let meter = steal_meter t0 in
  let i = ref 0 in
  let due_of i = t0 + int_of_float (float_of_int i *. 1e9 /. float_of_int rate) in
  while Clock.now () < stop && live conns <> [] do
    let due = due_of !i in
    let now = Clock.now () in
    steal_tick meter now;
    if now >= due then begin
      let c = conns_a.(!i mod nc) in
      if inflight c < ring c then begin
        c.due.(c.sent mod ring c) <- due;
        send c 1;
        if !nlag < cap then begin
          lags.(!nlag) <- now - due;
          incr nlag
        end;
        incr i
      end
      else poll conns tally ~timeout_ns:1_000_000 ~on_frame
    end
    else poll conns tally ~timeout_ns:(due - now) ~on_frame
  done;
  drain conns tally ~on_frame;
  {
    latencies = Array.sub latencies 0 !nlat;
    dues = Array.sub dues 0 !nlat;
    lags = Array.sub lags 0 !nlag;
    steal = steal_pcts meter;
  }

(* ---- the Stats wire request ---- *)

let stats c =
  Protocol.write_frame c.fd (Protocol.encode_requests [ Protocol.Stats ]);
  let rec wait () =
    match Netbuf.In.next_frame c.inb with
    | Netbuf.In.Frame (pos, len) -> (
        match Protocol.decode_responses (String.sub (Netbuf.In.contents c.inb) pos len) with
        | [ Protocol.Stats_reply s ] -> s
        | _ -> raise (Server_failed "bad Stats reply"))
    | Netbuf.In.Bad_frame -> raise (Server_failed "bad Stats frame")
    | Netbuf.In.Partial -> (
        match Netbuf.In.refill c.inb c.fd with
        | Netbuf.In.Eof -> raise (Server_failed "connection lost during Stats")
        | _ -> wait ())
  in
  wait ()

let counter (s : Obs.Snapshot.t) name = Option.value ~default:0 (List.assoc_opt name s.counters)

let gauge (s : Obs.Snapshot.t) name = Option.value ~default:0 (List.assoc_opt name s.gauges)

let hist (s : Obs.Snapshot.t) name =
  Option.value ~default:Obs.Snapshot.{ count = 0; sum = 0; minimum = 0; maximum = 0; p50 = 0; p90 = 0; p99 = 0; p999 = 0 }
    (List.assoc_opt name s.hists)

(* Requests the server's engine completed, [Stats] excluded. *)
let server_ops s =
  List.fold_left
    (fun a k -> a + counter s ("ops." ^ k))
    0
    [ "get"; "put"; "put_cols"; "remove"; "scan"; "snap"; "repl" ]
