(* The benchmark's workloads and their seeded request streams.

   Every workload preloads a fixed population of MYCSB keys (decimal
   strings of scrambled ranks, values of 10 columns of 4 bytes) and never
   removes one.  Every column a key can hold is a function of the key:
   [cell key c 0] when preloaded, [cell key c 1] once a put has written
   it.  So the checker knows the answer to every get in advance (see
   [Check]).  Frames are generated and encoded before any timed phase:
   the Zipf sampler's per-draw float [pow] would otherwise compete with
   the server for the host's two cores. *)

open Kvserver
module Ycsb = Workload.Ycsb

type mix =
  | A  (** MYCSB-A: 50% full-value get, 50% one-column put; Zipf keys *)
  | C_batch  (** 100% full-value get; uniform keys *)

type t = {
  name : string;
  mix : mix;
  records : int;  (** preloaded keys *)
  per_frame : int;  (** requests per frame *)
  shards : int;  (** 1 = [Engine.single]; more = a hash [Shard.Router] *)
  logs : bool;  (** one [Persist.Logger] per shard, default group commit *)
  window : int;  (** closed-loop frames in flight per connection *)
  rate : int;  (** open-loop frames per second, both connections together *)
  ring : int;  (** pre-generated frames per connection, cycled *)
}

let all =
  [
    {
      name = "mycsb-a";
      mix = A;
      records = 500_000;
      per_frame = 1;
      shards = 1;
      logs = true;
      window = 64;
      rate = 20_000;
      ring = 65_536;
    };
    {
      name = "mycsb-c-batch";
      mix = C_batch;
      records = 1_000_000;
      per_frame = 32;
      shards = 4;
      logs = false;
      window = 4;
      rate = 1_000;
      ring = 4_096;
    };
  ]

(* Open-loop latency windows hold at least 1000 samples. *)
let window_ns w = 1_000_000_000 * max 1 ((1000 + w.rate - 1) / w.rate)

let find name = List.find_opt (fun w -> w.name = name) all

let columns = Ycsb.columns

let ycsb w = Ycsb.create ~records:w.records ~theta:0.99 (match w.mix with A -> Ycsb.A | C_batch -> Ycsb.C)

let population w =
  let y = ycsb w in
  Array.init w.records (Ycsb.key_of_rank y)

(* Column [c] of a key in generation [gen] (0 preloaded, 1 put), as 32
   bits: the key's hash and (column, generation) through a 64-bit mixer.
   Cheap, so the client can check every get without competing with the
   server for CPU. *)
let key_hash (key : string) = Hashtbl.hash key

let cell_bits h c gen =
  let x = h lor (((2 * c) + gen + 1) lsl 30) in
  let x = (x lxor (x lsr 29)) * 0x3C6EF372FE94F82B in
  let x = (x lxor (x lsr 32)) * 0x1B873593 in
  (x lxor (x lsr 29)) land 0xFFFF_FFFF

(* A column as its 4 bytes on the wire. *)
let column_bits col = Int32.to_int (String.get_int32_le col 0) land 0xFFFF_FFFF

let cell key c gen =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (cell_bits (key_hash key) c gen));
  Bytes.unsafe_to_string b

let value key = Array.init columns (fun c -> cell key c 0)

(* What a correct response to one request looks like. *)
type expect = Full_get of string  (** the key read *) | Put_done

type frame = { body : string; reqs : Protocol.request array; expects : expect array }

let get key = (Protocol.Get { key; columns = [] }, Full_get key)

(* One request of the workload's mix: MYCSB-A from [Ycsb.next] (its put
   data replaced by the key's generation-1 cell), uniform gets for
   [C_batch]. *)
let draw w y ~keys rng =
  match w.mix with
  | A -> (
      match Ycsb.next y rng with
      | Ycsb.Get key -> get key
      | Ycsb.Put (key, c, _) -> (Protocol.Put_cols { key; updates = [ (c, cell key c 1) ] }, Put_done)
      | Ycsb.Getrange _ -> invalid_arg "Spec.draw: MYCSB-A draws no scans")
  | C_batch -> get keys.(Xutil.Rng.int rng w.records)

type stream = { keys : string array; conns : frame array array }

(* Both connections' frame rings.  Connection [c] draws from its own
   generator split off the seed, so the bytes depend on the seed alone. *)
let generate w ~seed ~nconns =
  let keys = population w in
  let y = ycsb w in
  let root = Xutil.Rng.create (Int64.of_int seed) in
  let conns =
    Array.init nconns (fun _ ->
        let rng = Xutil.Rng.split root in
        Array.init w.ring (fun _ ->
            let pairs = Array.init w.per_frame (fun _ -> draw w y ~keys rng) in
            let reqs = Array.map fst pairs in
            {
              body = Protocol.encode_requests (Array.to_list reqs);
              reqs;
              expects = Array.map snd pairs;
            }))
  in
  { keys; conns }

(* CRC32C over every frame body in send order: two runs with one seed
   send identical bytes iff their checksums match. *)
let checksum s =
  Array.fold_left
    (fun crc frames ->
      Array.fold_left (fun crc f -> Xutil.Crc32c.digest_string ~crc f.body) crc frames)
    0l s.conns
