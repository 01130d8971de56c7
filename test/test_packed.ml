(* One-block values: a Contiguous value is stored as its wire encoding
   and served by blit.  Properties pin that the packed form, the wire
   form and both value layouts agree; allocation gates pin that serving
   it stays copy-free. *)

open Kvserver
module Packed = Kvstore.Packed
module Store = Kvstore.Store
module Tree = Masstree_core.Tree

(* Columns of every length class: empty, short, and >= 128 bytes, whose
   lengths take two-byte varints. *)
let gen_column =
  QCheck.Gen.(
    oneof
      [
        return "";
        string_size ~gen:printable (int_range 1 16);
        string_size ~gen:printable (int_range 128 300);
      ])

let gen_columns = QCheck.Gen.(array_size (int_range 0 12) gen_column)

let print_columns cols =
  "[|" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%S") cols)) ^ "|]"

(* Requested indexes: in range, past the last column, and negative. *)
let gen_indexes = QCheck.Gen.(list_size (int_range 0 6) (int_range (-3) 15))

let gen_updates = QCheck.Gen.(list_size (int_range 0 5) (pair (int_range (-2) 16) gen_column))

let prop_wire_equivalence =
  QCheck.Test.make ~count:300 ~name:"Value_packed encodes and decodes as Value"
    (QCheck.make ~print:print_columns gen_columns)
    (fun cols ->
      let p = Packed.pack cols in
      let packed = Protocol.encode_responses [ Protocol.Value_packed p ] in
      Packed.unpack p = cols
      && String.equal packed (Protocol.encode_responses [ Protocol.Value (Some cols) ])
      && Protocol.decode_responses packed = [ Protocol.Value (Some cols) ])

let both_layouts () =
  (Store.create ~layout:Store.Contiguous (), Store.create ~layout:Store.Columnar ())

let prop_layouts_agree =
  QCheck.Test.make ~count:300 ~name:"get_columns agrees across layouts"
    (QCheck.make
       ~print:(fun (c, i) -> print_columns c ^ " " ^ String.concat "," (List.map string_of_int i))
       QCheck.Gen.(pair gen_columns gen_indexes))
    (fun (cols, idx) ->
      let a, b = both_layouts () in
      Store.put a "k" cols;
      Store.put b "k" cols;
      let expect =
        Array.of_list
          (List.map (fun i -> if i >= 0 && i < Array.length cols then cols.(i) else "") idx)
      in
      Store.get_columns a "k" idx = Some expect
      && Store.get_columns b "k" idx = Some expect
      && Store.get a "k" = Some cols
      && Store.get b "k" = Some cols
      && Store.get_packed a "k" = Store.get_packed b "k"
      && Store.get_packed a "k" = Some (Packed.pack cols))

(* Today's put_columns rules: the value widens to the largest index,
   negative indexes are ignored, and a later update to the same index in
   one call wins. *)
let model_update cols updates =
  let width = List.fold_left (fun w (i, _) -> max w (i + 1)) (Array.length cols) updates in
  let m = Array.make width "" in
  Array.blit cols 0 m 0 (Array.length cols);
  List.iter (fun (i, c) -> if i >= 0 then m.(i) <- c) updates;
  m

let prop_put_columns_snapshot =
  QCheck.Test.make ~count:300 ~name:"put_columns widens; an open snapshot keeps the old value"
    (QCheck.make
       ~print:(fun (c, u) ->
         print_columns c ^ " <- "
         ^ String.concat "," (List.map (fun (i, s) -> Printf.sprintf "%d:%S" i s) u))
       QCheck.Gen.(pair gen_columns gen_updates))
    (fun (cols, updates) ->
      let a, b = both_layouts () in
      List.for_all
        (fun s ->
          Store.put s "k" cols;
          let snap = Store.Snapshot.open_ s in
          let before = Store.Snapshot.read snap "k" in
          Store.put_columns s "k" updates;
          let after = Store.Snapshot.read snap "k" in
          let merged = model_update cols updates in
          let live = Store.get s "k" in
          (* A replayed record older than the head loses: last writer
             wins by version. *)
          Store.apply_put s ~key:"k" ~version:1L ~columns:[| "stale" |];
          let ok =
            before = Some cols && after = before && live = Some merged
            && Store.get s "k" = Some merged
            && Store.get_packed s "k" = Some (Packed.pack merged)
          in
          Store.Snapshot.close snap;
          Store.prune s;
          ok && Store.get s "k" = Some merged)
        [ a; b ])

(* ---- allocation gates ---- *)

(* Minor-heap words per call of [f] over [iters] calls. *)
let words_per_call ~iters f =
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_multi_get_packed_allocation () =
  let n = 4096 and batch = 32 in
  (* MYCSB-shaped: scattered 12-byte keys, 10 columns of 4 bytes. *)
  let keys = Array.init n (fun i -> Printf.sprintf "user%08x" (i * 2654435761 land 0xffffffff)) in
  let value = Array.init 10 (fun c -> Printf.sprintf "c%03d" c) in
  let store = Store.create ~layout:Store.Contiguous () in
  let tree = Tree.create () in
  Array.iteri
    (fun i k ->
      Store.put ~worker:0 store k value;
      ignore (Tree.put tree k i))
    keys;
  let batches = Array.init (n / batch) (fun b -> Array.sub keys (b * batch) batch) in
  let per_key f =
    let i = ref 0 in
    words_per_call ~iters:(Array.length batches * 4) (fun () ->
        f batches.(!i mod Array.length batches);
        incr i)
    /. float_of_int batch
  in
  let tree_w = per_key (fun ks -> ignore (Tree.multi_get_pipelined tree ks)) in
  let packed_w = per_key (fun ks -> ignore (Store.multi_get_packed store ks)) in
  let decoded_w = per_key (fun ks -> ignore (Store.multi_get store ks)) in
  if packed_w -. tree_w > 4.0 then
    Alcotest.failf
      "multi_get_packed allocates %.1f words/key over the tree's %.1f (gate: 4; decoding \
       multi_get: %.1f)"
      packed_w tree_w decoded_w

let test_value_packed_encode_allocation () =
  let p = Packed.pack (Array.init 10 (fun c -> Printf.sprintf "c%03d" c)) in
  let resps = [ Protocol.Value_packed p ] in
  let w = Xutil.Binio.writer ~capacity:4096 () in
  let words =
    words_per_call ~iters:1000 (fun () ->
        Xutil.Binio.reset w;
        Protocol.encode_responses_into w resps)
  in
  if words > 0.0 then
    Alcotest.failf "encoding a Value_packed reply allocates %.3f words" words

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:false prop_wire_equivalence;
    QCheck_alcotest.to_alcotest ~long:false prop_layouts_agree;
    QCheck_alcotest.to_alcotest ~long:false prop_put_columns_snapshot;
    Alcotest.test_case "multi_get_packed allocation gate" `Quick
      test_multi_get_packed_allocation;
    Alcotest.test_case "Value_packed encode allocates nothing" `Quick
      test_value_packed_encode_allocation;
  ]
