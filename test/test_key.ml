(* Key slicing: the big-endian int64 encoding must be order-isomorphic to
   lexicographic string comparison, for all byte values including NULs. *)

open Masstree_core

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let slice_of_string s = Key.slice s ~off:0

let test_empty () =
  check_bool "empty key slice is 0" true (Int64.equal (slice_of_string "") 0L);
  check_int "slice_len of empty" 0 (Key.slice_len "" ~off:0);
  check_bool "no suffix" false (Key.has_suffix "" ~off:0)

let test_short_padding () =
  (* "A" encodes as 0x41 followed by 7 zero bytes. *)
  check_bool "A padded" true (Int64.equal (slice_of_string "A") 0x4100000000000000L);
  check_bool "AB" true (Int64.equal (slice_of_string "AB") 0x4142000000000000L)

let test_exact_eight () =
  check_bool "ABCDEFGH" true
    (Int64.equal (slice_of_string "ABCDEFGH") 0x4142434445464748L);
  check_bool "no suffix at 8" false (Key.has_suffix "ABCDEFGH" ~off:0)

let test_long_key_suffix () =
  let k = "ABCDEFGHIJK" in
  check_bool "has suffix" true (Key.has_suffix k ~off:0);
  check_string "suffix" "IJK" (Key.suffix k ~off:0);
  check_bool "slice ignores suffix" true
    (Int64.equal (slice_of_string k) (slice_of_string "ABCDEFGH"))

let test_offsets () =
  let k = "0123456789abcdef XX" in
  check_bool "off 8" true
    (Int64.equal (Key.slice k ~off:8) (slice_of_string "89abcdef"));
  check_int "slice_len at 16" 3 (Key.slice_len k ~off:16);
  check_int "slice_len beyond end" 0 (Key.slice_len k ~off:100);
  check_bool "slice beyond end" true (Int64.equal (Key.slice k ~off:100) 0L)

let test_nul_vs_absent () =
  (* "ABCDEFG" and "ABCDEFG\x00" share a slice but differ in slice_len —
     the paper's §4.2 motivating example for storing key lengths. *)
  let a = "ABCDEFG" and b = "ABCDEFG\x00" in
  check_bool "same slice" true (Int64.equal (slice_of_string a) (slice_of_string b));
  check_int "len 7" 7 (Key.slice_len a ~off:0);
  check_int "len 8" 8 (Key.slice_len b ~off:0)

let test_unsigned_order () =
  (* Bytes >= 0x80 must compare above ASCII: requires unsigned compare. *)
  let lo = slice_of_string "a" and hi = slice_of_string "\xff" in
  check_bool "0xff sorts above 'a'" true (Key.compare_slices lo hi < 0)

let test_roundtrip () =
  let cases = [ ""; "x"; "hello"; "12345678"; "\x00\x01\x02"; "\xff\xfe" ] in
  List.iter
    (fun s ->
      let sl = slice_of_string s in
      check_string
        (Printf.sprintf "roundtrip %S" s)
        s
        (Key.slice_to_string sl ~len:(String.length s)))
    cases

(* Property: comparing slices = comparing the first-8-byte prefixes. *)
let prop_order_isomorphic =
  QCheck.Test.make ~name:"slice order isomorphic to prefix order" ~count:2000
    QCheck.(pair (string_of_size Gen.(0 -- 12)) (string_of_size Gen.(0 -- 12)))
    (fun (a, b) ->
      let prefix s = String.sub s 0 (min 8 (String.length s)) in
      let pad s = prefix s ^ String.make (8 - min 8 (String.length s)) '\x00' in
      let expected = compare (pad a) (pad b) in
      let actual = Key.compare_slices (Key.slice a ~off:0) (Key.slice b ~off:0) in
      compare expected 0 = compare actual 0)

let prop_roundtrip =
  QCheck.Test.make ~name:"slice_to_string inverts slice for short keys" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 8))
    (fun s -> String.equal s (Key.slice_to_string (Key.slice s ~off:0) ~len:(String.length s)))

(* Pairs of keys over a small alphabet rich in 0x00 and 0xff, the second
   usually derived from the first (one byte changed, truncated or
   extended), so pairs often share a slice or its high half and the
   tie-breaking paths run. *)
let related_keys =
  let open QCheck.Gen in
  let byte = oneofl [ '\x00'; '\x01'; 'a'; '\x7f'; '\x80'; '\xff' ] in
  let key = string_size ~gen:byte (0 -- 20) in
  let derive a =
    let n = String.length a in
    oneof
      [
        key;
        map2
          (fun i c -> if n = 0 then String.make 1 c else String.mapi (fun j x -> if j = i mod n then c else x) a)
          nat byte;
        map (fun k -> String.sub a 0 (Int.min k n)) (0 -- 20);
        map (fun s -> a ^ s) key;
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair String.escaped String.escaped)
    (key >>= fun a -> map (fun b -> (a, b)) (derive a))

(* Bytes [off .. off+7] of [s], zero-padded to 8: what a slice encodes. *)
let padded_slice s ~off =
  let n = Int.max 0 (Int.min 8 (String.length s - off)) in
  String.sub s (Int.min off (String.length s)) n ^ String.make (8 - n) '\x00'

let sign c = Int.compare c 0

let prop_compare_parts =
  QCheck.Test.make ~name:"compare_parts has the sign of String.compare on padded slices"
    ~count:3000
    QCheck.(triple related_keys (int_bound 22) (option (int_bound 22)))
    (fun ((a, b), oa, ob) ->
      let ob = Option.value ob ~default:oa in
      let c =
        Key.compare_parts (Key.slice_hi a ~off:oa) (Key.slice_lo a ~off:oa)
          (Key.slice_hi b ~off:ob) (Key.slice_lo b ~off:ob)
      in
      sign c = sign (String.compare (padded_slice a ~off:oa) (padded_slice b ~off:ob)))

(* [entry_cmp] on the entries two keys would occupy in one layer-0 border:
   key order, except that two keys sharing a slice and both longer than 8
   bytes tie (they live under one suffix-or-layer entry, len clamped to 9). *)
let prop_entry_cmp =
  QCheck.Test.make ~name:"entry_cmp orders by slice, then min len 9" ~count:3000
    related_keys
    (fun (a, b) ->
      let la = String.length a and lb = String.length b in
      let c =
        Node.entry_cmp (Key.slice_hi a ~off:0) (Key.slice_lo a ~off:0) la
          (Key.slice_hi b ~off:0) (Key.slice_lo b ~off:0) lb
      in
      if la > 8 && lb > 8 && String.equal (String.sub a 0 8) (String.sub b 0 8) then c = 0
      else sign c = sign (String.compare a b))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "short padding" `Quick test_short_padding;
    Alcotest.test_case "exact eight" `Quick test_exact_eight;
    Alcotest.test_case "long key suffix" `Quick test_long_key_suffix;
    Alcotest.test_case "offsets" `Quick test_offsets;
    Alcotest.test_case "nul vs absent" `Quick test_nul_vs_absent;
    Alcotest.test_case "unsigned order" `Quick test_unsigned_order;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    QCheck_alcotest.to_alcotest prop_order_isomorphic;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_compare_parts;
    QCheck_alcotest.to_alcotest prop_entry_cmp;
  ]
