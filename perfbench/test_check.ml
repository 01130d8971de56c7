(* The benchmark's response checker must accept every well-formed
   response and flag each kind of corruption. *)

open Kvserver

let k1 = "1234567" and k2 = "7654321"

let get key = Spec.Full_get key

(* [key]'s value with column [c] from generation [gen c]. *)
let value ?(gen = fun _ -> 0) key = Array.init Spec.columns (fun c -> Spec.cell key c (gen c))

let with_col i col v =
  let v = Array.copy v in
  v.(i) <- col;
  v

let swap i j v =
  let v = Array.copy v in
  let t = v.(i) in
  v.(i) <- v.(j);
  v.(j) <- t;
  v

let cases =
  [
    ("preloaded get", get k1, Protocol.Value (Some (value k1)), true);
    ("get after puts", get k1, Protocol.Value (Some (value ~gen:(fun c -> c land 1) k1)), true);
    ("put", Spec.Put_done, Protocol.Ok_put, true);
    ("get miss", get k1, Protocol.Value None, false);
    ("get failed", get k1, Protocol.Failed "boom", false);
    ("get answered with another key's value", get k1, Protocol.Value (Some (value k2)), false);
    ( "get with one column of another key",
      get k1,
      Protocol.Value (Some (with_col 7 (Spec.cell k2 7 1) (value k1))),
      false );
    ("get with two columns swapped", get k1, Protocol.Value (Some (swap 2 3 (value k1))), false);
    ("get with 9 columns", get k1, Protocol.Value (Some (Array.sub (value k1) 0 9)), false);
    ( "get with a 3-byte column",
      get k1,
      Protocol.Value (Some (with_col 4 (String.sub (Spec.cell k1 4 0) 0 3) (value k1))),
      false );
    ("get answered as a put", get k1, Protocol.Ok_put, false);
    ("put failed", Spec.Put_done, Protocol.Failed "log full", false);
    ("put answered as a value", Spec.Put_done, Protocol.Value (Some (value k1)), false);
  ]

let () =
  let bad = ref 0 in
  let expect name ok = if not ok then (incr bad; Printf.printf "FAIL %s\n" name) in
  List.iter
    (fun (name, e, r, ok) ->
      expect
        (Printf.sprintf "%s: expected %s" name (if ok then "accepted" else "flagged"))
        (Check.response e r = ok))
    cases;
  (* Frame level: arity, and responses handed back to the wrong requests. *)
  let expects = [| get k1; get k2; Spec.Put_done |] in
  let v1 = Protocol.Value (Some (value k1)) and v2 = Protocol.Value (Some (value k2)) in
  expect "well-formed frame flagged" (Check.frame expects [ v1; v2; Protocol.Ok_put ] = 0);
  expect "short frame not flagged" (Check.frame expects [ v1; v2 ] = 3);
  expect "one bad response not counted once" (Check.frame expects [ v1; Protocol.Value None; Protocol.Ok_put ] = 1);
  expect "swapped responses not flagged" (Check.frame expects [ v2; v1; Protocol.Ok_put ] = 2);
  if !bad > 0 then exit 1;
  Printf.printf "checker: %d cases ok\n" (List.length cases + 4)
