(* Response checker.  Preloaded keys are never removed, and column [c]
   of [key] only ever holds [Spec.cell key c 0] (preloaded) or
   [Spec.cell key c 1] (written by a put), so:

   - a full-value get of [key] returns 10 columns, column [c] being one
     of the two cells of ([key], [c]);
   - a put returns [Ok_put].

   Anything else (a miss, [Failed], a wrong constructor, another key's
   value, columns out of place) is a failure. *)

open Kvserver

let cell_ok h c col =
  String.length col = 4
  &&
  let v = Spec.column_bits col in
  v = Spec.cell_bits h c 0 || v = Spec.cell_bits h c 1

let rec cells_ok h cols c = c = Spec.columns || (cell_ok h c cols.(c) && cells_ok h cols (c + 1))

let response (e : Spec.expect) (r : Protocol.response) =
  match (e, r) with
  | Spec.Full_get key, Protocol.Value (Some cols) ->
      Array.length cols = Spec.columns && cells_ok (Spec.key_hash key) cols 0
  | Spec.Put_done, Protocol.Ok_put -> true
  | _ -> false

(* Failed requests in one response frame.  A frame whose arity does not
   match its request frame fails every request in it. *)
let frame (expects : Spec.expect array) (resps : Protocol.response list) =
  if List.length resps <> Array.length expects then Array.length expects
  else begin
    let failed = ref 0 in
    List.iteri (fun i r -> if not (response expects.(i) r) then incr failed) resps;
    !failed
  end
