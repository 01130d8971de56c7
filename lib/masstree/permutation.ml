open Xutil.Intcmp

type t = int

let width = 14

(* Layout: bits 0..3 = nkeys; bits 4+4i .. 7+4i = keyindex.(i), 0 <= i < 14.
   Total 60 bits, safely inside OCaml's 63-bit immediate int. *)

let size p = p land 0xF

let idx p i = (p lsr (4 + (4 * i))) land 0xF

let set_idx p i v =
  let shift = 4 + (4 * i) in
  p land lnot (0xF lsl shift) lor (v lsl shift)

let identity_indexes =
  let p = ref 0 in
  for i = width - 1 downto 0 do
    p := set_idx !p i i
  done;
  !p

let empty = identity_indexes

let sorted n =
  assert (n >= 0 && n <= width);
  identity_indexes lor n

let of_int v = v

let is_full p = size p = width

let get p i =
  assert (i >= 0 && i < size p);
  idx p i

let free_slot p =
  assert (not (is_full p));
  idx p (size p)

let insert p ~pos =
  let n = size p in
  assert (n < width && pos >= 0 && pos <= n);
  let slot = idx p n in
  (* Shift entries pos..n-1 one position right, then drop the claimed slot
     into position pos and bump the count. *)
  let q = ref p in
  for i = n downto pos + 1 do
    q := set_idx !q i (idx !q (i - 1))
  done;
  q := set_idx !q pos slot;
  (!q land lnot 0xF) lor (n + 1)

let keep_prefix p ~n =
  assert (n >= 0 && n <= size p);
  (p land lnot 0xF) lor n

let removed_slot p ~pos =
  assert (pos >= 0 && pos < size p);
  idx p pos

let remove p ~pos =
  let n = size p in
  assert (pos >= 0 && pos < n);
  let slot = idx p pos in
  let q = ref p in
  for i = pos to n - 2 do
    q := set_idx !q i (idx !q (i + 1))
  done;
  (* The freed slot becomes the head of the free region so the next insert
     reuses it — the hazard case of §4.6.5 that forces a vinsert bump. *)
  q := set_idx !q (n - 1) slot;
  (!q land lnot 0xF) lor (n - 1)

let live_slots p = List.init (size p) (fun i -> idx p i)

let check p =
  let seen = Array.make width false in
  let ok = ref (size p <= width) in
  for i = 0 to width - 1 do
    let v = idx p i in
    if v >= width || seen.(v) then ok := false else seen.(v) <- true
  done;
  !ok

let pp fmt p =
  Format.fprintf fmt "{n=%d; [" (size p);
  for i = 0 to width - 1 do
    if i > 0 then Format.pp_print_string fmt " ";
    if i = size p then Format.pp_print_string fmt "| ";
    Format.pp_print_int fmt (idx p i)
  done;
  Format.pp_print_string fmt "]}"
