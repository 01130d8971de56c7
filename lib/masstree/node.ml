open Xutil.Intcmp

type 'v link_or_value =
  | Empty
  | Value of 'v
  | Layer of 'v node ref

and 'v node = Border of 'v border | Interior of 'v interior

(* Border key payloads live off-heap in a {!Pool} cell (see pool.ml):
   slices as (hi, lo) int pairs so hot comparisons never touch a boxed
   int64, key lengths, and suffix-blob handles.  The record keeps only
   what must be GC-scanned (values/layer links, sibling links) plus the
   cell index.  Layout within a cell:

     words 0..27   slice halves   slot i at (2i, 2i+1)
     words 28..41  key lengths    slot i at 28+i
     words 42..55  suffix handles slot i at 42+i  (0 = no suffix)

   Field protection is unchanged from the boxed layout: cell words are
   written only under the node's lock and read racily by validated
   readers (the pool's masked accessors make stale reads memory-safe). *)
and 'v border = {
  bversion : Version.t Atomic.t;
  mutable bparent : 'v interior option;
  bpool : Pool.t;
  bcell : int;
  blv : 'v link_or_value array;
  bperm : int Atomic.t;
  mutable bnext : 'v border option;
  mutable bprev : 'v border option;
  mutable blowhi : int;
  mutable blowlo : int;
  mutable bstale : int;
}

and 'v interior = {
  iversion : Version.t Atomic.t;
  mutable iparent : 'v interior option;
  mutable inkeys : int;
  ikeys : int array; (* flat (hi, lo) pairs: key j at (2j, 2j+1) *)
  ichild : 'v node array; (* slot j > inkeys holds the tree's [no_child] *)
}

let width = Permutation.width

let suffix_len_marker = 9

let klen_off = 2 * width
let suf_off = 3 * width

(* Cell accessors; slot-indexed, allocation-free. *)
let slice_hi b slot = Pool.get b.bpool (b.bcell + (2 * slot))
let slice_lo b slot = Pool.get b.bpool (b.bcell + (2 * slot) + 1)
let keylen b slot = Pool.get b.bpool (b.bcell + klen_off + slot)
let suffix_handle b slot = Pool.get b.bpool (b.bcell + suf_off + slot)

let set_slice b slot ~hi ~lo =
  Pool.set b.bpool (b.bcell + (2 * slot)) hi;
  Pool.set b.bpool (b.bcell + (2 * slot) + 1) lo

let set_keylen b slot l = Pool.set b.bpool (b.bcell + klen_off + slot) l
let set_suffix_handle b slot h = Pool.set b.bpool (b.bcell + suf_off + slot) h

let suffix_string b slot =
  let h = suffix_handle b slot in
  if h = 0 then None else Some (Pool.blob_to_string b.bpool h)

(* The hot suffix check: does slot's blob equal key[pos..]?  Race-safe,
   allocation-free. *)
let suffix_matches b slot key ~pos =
  let h = suffix_handle b slot in
  h <> 0 && Pool.blob_matches_key b.bpool h key ~pos

let new_border ~pool ~isroot ~locked ~lowhi ~lowlo =
  let base =
    if locked then Version.make_locked ~isroot ~isborder:true
    else Version.make ~isroot ~isborder:true
  in
  {
    bversion = Atomic.make base;
    bparent = None;
    bpool = pool;
    bcell = Pool.alloc_cell pool;
    blv = Array.make width Empty;
    bperm = Atomic.make (Permutation.empty :> int);
    bnext = None;
    bprev = None;
    blowhi = lowhi;
    blowlo = lowlo;
    bstale = 0;
  }

(* A dead, childless interior no descent can reach: its version is
   deleted and it has no keys or child slots.  Only its identity matters;
   empty child slots point at it and are tested with [==]. *)
let no_child () =
  Interior
    {
      iversion = Atomic.make (Version.with_deleted (Version.make ~isroot:false ~isborder:false));
      iparent = None;
      inkeys = 0;
      ikeys = [||];
      ichild = [||];
    }

let new_interior ~isroot ~locked ~no_child =
  let base =
    if locked then Version.make_locked ~isroot ~isborder:false
    else Version.make ~isroot ~isborder:false
  in
  {
    iversion = Atomic.make base;
    iparent = None;
    inkeys = 0;
    ikeys = Array.make (2 * width) 0;
    ichild = Array.make (width + 1) no_child;
  }

let ikey_hi p j = Array.unsafe_get p.ikeys (2 * j)
let ikey_lo p j = Array.unsafe_get p.ikeys ((2 * j) + 1)

let set_ikey p j ~hi ~lo =
  p.ikeys.(2 * j) <- hi;
  p.ikeys.((2 * j) + 1) <- lo

let copy_ikey p ~dst ~src =
  p.ikeys.(2 * dst) <- p.ikeys.(2 * src);
  p.ikeys.((2 * dst) + 1) <- p.ikeys.((2 * src) + 1)

let same_node a b =
  match (a, b) with
  | Border x, Border y -> x == y
  | Interior x, Interior y -> x == y
  | Border _, Interior _ | Interior _, Border _ -> false

let version_of = function Border b -> b.bversion | Interior i -> i.iversion

let parent_of = function Border b -> b.bparent | Interior i -> i.iparent

let set_parent n p =
  match n with Border b -> b.bparent <- p | Interior i -> i.iparent <- p

let border_perm b = Permutation.of_int (Atomic.get b.bperm)

(* Order border entries by (slice, min(len, 9)); slices compare as (hi,
   lo) int pairs — both halves nonnegative < 2^32, so plain int compares
   give the unsigned byte order. *)
let entry_cmp h1 l1 len1 h2 l2 len2 =
  if h1 <> h2 then compare h1 h2
  else if l1 <> l2 then compare l1 l2
  else compare (min len1 suffix_len_marker) (min len2 suffix_len_marker)

(* Compare the entry in [slot] against a probe key, reading straight from
   the cell — the descent/search hot path. *)
let entry_cmp_at b slot ~kshi ~kslo ~klen =
  let h = slice_hi b slot in
  if h <> kshi then compare h kshi
  else
    let l = slice_lo b slot in
    if l <> kslo then compare l kslo
    else compare (min (keylen b slot) suffix_len_marker) klen

let pp_border fmt b =
  let perm = border_perm b in
  Format.fprintf fmt "@[<v>border lowkey=%a version=%a perm=%a@," Key.pp_slice
    (Key.parts_to_slice b.blowhi b.blowlo)
    Version.pp (Atomic.get b.bversion) Permutation.pp perm;
  List.iter
    (fun slot ->
      let kind =
        match b.blv.(slot) with
        | Empty -> "empty"
        | Value _ -> "value"
        | Layer _ -> "layer"
      in
      Format.fprintf fmt "  slot=%d slice=%a len=%d kind=%s suffix=%s@," slot
        Key.pp_slice
        (Key.parts_to_slice (slice_hi b slot) (slice_lo b slot))
        (keylen b slot) kind
        (match suffix_string b slot with
        | Some s -> Printf.sprintf "%S" s
        | None -> "-"))
    (Permutation.live_slots perm);
  Format.fprintf fmt "@]"

let check_border b =
  let perm = border_perm b in
  if not (Permutation.check perm) then Error "malformed permutation"
  else begin
    let slots = Permutation.live_slots perm in
    let rec verify prev = function
      | [] -> Ok "ok"
      | slot :: rest -> (
          let hi = slice_hi b slot
          and lo = slice_lo b slot
          and l = keylen b slot in
          (match b.blv.(slot) with
          | Empty -> Error (Printf.sprintf "live slot %d is Empty" slot)
          | Value _ when l = suffix_len_marker && suffix_handle b slot = 0 ->
              Error (Printf.sprintf "slot %d: suffix entry without suffix" slot)
          | Value _ | Layer _ -> Ok "ok")
          |> function
          | Error _ as e -> e
          | Ok _ -> (
              match prev with
              | Some (ph, pl, pn) when entry_cmp ph pl pn hi lo l >= 0 ->
                  Error (Printf.sprintf "entries out of order at slot %d" slot)
              | _ -> verify (Some (hi, lo, l)) rest))
    in
    verify None slots
  end

(* Retire a dead border's off-heap storage: every still-owned suffix blob,
   then the cell.  Caller must have made the node unreachable for new
   readers (deleted bit set); pinned readers are covered by the epoch
   deferral. *)
let retire_storage b eh =
  for slot = 0 to width - 1 do
    let h = suffix_handle b slot in
    if h <> 0 then Pool.retire_blob b.bpool eh h
  done;
  Pool.retire_cell b.bpool eh b.bcell
