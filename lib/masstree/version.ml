open Xutil.Intcmp

type t = int

let locked_bit = 1
let inserting_bit = 2
let splitting_bit = 4
let deleted_bit = 8
let isroot_bit = 16
let isborder_bit = 32
let vinsert_shift = 6
let vsplit_shift = 30
let counter_mask = 0xFFFFFF (* 24 bits each *)
let vinsert_unit = 1 lsl vinsert_shift
let vsplit_unit = 1 lsl vsplit_shift
let vinsert_field = counter_mask lsl vinsert_shift
let vsplit_field = counter_mask lsl vsplit_shift

let make ~isroot ~isborder =
  (if isroot then isroot_bit else 0) lor if isborder then isborder_bit else 0

let make_locked ~isroot ~isborder = make ~isroot ~isborder lor locked_bit

let locked v = v land locked_bit <> 0
let inserting v = v land inserting_bit <> 0
let splitting v = v land splitting_bit <> 0
let deleted v = v land deleted_bit <> 0
let is_root v = v land isroot_bit <> 0
let is_border v = v land isborder_bit <> 0
let vinsert v = (v lsr vinsert_shift) land counter_mask
let vsplit v = (v lsr vsplit_shift) land counter_mask

let with_inserting v = v lor inserting_bit
let with_splitting v = v lor splitting_bit
let with_deleted v = v lor deleted_bit lor splitting_bit
let with_root flag v = if flag then v lor isroot_bit else v land lnot isroot_bit

let dirty v = v land (inserting_bit lor splitting_bit) <> 0

let changed before after = (before lxor after) land lnot locked_bit <> 0

(* Schedule points (lib/schedsim; no-ops unless a harness is attached).
   Each names a window the §4.5–§4.6 argument depends on; see
   docs/CONCURRENCY.md for the full map. *)
let sp_stable = Schedpoint.define "ver.stable.snap"
let sp_stable_spin = Schedpoint.define "ver.stable.spin"
let sp_lock_acquired = Schedpoint.define "ver.lock.acquired"
let sp_lock_spin = Schedpoint.define "ver.lock.spin"
let sp_unlock_release = Schedpoint.define "ver.unlock.release"
let sp_unlock_released = Schedpoint.define "ver.unlock.released"
let sp_mark_inserting = Schedpoint.define "ver.mark.inserting"
let sp_mark_splitting = Schedpoint.define "ver.mark.splitting"
let sp_mark_deleted = Schedpoint.define "ver.mark.deleted"

let stable a =
  let v = Atomic.get a in
  if not (dirty v) then begin
    (* Yielding after the snapshot (not before) stretches the window
       between a reader's version read and its content reads. *)
    Schedpoint.hit sp_stable;
    v
  end
  else begin
    let b = Xutil.Backoff.create () in
    let rec spin () =
      let v = Atomic.get a in
      if dirty v then begin
        Schedpoint.spin sp_stable_spin;
        Xutil.Backoff.once b;
        spin ()
      end
      else begin
        Schedpoint.hit sp_stable;
        v
      end
    in
    spin ()
  end

let try_lock a =
  let v = Atomic.get a in
  (not (locked v)) && Atomic.compare_and_set a v (v lor locked_bit)

let lock a =
  if try_lock a then Schedpoint.hit sp_lock_acquired
  else begin
    let b = Xutil.Backoff.create () in
    let rec spin () =
      Schedpoint.spin sp_lock_spin;
      if try_lock a then Schedpoint.hit sp_lock_acquired
      else begin
        Xutil.Backoff.once b;
        spin ()
      end
    in
    spin ()
  end

let unlock a =
  let v = Atomic.get a in
  assert (locked v);
  (* Dirty bits (if any) are still visible here; concurrent readers are
     spinning in [stable] or about to fail validation. *)
  Schedpoint.hit sp_unlock_release;
  let v = Atomic.get a in
  let v = if inserting v then (v land lnot vinsert_field) lor ((v + vinsert_unit) land vinsert_field) else v in
  let v = if splitting v then (v land lnot vsplit_field) lor ((v + vsplit_unit) land vsplit_field) else v in
  (* One release store clears lock + dirty bits and publishes the counter
     bumps, exactly the paper's single-memory-write unlock. *)
  Atomic.set a (v land lnot (locked_bit lor inserting_bit lor splitting_bit));
  Schedpoint.hit sp_unlock_released

let mark_inserting a =
  Atomic.set a (with_inserting (Atomic.get a));
  Schedpoint.hit sp_mark_inserting

let mark_splitting a =
  Atomic.set a (with_splitting (Atomic.get a));
  Schedpoint.hit sp_mark_splitting

let mark_deleted a =
  Atomic.set a (with_deleted (Atomic.get a));
  Schedpoint.hit sp_mark_deleted

let set_root a flag =
  Atomic.set a (with_root flag (Atomic.get a))

let pp fmt v =
  Format.fprintf fmt "{%s%s%s%s%s%s vi=%d vs=%d}"
    (if locked v then "L" else "-")
    (if inserting v then "I" else "-")
    (if splitting v then "S" else "-")
    (if deleted v then "D" else "-")
    (if is_root v then "R" else "-")
    (if is_border v then "B" else "-")
    (vinsert v) (vsplit v)
