(* The benchmark's clock: CLOCK_MONOTONIC through bechamel's noalloc
   stub, in integer nanoseconds.  (The repo's [Xutil.Clock.now_ns] is
   gettimeofday-based and too coarse to time a single request.) *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Back-to-back readings: the share that read the same value, and the
   median nonzero step — the clock's visible resolution on this host. *)
let step () =
  let n = 20_000 in
  let d = Array.make n 0 in
  let prev = ref (now ()) in
  for i = 0 to n - 1 do
    let t = now () in
    d.(i) <- t - !prev;
    prev := t
  done;
  let zeros = Array.fold_left (fun a x -> if x = 0 then a + 1 else a) 0 d in
  let pos = Array.of_list (List.filter (fun x -> x > 0) (Array.to_list d)) in
  Array.sort compare pos;
  let median = if Array.length pos = 0 then 0 else pos.(Array.length pos / 2) in
  (float_of_int zeros /. float_of_int n, median)
