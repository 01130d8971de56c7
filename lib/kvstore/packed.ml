let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

(* Write [n] at [pos]; returns the position after it. *)
let rec set_varint b pos n =
  if n < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
    set_varint b (pos + 1) (n lsr 7)
  end

let pack columns =
  let n = Array.length columns in
  let size = ref (varint_size n) in
  for i = 0 to n - 1 do
    let l = String.length columns.(i) in
    size := !size + varint_size l + l
  done;
  let b = Bytes.create !size in
  let pos = ref (set_varint b 0 n) in
  for i = 0 to n - 1 do
    let c = columns.(i) in
    let l = String.length c in
    pos := set_varint b !pos l;
    Bytes.blit_string c 0 b !pos l;
    pos := !pos + l
  done;
  Bytes.unsafe_to_string b

(* The varint at [pos].  [pack] writes minimal varints, so the next
   field starts [varint_size] bytes on: readers need no cursor record. *)
let rec varint_from p pos shift acc =
  let b = Char.code p.[pos] in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from p (pos + 1) (shift + 7) acc

let varint p pos = varint_from p pos 0 0

let unpack p =
  let n = varint p 0 in
  let a = Array.make n "" in
  let pos = ref (varint_size n) in
  for i = 0 to n - 1 do
    let l = varint p !pos in
    let start = !pos + varint_size l in
    a.(i) <- String.sub p start l;
    pos := start + l
  done;
  a

let column p i =
  let n = varint p 0 in
  if i < 0 || i >= n then ""
  else begin
    let pos = ref (varint_size n) in
    for _ = 1 to i do
      let l = varint p !pos in
      pos := !pos + varint_size l + l
    done;
    let l = varint p !pos in
    String.sub p (!pos + varint_size l) l
  end

let select p cols = Array.of_list (List.map (column p) cols)
