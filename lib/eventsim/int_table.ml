(* A map from non-negative int keys to fixed-width int records, by open
   addressing with linear probing over flat int arrays. A [Hashtbl]
   binding is a bucket cell (and, for a tuple key, the tuple) stored into
   a long-lived table, so each is promoted at the next minor collection;
   here a binding allocates nothing until the table doubles. Deletion
   shifts the rest of the probe run back (no tombstones), so every key
   stays reachable from its home slot without a gap. *)

type t = {
  width : int;
  mutable keys : int array; (* -1 marks a free slot *)
  mutable vals : int array; (* slot [s]'s field [f] at [s * width + f] *)
  mutable size : int;
}

let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let create ~width =
  if width < 0 then invalid_arg "Int_table.create: negative width";
  { width; keys = Array.make 16 (-1); vals = Array.make (16 * width) 0;
    size = 0 }

let[@inline] get t s f = t.vals.((s * t.width) + f)
let[@inline] set t s f v = t.vals.((s * t.width) + f) <- v

let rec probe keys mask k i =
  let x = keys.(i) in
  if x = k || x < 0 then i else probe keys mask k ((i + 1) land mask)

(* The slot holding [k], or the free slot where it would go. *)
let slot t k =
  let mask = Array.length t.keys - 1 in
  probe t.keys mask k (hash k land mask)

let find t k =
  if k < 0 then -1
  else
    let s = slot t k in
    if t.keys.(s) < 0 then -1 else s

let rec add t k =
  if k < 0 then invalid_arg "Int_table.add: negative key";
  let s = slot t k in
  if t.keys.(s) >= 0 then s
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    grow t;
    add t k
  end
  else begin
    t.keys.(s) <- k;
    Array.fill t.vals (s * t.width) t.width 0;
    t.size <- t.size + 1;
    s
  end

and grow t =
  let keys = t.keys and vals = t.vals and w = t.width in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n (-1);
  t.vals <- Array.make (n * w) 0;
  t.size <- 0;
  Array.iteri
    (fun s k ->
      if k >= 0 then Array.blit vals (s * w) t.vals (add t k * w) w)
    keys

(* Whether slot [h] lies cyclically in [(hole, j]]: an entry homed there
   cannot move back into [hole] without leaving its probe run. *)
let between hole h j =
  if hole <= j then hole < h && h <= j else hole < h || h <= j

let rec shift_back t mask hole j =
  let j = (j + 1) land mask in
  let k = t.keys.(j) in
  if k < 0 then t.keys.(hole) <- -1
  else if between hole (hash k land mask) j then shift_back t mask hole j
  else begin
    t.keys.(hole) <- k;
    Array.blit t.vals (j * t.width) t.vals (hole * t.width) t.width;
    shift_back t mask j j
  end

let remove t k =
  let s = find t k in
  if s >= 0 then begin
    t.size <- t.size - 1;
    shift_back t (Array.length t.keys - 1) s s
  end

let iter f t = Array.iteri (fun s k -> if k >= 0 then f k s) t.keys
