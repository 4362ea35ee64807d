(* Deterministic splittable PRNG (splitmix64).

   Every experiment derives its random streams from a fixed seed, so runs
   are reproducible bit-for-bit. Splitting gives independent streams to each
   simulated processor without coordination. *)

(* The 64-bit state, held unboxed in 8 bytes: a draw reads, advances and
   writes it back with no [int64] box and no write barrier. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

(* Uniform int in [0, bound), bound > 0. Modulo bias is irrelevant at our
   sample sizes; keep it simple. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so the conversion cannot overflow OCaml's 63-bit int
     into the negatives. *)
  let v =
    Int64.to_int (Int64.logand (next_int64 t) 0x3FFF_FFFF_FFFF_FFFFL)
  in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  (* 53 random bits into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

(* Geometric-ish jitter in [lo, hi] for de-synchronising workloads. *)
let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
