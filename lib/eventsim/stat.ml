(* Sample statistics for simulated latencies.

   Samples are stored in full (experiments record at most a few hundred
   thousand), so exact percentiles and tail fractions are available — the
   paper's starvation result ("over 13% of acquisitions took more than 2 ms")
   is a tail fraction. *)

type t = {
  name : string;
  mutable samples : int array;
  mutable len : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
  mutable sorted : bool;
}

let create name =
  {
    name;
    samples = [||];
    len = 0;
    sum = 0.0;
    min_v = max_int;
    max_v = min_int;
    sorted = true;
  }

let name t = t.name

let add t v =
  let cap = Array.length t.samples in
  if t.len = cap then begin
    let ncap = if cap = 0 then 256 else cap * 2 in
    let samples = Array.make ncap 0 in
    Array.blit t.samples 0 samples 0 t.len;
    t.samples <- samples
  end;
  t.samples.(t.len) <- v;
  t.len <- t.len + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  t.sorted <- false

let count t = t.len

let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let min_value t = if t.len = 0 then 0 else t.min_v
let max_value t = if t.len = 0 then 0 else t.max_v

(* Sort [a.(lo .. hi)] ascending, in place. Monomorphic on ints, so no
   comparison goes through a closure: quicksort with a median-of-three
   pivot and Hoare's partition (a run of equal keys splits evenly), down to
   insertion sort on short ranges. It recurses into the shorter side and
   loops on the longer, so the stack stays O(log n); only an input built
   against the median of three makes it quadratic. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi) in
    let p =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let v = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- v;
        incr i;
        decr j
      end
    done;
    (* Now [a.(lo .. !j)] <= p <= [a.(!i .. hi)]. *)
    if !j - lo < hi - !i then begin
      sort_ints a lo !j;
      sort_ints a !i hi
    end
    else begin
      sort_ints a !i hi;
      sort_ints a lo !j
    end
  end

let ensure_sorted t =
  if not t.sorted then begin
    sort_ints t.samples 0 (t.len - 1);
    t.sorted <- true
  end

(* Nearest-rank percentile; [q] in [0,1]. *)
let percentile t q =
  if t.len = 0 then 0
  else begin
    ensure_sorted t;
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = int_of_float (ceil (q *. float_of_int t.len)) in
    let idx = max 0 (min (t.len - 1) (rank - 1)) in
    t.samples.(idx)
  end

let median t = percentile t 0.5

(* Fraction of samples strictly greater than the threshold. *)
let fraction_above t threshold =
  if t.len = 0 then 0.0
  else begin
    let n = ref 0 in
    for i = 0 to t.len - 1 do
      if t.samples.(i) > threshold then incr n
    done;
    float_of_int !n /. float_of_int t.len
  end

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = float_of_int t.samples.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int (t.len - 1))
  end

let clear t =
  t.len <- 0;
  t.sum <- 0.0;
  t.min_v <- max_int;
  t.max_v <- min_int;
  t.sorted <- true

let to_list t = Array.to_list (Array.sub t.samples 0 t.len)

let pp ppf t =
  Format.fprintf ppf "%s: n=%d mean=%.1f min=%d p50=%d p99=%d max=%d" t.name
    t.len (mean t) (min_value t) (median t) (percentile t 0.99) (max_value t)
