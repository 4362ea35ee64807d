(* A word of simulated shared memory.

   Cells carry their home PMM so the machine can charge the right latency
   and queue on the right resources. The stored value is a plain int; lock
   words store qnode ids (with 0 as nil), reserve words store bit masks. *)

type t = {
  mutable value : int;
  home : int; (* PMM id *)
  id : int; (* allocation order on its machine, for diagnostics *)
  label : string;
  (* Cache-coherence bookkeeping, used only when the machine configuration
     enables hardware coherence (the Section 5.2 discussion): which
     processors hold a valid cached copy, and which (if any) holds the line
     exclusive. *)
  mutable cached_by : int; (* processor bitmask *)
  mutable excl : int; (* processor id or -1 *)
}

let create ?(label = "") ~id ~home value =
  { value; home; id; label; cached_by = 0; excl = -1 }

let home t = t.home
let id t = t.id
let label t = t.label

(* Raw, untimed access: only for initialisation and for assertions in
   tests. Simulated code must go through Machine/Ctx. *)
let peek t = t.value
let poke t v = t.value <- v

let pp ppf t =
  Format.fprintf ppf "cell#%d%s@pmm%d=%d" t.id
    (if t.label = "" then "" else "(" ^ t.label ^ ")")
    t.home t.value

(* Cache-state helpers (untimed; the machine charges the costs). *)
let cached_by t proc = t.cached_by land (1 lsl proc) <> 0
let exclusive_of t = t.excl

let cache_fill t proc = t.cached_by <- t.cached_by lor (1 lsl proc)

let cache_take_exclusive t proc =
  t.cached_by <- 1 lsl proc;
  t.excl <- proc

let cache_drop_exclusive t = t.excl <- -1

let cache_flush t =
  t.cached_by <- 0;
  t.excl <- -1
