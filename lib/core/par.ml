(* A small work-stealing-free domain pool for embarrassingly parallel maps.

   The bench matrix is a list of independent experiment cells: each one
   builds its own Engine + Machine + seeded Rng, and a machine numbers its
   own cells, so cells share no mutable state beyond Verify's class
   interning and lock-instance counter, which never reach exported
   results. [map] hands cells to [jobs] domains through a
   single atomic work index and writes each result into its input's slot, so
   the output order — and therefore any serialisation of it — is identical
   to the sequential order no matter how the domains interleave.

   Exceptions are captured per slot and re-raised in input order once every
   domain has joined: a crash in cell 7 surfaces as the same exception the
   sequential run would raise, after the pool has quiesced. *)

type 'a outcome =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

let map ?(jobs = 1) f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (slots.(i) <-
           (match f input.(i) with
            | r -> Done r
            | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
        worker ()
      end
    in
    let spawned = min jobs n - 1 in
    let domains = Array.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* First failure in input order, for determinism. *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      slots;
    Array.to_list
      (Array.map
         (function Done r -> r | Pending | Raised _ -> assert false)
         slots)
  end
