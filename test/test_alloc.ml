(* Minor-word pins: what one operation of each hot layer allocates in
   steady state, measured with [Gc.minor_words] around a loop inside one
   simulated process (after warm-up iterations, so first-touch tables and
   chains are built). Each bound is the measured value plus a little
   slack, so an allocation that creeps back onto a hot path fails here.
   Measured (OCaml 5.1.1, the default release profile): fault + unmap 979
   words, null RPC 387, MCS pair 0, elided wait 68, remote write and
   fetch-and-store 0, first lookup of an unbuilt bin 36, lookup on a
   walked bin 2, Rng.int 0, hooked MCS pair 9, hooked optimistic read 6. *)

open Eventsim
open Hector
open Locks
open Hkernel

let warm = 50
let n = 500

(* Minor words per call of [op], run in a process on [eng]. *)
let words_per_op eng op =
  let words = ref nan in
  Process.spawn eng (fun () ->
      for _ = 1 to warm do
        op ()
      done;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        op ()
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Engine.run eng;
  !words

let check name ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.1f minor words per operation (bound %.0f)" name
      words bound

let machine () =
  let eng = Engine.create () in
  (eng, Machine.create eng Config.hector)

(* Processor 0 works alone; the others idle in their RPC service loops. *)
let kernel ~cluster_size =
  let eng, machine = machine () in
  let kernel = Kernel.create machine ~cluster_size in
  Kernel.populate_page kernel ~vpage:1 ~master_cluster:0 ~frame:1;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  (eng, kernel, Kernel.ctx kernel 0)

(* A write fault on a page mastered in the faulting cluster, and the unmap
   that lets the next iteration fault again. *)
let test_page_fault () =
  let eng, kernel, ctx = kernel ~cluster_size:16 in
  words_per_op eng (fun () ->
      Memmgr.fault kernel ctx ~vpage:1 ~write:true;
      Memmgr.unmap kernel ctx ~vpage:1)
  |> check "uncontended fault + unmap" ~bound:1_050.

(* A null RPC to a processor in another cluster. *)
let test_null_rpc () =
  let eng, kernel, ctx = kernel ~cluster_size:4 in
  words_per_op eng (fun () ->
      ignore (Rpc.call (Kernel.rpc kernel) ctx ~target:4 (fun _ -> Rpc.Ok 0)))
  |> check "null RPC" ~bound:420.

let test_mcs_pair () =
  let eng, machine = machine () in
  let lock = Lock.make machine ~home:0 Lock.Mcs_h2 in
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  words_per_op eng (fun () ->
      lock.Lock.acquire ctx;
      lock.Lock.release ctx)
  |> check "H2-MCS acquire/release" ~bound:2.

(* A machine with the lockdep checker and the contention observer
   installed. *)
let hooked_machine () =
  let eng, machine = machine () in
  let n_procs = Machine.n_procs machine in
  Machine.set_verify machine (Some (Verify.create ~n_procs ()));
  Machine.set_obs machine (Some (Obs.create ~n_procs ()));
  (eng, machine)

(* The same pair reported to both sinks: its three events ([Wait],
   [Acquired], [Released]) are three words each, and the sinks keep their
   state in int columns, so they add nothing. *)
let test_hooked_mcs_pair () =
  let eng, machine = hooked_machine () in
  let lock = Lock.make machine ~home:0 Lock.Mcs_h2 in
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  words_per_op eng (fun () ->
      lock.Lock.acquire ctx;
      lock.Lock.release ctx)
  |> check "hooked H2-MCS acquire/release" ~bound:9.

(* A successful optimistic read under both sinks: a zero-length
   [Try_acquired]/[Released] pair, three words each. *)
let test_hooked_optimistic_read () =
  let eng, machine = hooked_machine () in
  let seq = Seqlock.create machine () in
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  words_per_op eng (fun () ->
      let v = Seqlock.read_begin seq ctx in
      if not (Seqlock.read_validate seq ctx v) then
        Alcotest.fail "an optimistic read with no writer failed")
  |> check "hooked seqlock read_begin + read_validate" ~bound:6.

(* A timed write and a fetch-and-store to another processor's PMM: each
   runs its value operation in line, with no closure per access. *)
let test_remote_access () =
  let eng, machine = machine () in
  let cell = Machine.alloc machine ~home:1 0 in
  words_per_op eng (fun () ->
      Machine.write machine ~proc:0 cell 1;
      ignore (Machine.fetch_and_store machine ~proc:0 cell 2))
  |> check "remote write + fetch_and_store" ~bound:0.

(* An interruptible pause of 10 000 cycles: one poll wait, elided, so its
   312 polls run as no events. *)
let test_elided_wait () =
  let eng, machine = machine () in
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  words_per_op eng (fun () -> Ctx.interruptible_pause ctx 10_000)
  |> check "elided interruptible_pause" ~bound:75.;
  if Engine.events_executed eng > 10 * (warm + n) then
    Alcotest.failf "%d events: the polls ran as events"
      (Engine.events_executed eng)

(* The first lookup of a bin of the SLO table (2^17 bins over 16 shards,
   10^6 dense untimed keys): the bin's head word and run slots, and only
   the element it returns. Building the bin's whole chain, about eight
   members at 16 words each, cost about 150. *)
let test_first_lookup () =
  let eng, machine = machine () in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins:(1 lsl 17)
      ~shards:16 ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  for k = 0 to 999_999 do
    Khash.insert_untimed table k ~status0:0 ~make:ignore
  done;
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  (* Consecutive keys fall in distinct bins: the hash is a bijection on
     the low 17 bits. *)
  let key = ref 0 in
  words_per_op eng (fun () ->
      ignore (Khash.lookup table ctx !key : unit Khash.elem option);
      incr key)
  |> check "first lookup of an unbuilt bin" ~bound:40.

(* A repeated optimistic lookup of one key on a bin of the SLO table that
   the warm-up has walked: the seqlock sample, the search and the
   validation allocate nothing, so the call costs only the [Some] it
   returns. A local recursive search closure and an optional seqlock
   sample cost 13. *)
let test_walked_lookup () =
  let eng, machine = machine () in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins:(1 lsl 17)
      ~shards:16 ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  for k = 0 to 999_999 do
    Khash.insert_untimed table k ~status0:0 ~make:ignore
  done;
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  words_per_op eng (fun () ->
      ignore (Khash.lookup table ctx 12_345 : unit Khash.elem option))
  |> check "lookup on a walked bin" ~bound:2.

let test_rng_int () =
  let eng, _ = machine () in
  let rng = Rng.create 1 in
  words_per_op eng (fun () -> ignore (Rng.int rng 1_000 : int))
  |> check "Rng.int" ~bound:0.

let suite =
  [
    Alcotest.test_case "uncontended page fault" `Quick test_page_fault;
    Alcotest.test_case "null RPC" `Quick test_null_rpc;
    Alcotest.test_case "MCS acquire/release pair" `Quick test_mcs_pair;
    Alcotest.test_case "hooked MCS acquire/release pair" `Quick
      test_hooked_mcs_pair;
    Alcotest.test_case "hooked optimistic read" `Quick
      test_hooked_optimistic_read;
    Alcotest.test_case "elided wait" `Quick test_elided_wait;
    Alcotest.test_case "remote write and atomic" `Quick test_remote_access;
    Alcotest.test_case "first lookup of an unbuilt bin" `Quick
      test_first_lookup;
    Alcotest.test_case "lookup on a walked bin" `Quick test_walked_lookup;
    Alcotest.test_case "Rng.int" `Quick test_rng_int;
  ]
