(* Quickstart: build a simulated HECTOR machine, run lock algorithms on it,
   and read the results.

   This walks the public API bottom-up:
   1. an event engine and a machine (the NUMA substrate);
   2. simulated processes on simulated processors;
   3. locks from the paper, uncontended and contended;
   4. the pre-packaged experiment runners.

   Run with: dune exec examples/quickstart.exe *)

open Eventsim
open Hector
open Locks

let () =
  (* 1. The machine: 4 stations x 4 processor-memory modules on a ring,
        16 MHz, memory at 10/19/23 cycles depending on distance. *)
  let cfg = Config.hector in
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  Format.printf "machine: %a@.@." Config.pp cfg;

  (* 2. A cell in processor 3's local memory, and two simulated processes
        reading it from different distances. *)
  let cell = Machine.alloc machine ~home:3 42 in
  let show_read proc =
    Process.spawn eng (fun () ->
        let t0 = Machine.now machine in
        let v = Machine.read machine ~proc cell in
        Format.printf "proc %2d read %d in %d cycles@." proc v
          (Machine.now machine - t0))
  in
  show_read 3 (* local: 10 cycles *);
  show_read 0 (* same station: 19 cycles *);
  show_read 12 (* across the ring: 23 cycles *);
  Engine.run eng;

  (* 3. An H2-MCS distributed lock under contention: four processors take
        turns; the lock hands off FIFO and everyone spins only on local
        memory. *)
  Format.printf "@.4 processors, 40 acquisitions each, H2-MCS:@.";
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let lock = Lock.make machine ~home:0 Lock.Mcs_h2 in
  let rng = Rng.create 1 in
  let total_wait = ref 0 in
  for proc = 0 to 3 do
    let ctx = Ctx.create machine ~proc (Rng.split rng) in
    Process.spawn eng (fun () ->
        for _ = 1 to 40 do
          let t0 = Machine.now machine in
          Lock.with_lock lock ctx (fun () -> Ctx.work ctx 100);
          total_wait := !total_wait + (Machine.now machine - t0 - 100)
        done)
  done;
  Engine.run eng;
  Format.printf "mean lock+unlock overhead: %.2f us@."
    (Config.us_of_cycles cfg (!total_wait / 160));

  (* 4. The packaged experiments: the Section 4.1.1 uncontended table. *)
  Format.printf "@.uncontended lock/unlock latencies (paper: 5.40 / 3.69 / 3.65 us):@.";
  List.iter
    (fun algo ->
      Format.printf "  %-10s %.2f us@." (Lock.algo_name algo)
        (Workloads.Uncontended.run algo).Workloads.Uncontended.pair_us)
    Workloads.Uncontended.algos
