(* Layer pins: the host cost of one operation of each layer, driven through
   public functions only. Inside the simulated run the fibers interleave, so
   a span's host interval cannot say what one call cost; these pins can,
   and the traced run reports them beside the layer's counts.

   Each pin times a loop of [ops] operations [reps] times over and reports
   the median in nanoseconds per operation. *)

open Eventsim
open Hector
open Locks
open Hkernel

let cfg = Config.hector
let reps = 5

let ns_per_op ~ops f =
  let per_rep () =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops
  in
  let xs = List.sort compare (List.init reps (fun _ -> per_rep ())) in
  List.nth xs (reps / 2)

(* Run [body] as one simulated process on a fresh machine. *)
let on_machine ?(cfg = cfg) body =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  Process.spawn eng (fun () -> body machine);
  Engine.run eng

(* Pop and push on a heap kept 16 deep, as in a 16-processor run. *)
let pqueue_push_pop ~ops =
  ns_per_op ~ops (fun () ->
      let q = Pqueue.create () in
      for i = 0 to 15 do
        Pqueue.push q ~time:(i * 37 land 255) ~seq:i ()
      done;
      for seq = 16 to ops + 15 do
        Pqueue.pop_payload q;
        Pqueue.push q ~time:(seq * 2654435761 land 0xffff) ~seq ()
      done)

let suspend_resume ~ops =
  ns_per_op ~ops (fun () ->
      let eng = Engine.create () in
      Process.spawn eng (fun () ->
          for _ = 1 to ops do
            Process.yield eng
          done);
      Engine.run eng)

(* A timed read by processor 0 of a cell homed on [home]: PMM 0 is its
   own, PMM 15 sits across the ring. *)
let machine_read ~home ~ops =
  ns_per_op ~ops (fun () ->
      on_machine (fun machine ->
          let cell = Machine.alloc machine ~home 0 in
          for _ = 1 to ops do
            ignore (Machine.read machine ~proc:0 cell)
          done))

(* An uncontended acquire/release pair. *)
let lock_pair algo ~ops =
  let cfg = if Lock.needs_cas algo then Config.with_cas cfg else cfg in
  ns_per_op ~ops (fun () ->
      on_machine ~cfg (fun machine ->
          let lock = Lock.make machine ~home:0 algo in
          let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
          for _ = 1 to ops do
            lock.Lock.acquire ctx;
            lock.Lock.release ctx
          done))

(* Processor 0 works alone on a kernel whose other processors idle in
   their RPC service loops. *)
let on_kernel ~cluster_size body =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel = Kernel.create machine ~cluster_size in
  Kernel.populate_page kernel ~vpage:1 ~master_cluster:0 ~frame:1;
  Kernel.spawn_idle_except kernel ~active:[ 0 ];
  Process.spawn eng (fun () -> body kernel (Kernel.ctx kernel 0));
  Engine.run eng

(* A write fault on a page mastered in the faulting cluster, then the
   unmap that lets the next iteration fault again. *)
let soft_fault ~ops =
  ns_per_op ~ops (fun () ->
      on_kernel ~cluster_size:16 (fun kernel ctx ->
          for _ = 1 to ops do
            Memmgr.fault kernel ctx ~vpage:1 ~write:true;
            Memmgr.unmap kernel ctx ~vpage:1
          done))

(* A null RPC to a processor in another cluster. *)
let rpc ~ops =
  ns_per_op ~ops (fun () ->
      on_kernel ~cluster_size:4 (fun kernel ctx ->
          for _ = 1 to ops do
            ignore (Rpc.call (Kernel.rpc kernel) ctx ~target:4 (fun _ -> Rpc.Ok 0))
          done))

(* The SLO table's shape: 16 shards over 2^17 bins. *)
let slo_table machine =
  Khash.create machine ~granularity:Khash.Sharded ~nbins:(1 lsl 17) ~shards:16
    ~vname:"pin" ~lock_algo:Lock.Mcs_h2
    ~homes:(List.init 16 (fun i -> i))

let fill table n =
  for k = 0 to n - 1 do
    ignore (Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
  done

let khash_insert_untimed ~ops =
  ns_per_op ~ops (fun () ->
      let machine = Machine.create (Engine.create ()) cfg in
      fill (slo_table machine) ops)

let khash_lookup ~elements ~ops =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let table = slo_table machine in
  fill table elements;
  ns_per_op ~ops (fun () ->
      let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
      Process.spawn eng (fun () ->
          for i = 1 to ops do
            ignore (Khash.lookup table ctx (i * 7919 mod elements))
          done);
      Engine.run eng)

(* The algorithms the workloads run: Figure 7's kernel locks and the
   NUMA-LOCKS field. *)
let lock_algos =
  List.sort_uniq compare (Hurricane.Experiments.fig7_algos @ Hurricane.Experiments.numa_algos)

(* "H1-MCS" -> "h1_mcs", "Spin(35us)" -> "spin_35us". *)
let metric_name algo =
  let s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | '0' .. '9' -> c
        | 'A' .. 'Z' -> Char.lowercase_ascii c
        | _ -> '_')
      (Lock.algo_name algo)
  in
  let parts = List.filter (( <> ) "") (String.split_on_char '_' s) in
  String.concat "_" parts

(* Every pin, in nanoseconds per operation. *)
let all () =
  [
    ("pin.pqueue_push_pop_ns", pqueue_push_pop ~ops:1_000_000);
    ("pin.suspend_resume_ns", suspend_resume ~ops:200_000);
    ("pin.remote_read_ns", machine_read ~home:15 ~ops:100_000);
    ("pin.local_read_ns", machine_read ~home:0 ~ops:100_000);
  ]
  @ List.map
      (fun a -> ("pin.lock_pair_ns." ^ metric_name a, lock_pair a ~ops:20_000))
      lock_algos
  @ [
      ("pin.soft_fault_ns", soft_fault ~ops:2_000);
      ("pin.rpc_ns", rpc ~ops:5_000);
      ("pin.khash_insert_untimed_ns", khash_insert_untimed ~ops:100_000);
      ("pin.khash_lookup_ns", khash_lookup ~elements:100_000 ~ops:20_000);
    ]
