(* Chained hash table under the hybrid locking strategy (Figures 1 and 2).

   In the default [Hybrid] mode a single coarse-grained lock protects the
   whole table, but it is held only long enough to search a chain and flip a
   reserve bit in the target element; the element then stays reserved (a
   fine-grain, one-bit lock) for the long part of the operation. Waiters for
   a reserved element release the coarse lock and spin on the element's
   status word with exponential backoff, then re-acquire the coarse lock and
   search again — the element may have moved or died in between.

   The two ablation modes implement the strategies the hybrid is compared
   against in Section 2.4:
   - [Coarse]: the coarse lock is held across the whole operation;
   - [Fine]:   per-bin spin locks plus a per-element spin lock (Figure 1a),
               with bin-then-element ordering.

   [Sharded] scales the hybrid: the bin array is split into [shards] groups,
   each protected by its own coarse lock homed on a distinct PMM — the
   paper's clustering idea applied *within* one table, so reserve-bit dances
   on different shards never touch the same lock word or memory module. On
   top of each shard sits a {!Locks.Seqlock}: chain-mutating writers bump it
   inside the shard lock, and read-only lookups ({!lookup}) probe the chain
   with plain loads, validating the sequence afterwards and falling back to
   the locked path on conflict.

   Chain traversal charges one timed read per element examined (the header
   word holding key and status), so long chains and remote bins cost what
   they should. *)

open Hector
open Locks

type granularity = Hybrid | Coarse | Fine | Sharded

let granularity_name = function
  | Hybrid -> "hybrid"
  | Coarse -> "coarse"
  | Fine -> "fine"
  | Sharded -> "sharded"

type 'a elem = {
  key : int;
  status : Cell.t; (* header word: reserve bits; homed where the element is *)
  elem_lock : Spin_lock.t option; (* Fine mode only *)
  payload : 'a;
  mutable reserver : int;
      (* processor holding the write reservation, -1 when none. Host-side
         bookkeeping only — on real hardware the owner is implicit in the
         thread that set the bit; the simulator records it so a crash
         sweep can tell an orphaned reservation from a live one. *)
}

type 'a t = {
  machine : Machine.t;
  granularity : granularity;
  nbins : int;
  nshards : int; (* 1 unless [Sharded] *)
  bins : 'a elem list array;
  bin_heads : Cell.t array; (* chain-head words, co-located with the lock *)
  lock : Lock.t; (* coarse table lock (Hybrid / Coarse) *)
  shard_locks : Lock.t array; (* Sharded: one coarse lock per shard *)
  seqlocks : Seqlock.t array; (* Sharded: per-shard sequence words *)
  bin_locks : Spin_lock.t array; (* Fine mode *)
  backoff : Backoff.t; (* for reserve-bit waiters *)
  homes : int array; (* the cluster's PMMs (for Fine-mode bin locks) *)
  elem_homes : int array; (* PMMs the table's storage lives on *)
  mutable next_home : int;
  mutable n_elems : int;
  mutable searches : int;
  mutable probes : int;
  mutable reserve_conflicts : int; (* found element reserved, had to wait *)
  mutable optimistic_hits : int; (* lookups served by the unlocked path *)
  mutable optimistic_fallbacks : int; (* lookups that fell back to the lock *)
  rcls : Verify.lock_class; (* lock-order class of this table's reserve bits *)
  elem_vclass : string; (* class name for Fine-mode element locks *)
}

let fine_backoff machine =
  Backoff.of_us (Machine.config machine) ~max_us:35.0 ()

(* Multiplicative hash, reduced with the shared Euclidean modulus: [abs
   (key * knuth) mod nbins] overflows to [min_int] for adversarial keys,
   where [abs] is a no-op and the "bin" goes negative — the same pathology
   {!Clustering.positive_mod} was introduced for. *)
let bin_of_key t key = Clustering.positive_mod (key * 2654435761) t.nbins

let create ?(granularity = Hybrid) ?(nbins = 64) ?(shards = 4)
    ?(vname = "khash") ~lock_algo ~homes machine =
  if homes = [] then invalid_arg "Khash.create: empty home list";
  if nbins <= 0 then invalid_arg "Khash.create: nbins must be positive";
  let nshards = match granularity with Sharded -> shards | _ -> 1 in
  if nshards <= 0 || nshards > nbins then
    invalid_arg
      (Printf.sprintf "Khash.create: bad shard count %d (nbins %d)" nshards
         nbins);
  let homes = Array.of_list homes in
  (* The table is a unit (Figure 2): its lock word, bin heads and elements
     live together in the cluster's memory, on the PMM mid-cluster and its
     neighbour. Holders therefore walk the same modules that waiters'
     lock-word traffic loads — the coupling behind the paper's second-order
     effects. In [Sharded] mode each shard group (lock, sequence word and
     bin heads) is instead homed on its own PMM, so shards load distinct
     memory modules. *)
  let lock_home = homes.(Array.length homes / 2) in
  let shard_home s = homes.(s mod Array.length homes) in
  let shard_of_bin b = b mod nshards in
  let elem_homes =
    let n = Array.length homes in
    if n = 1 then [| lock_home |]
    else [| lock_home; homes.(((n / 2) + 1) mod n) |]
  in
  {
    machine;
    granularity;
    nbins;
    nshards;
    bins = Array.make nbins [];
    bin_heads =
      Array.init nbins (fun i ->
          let home =
            match granularity with
            | Sharded -> shard_home (shard_of_bin i)
            | Hybrid | Coarse | Fine -> lock_home
          in
          Machine.alloc machine ~home 0);
    lock = Lock.make machine ~home:lock_home ~vclass:(vname ^ ".lock") lock_algo;
    shard_locks =
      (match granularity with
      | Sharded ->
        Array.init nshards (fun s ->
            Lock.make machine ~home:(shard_home s)
              ~vclass:(Printf.sprintf "%s.shard%d" vname s)
              lock_algo)
      | Hybrid | Coarse | Fine -> [||]);
    seqlocks =
      (match granularity with
      | Sharded ->
        Array.init nshards (fun s ->
            Seqlock.create machine ~home:(shard_home s)
              ~vclass:(Printf.sprintf "%s.seq%d" vname s)
              ())
      | Hybrid | Coarse | Fine -> [||]);
    bin_locks =
      (match granularity with
      | Fine ->
        Array.init nbins (fun i ->
            Spin_lock.create machine
              ~home:homes.(i mod Array.length homes)
              ~vclass:(vname ^ ".bin")
              (fine_backoff machine))
      | Hybrid | Coarse | Sharded -> [||]);
    backoff = fine_backoff machine;
    homes;
    elem_homes;
    next_home = 0;
    n_elems = 0;
    searches = 0;
    probes = 0;
    reserve_conflicts = 0;
    optimistic_hits = 0;
    optimistic_fallbacks = 0;
    rcls = Verify.lock_class (vname ^ ".reserve");
    elem_vclass = vname ^ ".elem";
  }

let granularity t = t.granularity
let size t = t.n_elems
let searches t = t.searches
let probes t = t.probes
let reserve_conflicts t = t.reserve_conflicts
let optimistic_hits t = t.optimistic_hits
let optimistic_fallbacks t = t.optimistic_fallbacks
let coarse_lock t = t.lock
let shards t = t.nshards
let shard_of_key t key = bin_of_key t key mod t.nshards
let shard_lock t s = t.shard_locks.(s)
let seqlock t s = t.seqlocks.(s)

let pick_home t =
  let h = t.elem_homes.(t.next_home mod Array.length t.elem_homes) in
  t.next_home <- t.next_home + 1;
  h

(* -- operations that require the protecting lock to be held ------------- *)

(* Search a chain: one read of the bin-head word (which lives beside the
   lock, as the table header does on real hardware), then one header read
   per element examined. *)
let search_locked_status ctx t key =
  t.searches <- t.searches + 1;
  ignore (Ctx.read ctx t.bin_heads.(bin_of_key t key));
  let costs_probe e =
    t.probes <- t.probes + 1;
    let v = Ctx.read ctx e.status in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    v
  in
  let rec go = function
    | [] -> None
    | e :: rest ->
      let v = costs_probe e in
      if e.key = key then Some (e, v) else go rest
  in
  go t.bins.(bin_of_key t key)

let search_locked ctx t key =
  Option.map fst (search_locked_status ctx t key)

(* The seqlock covering [key]'s shard, when the granularity has one. Chain
   mutations bump it inside the shard lock so unlocked readers can detect
   overlap. *)
let seq_of_key t key =
  match t.granularity with
  | Sharded -> Some t.seqlocks.(shard_of_key t key)
  | Hybrid | Coarse | Fine -> None

let seq_write_begin t ctx key =
  match seq_of_key t key with
  | Some sq -> Seqlock.write_begin sq ctx
  | None -> ()

let seq_write_end t ctx key =
  match seq_of_key t key with
  | Some sq -> Seqlock.write_end sq ctx
  | None -> ()

(* Build an element on the table's next storage PMM, unlinked and untimed.
   [status0] seeds the status word (e.g. already reserved, for placeholder
   descriptors — the combining-tree trick). [make] builds the payload given
   the element's home PMM, so payload cells can be co-located with the
   element. No label: Verify names reserve words by class and cell id. *)
let make_elem t key ~status0 ~make ~reserver =
  let home = pick_home t in
  let payload = make home in
  {
    key;
    status = Machine.alloc t.machine ~home status0;
    elem_lock =
      (match t.granularity with
      | Fine ->
        Some
          (Spin_lock.create t.machine ~home ~vclass:t.elem_vclass
             (fine_backoff t.machine))
      | Hybrid | Coarse | Sharded -> None);
    payload;
    reserver;
  }

(* Push onto the head of the key's chain (host-side; timed callers charge
   the header write). *)
let link t elem =
  let b = bin_of_key t elem.key in
  t.bins.(b) <- elem :: t.bins.(b);
  t.n_elems <- t.n_elems + 1

let insert_locked ctx t key ~status0 ~make =
  let elem =
    make_elem t key ~status0 ~make
      ~reserver:(if status0 land 1 <> 0 then Ctx.proc ctx else -1)
  in
  seq_write_begin t ctx key;
  link t elem;
  (* Link the element into the chain: one header write. *)
  Ctx.write ctx elem.status status0;
  seq_write_end t ctx key;
  (* A placeholder born reserved (the combining-tree trick) belongs to its
     inserter from this moment; tell the checker, since no [try_reserve]
     will ever run for it. *)
  if status0 land 1 <> 0 && Ctx.hooked ctx then
    Ctx.emit ctx
      (Verify.Reserve_set
         {
           cls = t.rcls;
           word = Cell.id elem.status;
           label = Cell.label elem.status;
         });
  elem

let remove_locked ctx t key =
  let b = bin_of_key t key in
  let found = ref false in
  seq_write_begin t ctx key;
  t.bins.(b) <-
    List.filter
      (fun e ->
        if e.key = key && not !found then begin
          found := true;
          false
        end
        else true)
      t.bins.(b);
  if !found then begin
    t.n_elems <- t.n_elems - 1;
    (* Unlink write. *)
    Ctx.work ctx 10
  end;
  seq_write_end t ctx key;
  !found

(* -- hybrid-mode public operations --------------------------------------- *)

(* Every coarse-lock hold sets the processor's soft interrupt mask first
   (Stodolsky et al., Section 3.2): an RPC service that would otherwise be
   taken mid-hold — and spin on the very lock its host processor holds — is
   deferred to the per-processor work queue and runs when the mask clears.
   The flag sits at the top of the lock hierarchy. The hold is
   exception-protected: a raising [f] must not leave the lock held and the
   mask set, or it wedges every other processor in the cluster. *)
let with_coarse t ctx f = Lock.with_lock_masked t.lock ctx f

(* The lock protecting [key]: the table lock, or [key]'s shard lock under
   [Sharded]. Same hold discipline (soft mask, exception-protected). *)
let with_key_locked t ctx key f =
  match t.granularity with
  | Sharded -> Lock.with_lock_masked t.shard_locks.(shard_of_key t key) ctx f
  | Hybrid | Coarse | Fine -> with_coarse t ctx f

(* Acquire the protecting lock, search, and reserve the element, retrying
   the whole dance whenever the element is found reserved by someone else
   (Figure 1b). Returns [None] if the key is absent. *)
let rec reserve_existing t ctx key =
  let outcome =
    with_key_locked t ctx key (fun () ->
        match search_locked_status ctx t key with
        | None -> `Absent
        | Some (e, st) ->
          if Reserve.try_reserve ~known:st ~cls:t.rcls ctx e.status then begin
            e.reserver <- Ctx.proc ctx;
            `Got e
          end
          else `Busy e)
  in
  match outcome with
  | `Absent -> None
  | `Got e -> Some e
  | `Busy e ->
    t.reserve_conflicts <- t.reserve_conflicts + 1;
    Reserve.spin_until_clear ~cls:t.rcls ctx t.backoff e.status;
    reserve_existing t ctx key

(* Like [reserve_existing], but when the key is absent insert a reserved
   placeholder built by [make] under the same coarse-lock hold, so exactly
   one processor per cluster goes remote for the data while the others wait
   on the placeholder's reserve bit. *)
let rec reserve_or_insert t ctx key ~make =
  let outcome =
    with_key_locked t ctx key (fun () ->
        match search_locked_status ctx t key with
        | None -> `New (insert_locked ctx t key ~status0:1 ~make)
        | Some (e, st) ->
          if Reserve.try_reserve ~known:st ~cls:t.rcls ctx e.status then begin
            e.reserver <- Ctx.proc ctx;
            `Got e
          end
          else `Busy e)
  in
  match outcome with
  | `New e -> `Inserted e
  | `Got e -> `Reserved e
  | `Busy e ->
    t.reserve_conflicts <- t.reserve_conflicts + 1;
    Reserve.spin_until_clear ~cls:t.rcls ctx t.backoff e.status;
    reserve_or_insert t ctx key ~make

(* Non-blocking reservation attempt: used by RPC service handlers, which
   must fail with a potential-deadlock indication rather than spin
   (Section 2.3). *)
let try_reserve_existing t ctx key =
  let outcome =
    with_key_locked t ctx key (fun () ->
        match search_locked_status ctx t key with
        | None -> `Absent
        | Some (e, st) ->
          if Reserve.try_reserve ~known:st ~cls:t.rcls ctx e.status then begin
            e.reserver <- Ctx.proc ctx;
            `Got e
          end
          else `Busy)
  in
  match outcome with
  | `Absent -> `Absent
  | `Got e -> `Reserved e
  | `Busy ->
    t.reserve_conflicts <- t.reserve_conflicts + 1;
    `Would_deadlock

let release_reserve ctx e =
  e.reserver <- -1;
  Reserve.clear ctx e.status

(* Remove a key; the caller must hold the element's reservation, which dies
   with the element. *)
let remove t ctx key =
  with_key_locked t ctx key (fun () -> remove_locked ctx t key)

(* Insert a fresh, unreserved element. *)
let insert t ctx key ~make =
  with_key_locked t ctx key (fun () -> insert_locked ctx t key ~status0:0 ~make)

(* -- read-only lookups ---------------------------------------------------- *)

(* Locked lookup: search under [key]'s protecting lock (bin lock in Fine
   mode). The safe path every granularity supports. *)
let lookup_locked t ctx key =
  match t.granularity with
  | Fine ->
    let bin_lock = t.bin_locks.(bin_of_key t key) in
    Spin_lock.acquire bin_lock ctx;
    Fun.protect
      ~finally:(fun () -> Spin_lock.release bin_lock ctx)
      (fun () -> search_locked ctx t key)
  | Hybrid | Coarse | Sharded ->
    with_key_locked t ctx key (fun () -> search_locked ctx t key)

(* Unlocked probe for the optimistic path: identical cost charging to
   [search_locked_status] (bin-head read, one header read per element).
   Runs against a chain snapshot; the seqlock validation decides whether
   the snapshot was consistent. *)
let search_unlocked ctx t key =
  t.searches <- t.searches + 1;
  ignore (Ctx.read ctx t.bin_heads.(bin_of_key t key));
  let rec go = function
    | [] -> None
    | e :: rest ->
      t.probes <- t.probes + 1;
      ignore (Ctx.read ctx e.status);
      Ctx.instr ctx ~reg:1 ~br:1 ();
      if e.key = key then Some e else go rest
  in
  go t.bins.(bin_of_key t key)

(* Read-only lookup. Under [Sharded] this is the optimistic read path:
   sample the shard's sequence word, probe the chain unlocked, validate.
   A writer-busy sample or failed validation falls back to the locked
   search — one bounded retry through the lock, no unbounded spinning.
   The other granularities always use the locked path. *)
let lookup t ctx key =
  match t.granularity with
  | Hybrid | Coarse | Fine -> lookup_locked t ctx key
  | Sharded -> (
    let sq = t.seqlocks.(shard_of_key t key) in
    match Seqlock.read_begin sq ctx with
    | None ->
      t.optimistic_fallbacks <- t.optimistic_fallbacks + 1;
      lookup_locked t ctx key
    | Some seq ->
      let r = search_unlocked ctx t key in
      if Seqlock.read_validate sq ctx seq then begin
        t.optimistic_hits <- t.optimistic_hits + 1;
        r
      end
      else begin
        t.optimistic_fallbacks <- t.optimistic_fallbacks + 1;
        lookup_locked t ctx key
      end)

(* -- granularity-dispatching operation ----------------------------------- *)

(* Run [f] on the element for [key] with the protection the configured
   granularity prescribes. This is the API the ablation experiment drives:
   - Hybrid/Sharded: reserve bit held during [f], the protecting (table or
     shard) lock only around search;
   - Coarse: coarse lock held during [f];
   - Fine:   bin spin lock around search, element spin lock during [f].
   All arms release their locks and clear the soft mask if [f] raises. *)
let with_element t ctx key f =
  match t.granularity with
  | Hybrid | Sharded -> (
    match reserve_existing t ctx key with
    | None -> None
    | Some e ->
      Some
        (Fun.protect ~finally:(fun () -> release_reserve ctx e) (fun () -> f e)))
  | Coarse ->
    Lock.with_lock t.lock ctx (fun () ->
        match search_locked ctx t key with
        | None -> None
        | Some e -> Some (f e))
  | Fine -> (
    let bin_lock = t.bin_locks.(bin_of_key t key) in
    Spin_lock.acquire bin_lock ctx;
    let found =
      match search_locked ctx t key with
      | None ->
        Spin_lock.release bin_lock ctx;
        None
      | Some e ->
        let el =
          match e.elem_lock with
          | Some l -> l
          | None -> assert false
        in
        (* Bin-then-element order, with the bin lock released only once the
           element lock is held (Figure 1a). *)
        Spin_lock.acquire el ctx;
        Spin_lock.release bin_lock ctx;
        Some (e, el)
      | exception exn ->
        Spin_lock.release bin_lock ctx;
        raise exn
    in
    match found with
    | None -> None
    | Some (e, el) ->
      Some
        (Fun.protect
           ~finally:(fun () -> Spin_lock.release el ctx)
           (fun () -> f e)))

(* Untimed insertion for experiment setup (pre-populating descriptors
   before the simulation starts). Same element as a timed insert, Fine-mode
   element lock and its {!Verify} class included, so lockdep sees
   pre-populated and live elements identically. No live processor set a
   seeded reserve bit, so a crash sweep has no corpse to attribute it to. *)
let insert_untimed t key ~status0 ~make =
  let elem = make_elem t key ~status0 ~make ~reserver:(-1) in
  link t elem;
  elem

(* Untimed whole-table iteration, for tests and invariant checks. *)
let iter_untimed t f = Array.iter (fun chain -> List.iter f chain) t.bins

let mem_untimed t key =
  List.exists (fun e -> e.key = key) t.bins.(bin_of_key t key)

(* -- crash repair --------------------------------------------------------- *)

(* Sweep the table after fail-stop crashes: force the release of any
   protecting lock whose holder died (coarse, shard, and Fine-mode bin and
   element locks), roll forward any shard sequence word a dead writer left
   odd, and clear reserve bits whose recorded owner is dead. Returns the
   number of repairs performed.

   Per-shard order matters: the sequence word must be even again *before*
   the shard lock's recovery hands it to a successor, whose own
   [write_begin] asserts an even word. The roll itself cannot race a live
   writer because the corpse still notionally holds the shard lock while
   we repair. Free when nobody died — every check is host-side except one
   probe load per dead-owned reservation. *)
let recover t ctx =
  let repairs = ref 0 in
  let bump b = if b then incr repairs in
  Array.iteri
    (fun s lk ->
      bump (Seqlock.recover_write t.seqlocks.(s) ctx);
      bump (lk.Lock.recover ctx))
    t.shard_locks;
  bump (t.lock.Lock.recover ctx);
  Array.iter (fun l -> bump (Spin_lock.Core.recover l ctx)) t.bin_locks;
  iter_untimed t (fun e ->
      (match e.elem_lock with
      | Some l -> bump (Spin_lock.Core.recover l ctx)
      | None -> ());
      if e.reserver >= 0 && not (Machine.proc_alive t.machine e.reserver)
      then begin
        bump (Reserve.clear_orphan ~cls:t.rcls ctx e.status ~dead:e.reserver);
        e.reserver <- -1
      end);
  !repairs
