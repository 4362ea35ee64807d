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
   they should.

   A bin costs one word, [Unbuilt], until an operation first walks it.
   Its head word is a cell only once a search first reads it: the cell
   takes the id [create] reserved for it and the home eager creation gave
   it, so ids, homes and cache state are as if it had been built there.

   A table's first untimed (set-up) inserts, while dense — consecutive
   keys from a non-negative one, one seeded status, one payload
   (physically), cell ids and homes in sequence, no bin walked, a
   power-of-two bin count, not [Fine] — are one run record and build no
   element. A bin's members are found by arithmetic: the keys congruent
   to [b * knuth^-1] modulo [nbins]. The first timed search or insert
   that walks a bin gives it a slot per member, each holding the run's
   pristine sentinel. A search reads a pristine member's status word by
   arithmetic (its home and seeded value come from the run) and builds,
   in its slot, only the member it returns; an insert links in front of
   the slots. A remove, [iter_untimed] or [find_untimed] builds the
   bin's remaining members into their slots and walks a plain chain. On
   a cache-coherent machine a read fills the line, so a search builds
   each member before it reads it. A table pre-populated with 10^6 keys
   and visited on a few thousand keys builds only those keys. Any other
   untimed insert builds and links its element at once, which walks its
   bin and so closes the run. Cell ids are numbered per machine, so only
   the table's own machine can break a run's id sequence. *)

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

(* A bin: [Unbuilt] until an operation first walks it, then its chain,
   newest first, of [Elem]s ending in [Nil] or in [Run], the bin's run
   members, newest first. A [Run] slot holds the run's [pristine]
   sentinel until its member is built there; a slot is never emptied or
   rebuilt, so every walker of the array sees one element per member. A
   search's first read of the bin's head word puts the word in front as
   [Head]; nothing else reads it, so a bin that is only walked costs no
   more than its elements. *)
type 'a bin =
  | Unbuilt
  | Nil
  | Elem of 'a elem * 'a bin (* the rest is [Nil], an [Elem] or a [Run] *)
  | Run of 'a elem array
  | Head of { head : Cell.t; mutable chain : 'a bin (* never a [Head] *) }

(* The dense run of a table's first untimed inserts: member [m] has key
   [key0 + m], status word [status0], cell id [id0 + m], home
   [elem_homes.((h0 + m) mod length elem_homes)] and [payload]. The next
   member's home index is [hnext]. [pristine] marks an unbuilt member's
   slot: an element of no key (-1) and no cell id (-1), never linked. *)
type 'a run = {
  key0 : int;
  status0 : int;
  id0 : int;
  h0 : int;
  payload : 'a;
  pristine : 'a elem;
  mutable n : int;
  mutable hnext : int;
}

type 'a t = {
  machine : Machine.t;
  granularity : granularity;
  nbins : int;
  mask : int; (* [nbins - 1] when [nbins] is a power of two, else -1 *)
  nshards : int; (* 1 unless [Sharded] *)
  bins : 'a bin array;
  head_id0 : int; (* bin [b]'s head word takes cell id [head_id0 + b] *)
  mutable run : 'a run option; (* the first untimed inserts' dense run *)
  mutable walked : bool; (* some bin has been walked: no run may grow *)
  lock : Lock.t; (* coarse table lock (Hybrid / Coarse) *)
  shard_locks : Lock.t array; (* Sharded: one coarse lock per shard *)
  seqlocks : Seqlock.t array; (* Sharded: per-shard sequence words *)
  bin_locks : Spin_lock.t array; (* Fine mode *)
  backoff : Backoff.t; (* for reserve-bit waiters *)
  homes : int array; (* the cluster's PMMs (for Fine-mode bin locks) *)
  elem_homes : int array; (* PMMs the table's storage lives on *)
  mutable next_home : int; (* index in [elem_homes] of the next home *)
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

let knuth = 2654435761

(* [knuth]'s inverse modulo 2^63 (Newton's iteration; each step doubles
   the correct low bits, from 3), so [key * knuth land mask = b] exactly
   when [key land mask = b * knuth_inv land mask]. *)
let knuth_inv =
  let x = ref knuth in
  for _ = 1 to 5 do
    x := !x * (2 - (knuth * !x))
  done;
  !x

(* Multiplicative hash, reduced with the shared Euclidean modulus: [abs
   (key * knuth) mod nbins] overflows to [min_int] for adversarial keys,
   where [abs] is a no-op and the "bin" goes negative — the same pathology
   {!Clustering.positive_mod} was introduced for. For a power-of-two
   [nbins] that modulus is the low bits, in two's complement for every
   int. *)
let bin_of_key t key =
  if t.mask >= 0 then (key * knuth) land t.mask
  else Clustering.positive_mod (key * knuth) t.nbins

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
  let elem_homes =
    let n = Array.length homes in
    if n = 1 then [| lock_home |]
    else [| lock_home; homes.(((n / 2) + 1) mod n) |]
  in
  (* Lock classes and cell ids are taken in this order, the bin heads'
     ids last, so both number as they did when [create] built the heads. *)
  let rcls = Verify.lock_class (vname ^ ".reserve") in
  let bin_locks =
    match granularity with
    | Fine ->
      Array.init nbins (fun i ->
          Spin_lock.create machine
            ~home:homes.(i mod Array.length homes)
            ~vclass:(vname ^ ".bin")
            (fine_backoff machine))
    | Hybrid | Coarse | Sharded -> [||]
  in
  let seqlocks =
    match granularity with
    | Sharded ->
      Array.init nshards (fun s ->
          Seqlock.create machine ~home:(shard_home s)
            ~vclass:(Printf.sprintf "%s.seq%d" vname s)
            ())
    | Hybrid | Coarse | Fine -> [||]
  in
  let shard_locks =
    match granularity with
    | Sharded ->
      Array.init nshards (fun s ->
          Lock.make machine ~home:(shard_home s)
            ~vclass:(Printf.sprintf "%s.shard%d" vname s)
            lock_algo)
    | Hybrid | Coarse | Fine -> [||]
  in
  let lock =
    Lock.make machine ~home:lock_home ~vclass:(vname ^ ".lock") lock_algo
  in
  let head_id0 = Machine.reserve_ids machine nbins in
  {
    machine;
    granularity;
    nbins;
    mask = (if nbins land (nbins - 1) = 0 then nbins - 1 else -1);
    nshards;
    bins = Array.make nbins Unbuilt;
    head_id0;
    run = None;
    walked = false;
    lock;
    shard_locks;
    seqlocks;
    bin_locks;
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
    rcls;
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

(* The index in [elem_homes] of the next element's home: the storage PMMs
   in turn, in global insert order. *)
let next_home_index t =
  let h = t.next_home in
  t.next_home <- (if h + 1 = Array.length t.elem_homes then 0 else h + 1);
  h

(* Bin [b]'s head word, built at its first read: homed on the table lock's
   PMM, or on its shard's under [Sharded]. *)
let head t b =
  match t.bins.(b) with
  | Head h -> h.head
  | (Unbuilt | Nil | Elem _ | Run _) as chain ->
    let homes = t.homes in
    let home =
      match t.granularity with
      | Sharded -> homes.(b mod t.nshards mod Array.length homes)
      | Hybrid | Coarse | Fine -> homes.(Array.length homes / 2)
    in
    let head = Machine.alloc_reserved t.machine ~id:(t.head_id0 + b) ~home 0 in
    t.bins.(b) <- Head { head; chain };
    head

let bin_head t b =
  match t.bins.(b) with
  | Head h -> Some h.head
  | Unbuilt | Nil | Elem _ | Run _ -> None

(* -- elements and the run ------------------------------------------------ *)

(* The element on PMM [home]: its status word seeded with [status0] (e.g.
   already reserved, for placeholder descriptors — the combining-tree
   trick) and taking cell id [id], reserved by the caller, plus, in Fine
   mode, its spin lock. No label: Verify names reserve words by class and
   cell id. *)
let build_elem t key ~id ~home ~status0 ~payload ~reserver =
  {
    key;
    status = Machine.alloc_reserved t.machine ~id ~home status0;
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

(* Build an element on the table's next storage PMM, unlinked and untimed.
   [make] builds the payload given the element's home PMM, so payload cells
   can be co-located with the element; the status cell's id is reserved
   after them. *)
let make_elem t key ~status0 ~make ~reserver =
  let home = t.elem_homes.(next_home_index t) in
  let payload = make home in
  let id = Machine.reserve_ids t.machine 1 in
  build_elem t key ~id ~home ~status0 ~payload ~reserver

(* Take an untimed insert into the table's run if it extends it: the run
   starts at the table's first untimed insert (power-of-two [nbins], not
   [Fine], whose elements carry locks) and grows while no bin has been
   walked and each insert brings the next key, cell id and home index, the
   run's status and the very same payload. Every key is >= 0, so none
   wraps. An insert that fails any of these is linked at once, which walks
   its bin: the run is closed for good. *)
let extend_run t key ~status0 ~hidx ~id payload =
  if t.walked || key < 0 then false
  else
    match t.run with
    | None when t.mask >= 0 && t.granularity <> Fine ->
      let pristine =
        build_elem t (-1) ~id:(-1) ~home:t.elem_homes.(hidx) ~status0 ~payload
          ~reserver:(-1)
      in
      t.run <-
        Some
          {
            key0 = key;
            status0;
            id0 = id;
            h0 = hidx;
            payload;
            pristine;
            n = 1;
            hnext = t.next_home;
          };
      true
    | None -> false
    | Some r ->
      let next =
        key = r.key0 + r.n && id = r.id0 + r.n && status0 = r.status0
        && payload == r.payload && hidx = r.hnext
      in
      if next then begin
        r.n <- r.n + 1;
        r.hnext <- t.next_home
      end;
      next

let the_run t =
  match t.run with
  | Some r -> r
  | None -> invalid_arg "Khash: run slots in a table with no run"

let member_home t r m =
  t.elem_homes.((r.h0 + m) mod Array.length t.elem_homes)

(* Run member [m], built. *)
let member t r m =
  build_elem t (r.key0 + m) ~status0:r.status0 ~id:(r.id0 + m)
    ~home:(member_home t r m) ~payload:r.payload ~reserver:(-1)

(* Bin [b]'s newest run member: the run's last key congruent to
   [b * knuth_inv] modulo [nbins], less [key0]. Negative when the bin has
   none; the next older member is [nbins] lower. *)
let top_member t r b =
  let last = r.key0 + r.n - 1 in
  last - ((last - (b * knuth_inv)) land t.mask) - r.key0

(* Build the run's members [m], [m - nbins], ... down to its first. Top
   level and tail-mod-cons, so a bin's build costs what eager building
   did: the element, its status cell and one [Elem]. *)
let[@tail_mod_cons] rec build_run t r m =
  if m < 0 then Nil else Elem (member t r m, build_run t r (m - t.nbins))

(* Slot [j] of a bin's run slots (member [top - j * nbins]), built in
   place if pristine. *)
let slot t r slots ~top j =
  let e = slots.(j) in
  if e != r.pristine then e
  else begin
    let e = member t r (top - (j * t.nbins)) in
    slots.(j) <- e;
    e
  end

(* Bin [b]'s chain as stored, built or not. *)
let stored t b =
  match t.bins.(b) with
  | Head h -> h.chain
  | (Unbuilt | Nil | Elem _ | Run _) as chain -> chain

let store t b chain =
  match t.bins.(b) with
  | Head h -> h.chain <- chain
  | Unbuilt | Nil | Elem _ | Run _ -> t.bins.(b) <- chain

(* Bin [b]'s chain as a timed search or insert walks it: on its first
   walk, its run members as pristine slots ([Nil] when it has none). A
   walk closes the run. *)
let walk t b =
  match stored t b with
  | Unbuilt ->
    t.walked <- true;
    let chain =
      match t.run with
      | None -> Nil
      | Some r ->
        let top = top_member t r b in
        if top < 0 then Nil
        else Run (Array.make ((top / t.nbins) + 1) r.pristine)
    in
    store t b chain;
    chain
  | chain -> chain

let rec has_slots = function
  | Elem (_, rest) -> has_slots rest
  | Run _ -> true
  | Unbuilt | Nil | Head _ -> false

(* [chain] with its run slots built in place and made [Elem]s. *)
let[@tail_mod_cons] rec build_slots t b = function
  | Elem (e, rest) -> Elem (e, build_slots t b rest)
  | Run slots ->
    let r = the_run t in
    let top = top_member t r b in
    for j = 0 to Array.length slots - 1 do
      ignore (slot t r slots ~top j : _ elem)
    done;
    Array.fold_right (fun e rest -> Elem (e, rest)) slots Nil
  | (Unbuilt | Nil | Head _) as chain -> chain

(* Bin [b]'s chain, every member built: on its first walk, its run
   members, newest first, and afterwards its run slots, built in the
   same slots, so a walker of the old slots sees these elements. A walk
   closes the run. *)
let chain t b =
  match stored t b with
  | Unbuilt ->
    t.walked <- true;
    let chain =
      match t.run with
      | None -> Nil
      | Some r -> build_run t r (top_member t r b)
    in
    store t b chain;
    chain
  | chain when has_slots chain ->
    let chain = build_slots t b chain in
    store t b chain;
    chain
  | chain -> chain

(* The built elements of a chain: run slots still pristine are skipped. *)
let rec iter_built t f = function
  | Elem (e, rest) ->
    f e;
    iter_built t f rest
  | Run slots ->
    let pristine = (the_run t).pristine in
    Array.iter (fun e -> if e != pristine then f e) slots
  | Unbuilt | Nil | Head _ -> ()

(* -- operations that require the protecting lock to be held ------------- *)

(* Probe a bin's run slots from slot [j] on, as [search_with] probes a
   chain. A pristine member's status word has not been touched since the
   run began, so without caches its read is charged by arithmetic (home
   and value from the run) and only the member found is built, in its
   slot. A member built during that read is read as its cell: the value
   the read of the built element would return. On a coherent machine a
   read fills the line, so each member is built before it is read. *)
let rec probe_slots ctx t r slots ~top j key ~found ~absent =
  if j = Array.length slots then absent ()
  else begin
    t.probes <- t.probes + 1;
    let m = top - (j * t.nbins) in
    let v =
      if
        slots.(j) == r.pristine
        && not (Machine.config t.machine).Config.cache_coherent
      then begin
        Ctx.read_untouched ctx ~home:(member_home t r m);
        let e = slots.(j) in
        if e == r.pristine then r.status0 else Cell.peek e.status
      end
      else Ctx.read ctx (slot t r slots ~top j).status
    in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if r.key0 + m = key then found (slot t r slots ~top j) v
    else probe_slots ctx t r slots ~top (j + 1) key ~found ~absent
  end

(* Probe bin [b]'s chain for [key], one header read per element examined.
   Top level, not local to [search_with], so a search builds no closure. *)
let rec probe_chain ctx t b key ~found ~absent = function
  | Elem (e, rest) ->
    t.probes <- t.probes + 1;
    let v = Ctx.read ctx e.status in
    Ctx.instr ctx ~reg:1 ~br:1 ();
    if e.key = key then found e v
    else probe_chain ctx t b key ~found ~absent rest
  | Run slots ->
    let r = the_run t in
    probe_slots ctx t r slots ~top:(top_member t r b) 0 key ~found ~absent
  | Unbuilt | Nil | Head _ -> absent ()

(* Search a chain: one read of the bin-head word (which lives beside the
   lock, as the table header does on real hardware), then one header read
   per element examined. [found e v] is the element with [key] and the
   status word its probe read; [absent ()] is called when there is none. *)
let search_with ctx t key ~found ~absent =
  t.searches <- t.searches + 1;
  let b = bin_of_key t key in
  ignore (Ctx.read ctx (head t b));
  probe_chain ctx t b key ~found ~absent (walk t b)

let search_locked ctx t key =
  search_with ctx t key ~found:(fun e _ -> Some e) ~absent:(fun () -> None)

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

(* Push onto the head of the key's chain, in front of any run slots
   (host-side; timed callers charge the header write). *)
let link t elem =
  let b = bin_of_key t elem.key in
  store t b (Elem (elem, walk t b));
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
  let[@tail_mod_cons] rec drop = function
    | Elem (e, rest) when e.key = key ->
      found := true;
      rest
    | Elem (e, rest) -> Elem (e, drop rest)
    | (Unbuilt | Nil | Run _ | Head _) as rest -> rest
  in
  store t b (drop (chain t b));
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

(* Under [key]'s protecting lock, search and try to reserve the element
   found: [`Got e] if this processor now holds it, [`Busy e] if another
   does, and [absent ()] if the key is not there. *)
let reserve_step t ctx key ~absent =
  with_key_locked t ctx key (fun () ->
      search_with ctx t key ~absent ~found:(fun e st ->
          if Reserve.try_reserve ~known:st ~cls:t.rcls ctx e.status then begin
            e.reserver <- Ctx.proc ctx;
            `Got e
          end
          else `Busy e))

(* A reserve-bit conflict on [e]: wait, off the lock, for the bit to clear. *)
let wait_reserved t ctx e =
  t.reserve_conflicts <- t.reserve_conflicts + 1;
  Reserve.spin_until_clear ~cls:t.rcls ctx t.backoff e.status

(* Acquire the protecting lock, search, and reserve the element, retrying
   the whole dance whenever the element is found reserved by someone else
   (Figure 1b). Returns [None] if the key is absent. *)
let rec reserve_existing t ctx key =
  match reserve_step t ctx key ~absent:(fun () -> `Absent) with
  | `Absent -> None
  | `Got e -> Some e
  | `Busy e ->
    wait_reserved t ctx e;
    reserve_existing t ctx key

(* Like [reserve_existing], but when the key is absent insert a reserved
   placeholder built by [make] under the same coarse-lock hold, so exactly
   one processor per cluster goes remote for the data while the others wait
   on the placeholder's reserve bit. *)
let rec reserve_or_insert t ctx key ~make =
  match
    reserve_step t ctx key ~absent:(fun () ->
        `Inserted (insert_locked ctx t key ~status0:1 ~make))
  with
  | `Inserted _ as r -> r
  | `Got e -> `Reserved e
  | `Busy e ->
    wait_reserved t ctx e;
    reserve_or_insert t ctx key ~make

(* Non-blocking reservation attempt: used by RPC service handlers, which
   must fail with a potential-deadlock indication rather than spin
   (Section 2.3). *)
let try_reserve_existing t ctx key =
  match reserve_step t ctx key ~absent:(fun () -> `Absent) with
  | `Absent -> `Absent
  | `Got e -> `Reserved e
  | `Busy _ ->
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

(* Read-only lookup. Under [Sharded] this is the optimistic read path:
   sample the shard's sequence word, search the chain unlocked (the same
   search and charges as the locked path, on a snapshot), validate.
   A writer-busy sample or failed validation falls back to the locked
   search — one bounded retry through the lock, no unbounded spinning.
   The other granularities always use the locked path. *)
let lookup t ctx key =
  match t.granularity with
  | Hybrid | Coarse | Fine -> lookup_locked t ctx key
  | Sharded -> (
    let sq = t.seqlocks.(shard_of_key t key) in
    let seq = Seqlock.read_begin sq ctx in
    if seq < 0 then begin
      t.optimistic_fallbacks <- t.optimistic_fallbacks + 1;
      lookup_locked t ctx key
    end
    else
      let r = search_locked ctx t key in
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
   before the simulation starts). The home is picked, [make] called and the
   status cell's id reserved now, in insert order, as for a timed insert.
   The insert then extends the table's run, whose members are built when
   an operation keeps them ({!walk}, {!chain}), or its element is built
   and linked at once. No live processor set a seeded reserve bit, so a
   crash sweep has no corpse to attribute it to. *)
let insert_untimed t key ~status0 ~make =
  let hidx = next_home_index t in
  let home = t.elem_homes.(hidx) in
  let payload = make home in
  let id = Machine.reserve_ids t.machine 1 in
  if extend_run t key ~status0 ~hidx ~id payload then
    t.n_elems <- t.n_elems + 1
  else link t (build_elem t key ~id ~home ~status0 ~payload ~reserver:(-1))

(* Untimed whole-table iteration, for tests and invariant checks. *)
let iter_untimed t f =
  for b = 0 to t.nbins - 1 do
    iter_built t f (chain t b)
  done

(* Untimed keyed lookup: walks [key]'s bin only. *)
let find_untimed t key =
  let rec find = function
    | Elem (e, rest) -> if e.key = key then Some e else find rest
    | Unbuilt | Nil | Run _ | Head _ -> None
  in
  find (chain t (bin_of_key t key))

let mem_untimed t key = Option.is_some (find_untimed t key)

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
   probe load per dead-owned reservation. Run members not yet built are
   skipped: none has a reserver, and a Fine table, whose elements carry
   locks, never starts a run. *)
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
  (* Built elements only: {!stored}, not {!chain}. *)
  for b = 0 to t.nbins - 1 do
    iter_built t
      (fun e ->
        (match e.elem_lock with
        | Some l -> bump (Spin_lock.Core.recover l ctx)
        | None -> ());
        if e.reserver >= 0 && not (Machine.proc_alive t.machine e.reserver)
        then begin
          bump (Reserve.clear_orphan ~cls:t.rcls ctx e.status ~dead:e.reserver);
          e.reserver <- -1
        end)
      (stored t b)
  done;
  !repairs
