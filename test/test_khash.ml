(* Tests for the hybrid-locked chained hash table. *)

open Eventsim
open Hector
open Locks
open Hkernel

let make ?(granularity = Khash.Hybrid) ?(shards = 4) ?(lock_algo = Lock.Mcs_h2)
    () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let table =
    Khash.create machine ~granularity ~nbins:16 ~shards ~lock_algo
      ~homes:(List.init 16 (fun i -> i))
  in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (400 + p)) in
  (eng, machine, table, ctx)

let simulate eng f =
  Process.spawn eng f;
  Engine.run eng

let test_insert_and_find () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      ignore (Khash.insert table c 42 ~make:(fun _ -> "hello"));
      match Khash.reserve_existing table c 42 with
      | None -> Alcotest.fail "not found"
      | Some e ->
        Alcotest.(check string) "payload" "hello" e.Khash.payload;
        Alcotest.(check int) "key" 42 e.Khash.key;
        Khash.release_reserve c e);
  Alcotest.(check int) "size" 1 (Khash.size table)

let test_missing_key () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      Alcotest.(check bool) "absent" true
        (Khash.reserve_existing table (ctx 0) 7 = None))

let test_reserve_blocks_second_reserver () =
  let eng, machine, table, ctx = make () in
  let order = ref [] in
  simulate eng (fun () ->
      ignore (Khash.insert table (ctx 0) 1 ~make:(fun _ -> ())));
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      match Khash.reserve_existing table c 1 with
      | Some e ->
        order := ("a-got", Machine.now machine) :: !order;
        Ctx.work c 1000;
        Khash.release_reserve c e;
        order := ("a-rel", Machine.now machine) :: !order
      | None -> Alcotest.fail "a missing");
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 50;
      match Khash.reserve_existing table c 1 with
      | Some e ->
        order := ("b-got", Machine.now machine) :: !order;
        Khash.release_reserve c e
      | None -> Alcotest.fail "b missing");
  Engine.run eng;
  match List.rev !order with
  | [ ("a-got", _); ("a-rel", t_rel); ("b-got", t_b) ] ->
    Alcotest.(check bool) "b waited for a's release" true (t_b >= t_rel);
    Alcotest.(check bool) "conflict recorded" true
      (Khash.reserve_conflicts table >= 1)
  | other ->
    Alcotest.failf "unexpected order: %s"
      (String.concat "," (List.map fst other))

let test_reserve_or_insert_placeholder () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      (match Khash.reserve_or_insert table c 9 ~make:(fun _ -> "new") with
      | `Inserted e ->
        Alcotest.(check string) "fresh payload" "new" e.Khash.payload;
        (* Placeholder is born reserved: the combining-tree trick. *)
        Alcotest.(check bool) "born reserved" true
          (Reserve.write_reserved e.Khash.status);
        Khash.release_reserve c e
      | `Reserved _ -> Alcotest.fail "expected insertion");
      match Khash.reserve_or_insert table c 9 ~make:(fun _ -> "other") with
      | `Reserved e ->
        Alcotest.(check string) "existing payload" "new" e.Khash.payload;
        Khash.release_reserve c e
      | `Inserted _ -> Alcotest.fail "duplicate insertion")

let test_try_reserve_existing_fails_fast () =
  let eng, _, table, ctx = make () in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      ignore (Khash.insert table c 5 ~make:(fun _ -> ()));
      match Khash.reserve_existing table c 5 with
      | Some e ->
        Ctx.work c 2000;
        Khash.release_reserve c e
      | None -> Alcotest.fail "missing");
  Process.spawn eng (fun () ->
      let c = ctx 1 in
      Process.pause eng 700;
      (* While reserved: the non-blocking path must report the conflict. *)
      (match Khash.try_reserve_existing table c 5 with
      | `Would_deadlock -> ()
      | `Absent -> Alcotest.fail "should exist"
      | `Reserved _ -> Alcotest.fail "should be reserved by proc 0");
      match Khash.try_reserve_existing table c 999 with
      | `Absent -> ()
      | _ -> Alcotest.fail "999 should be absent");
  Engine.run eng

let test_remove () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      ignore (Khash.insert table c 3 ~make:(fun _ -> ()));
      Alcotest.(check bool) "removed" true (Khash.remove table c 3);
      Alcotest.(check bool) "gone" true (Khash.reserve_existing table c 3 = None);
      Alcotest.(check bool) "second remove false" false (Khash.remove table c 3));
  Alcotest.(check int) "size back to zero" 0 (Khash.size table)

let test_search_charges_probes () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      for k = 0 to 31 do
        ignore (Khash.insert table c k ~make:(fun _ -> ()))
      done;
      let before = Khash.probes table in
      (match Khash.reserve_existing table c 17 with
      | Some e -> Khash.release_reserve c e
      | None -> Alcotest.fail "missing");
      Alcotest.(check bool) "probes counted" true (Khash.probes table > before))

let test_with_element_all_granularities () =
  List.iter
    (fun granularity ->
      let eng, _, table, ctx = make ~granularity () in
      let hits = ref 0 in
      simulate eng (fun () ->
          let c = ctx 0 in
          ignore (Khash.insert table c 11 ~make:(fun _ -> ())));
      for p = 0 to 3 do
        Process.spawn eng (fun () ->
            let c = ctx p in
            for _ = 1 to 10 do
              match Khash.with_element table c 11 (fun _ -> incr hits) with
              | Some () -> ()
              | None -> Alcotest.fail "element vanished"
            done)
      done;
      Engine.run eng;
      Alcotest.(check int)
        (Khash.granularity_name granularity ^ " all ops ran")
        40 !hits)
    [ Khash.Hybrid; Khash.Coarse; Khash.Fine; Khash.Sharded ]

let test_with_element_missing () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      Alcotest.(check bool) "None for missing" true
        (Khash.with_element table (ctx 0) 123 (fun _ -> ()) = None))

let test_untimed_iteration () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      List.iter
        (fun k -> ignore (Khash.insert table c k ~make:(fun _ -> k * 10)))
        [ 1; 2; 3; 4; 5 ]);
  let keys = ref [] in
  Khash.iter_untimed table (fun e -> keys := e.Khash.key :: !keys);
  Alcotest.(check (list int)) "all keys" [ 1; 2; 3; 4; 5 ]
    (List.sort compare !keys);
  Alcotest.(check bool) "mem" true (Khash.mem_untimed table 3);
  Alcotest.(check bool) "not mem" false (Khash.mem_untimed table 9)

let test_coarse_lock_masks_interrupts () =
  (* with_coarse must set the soft mask so services cannot deadlock on the
     holder's own coarse lock. *)
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      Khash.with_coarse table c (fun () ->
          Alcotest.(check bool) "masked inside" true (Ctx.soft_masked c));
      Alcotest.(check bool) "unmasked outside" false (Ctx.soft_masked c))

(* The lock that protects [key]'s chain: the shard lock under [Sharded],
   the table lock otherwise. *)
let key_lock table key =
  match Khash.granularity table with
  | Khash.Sharded -> Khash.shard_lock table (Khash.shard_of_key table key)
  | Khash.Hybrid | Khash.Coarse | Khash.Fine -> Khash.coarse_lock table

exception Body_failed

let test_with_element_exception_safety () =
  List.iter
    (fun granularity ->
      let name = Khash.granularity_name granularity in
      let eng, _, table, ctx = make ~granularity () in
      simulate eng (fun () ->
          let c = ctx 0 in
          ignore (Khash.insert table c 11 ~make:(fun _ -> ()));
          (match Khash.with_element table c 11 (fun _ -> raise Body_failed) with
          | exception Body_failed -> ()
          | _ -> Alcotest.fail (name ^ ": exception swallowed"));
          Alcotest.(check bool) (name ^ ": soft mask cleared") false
            (Ctx.soft_masked c);
          Alcotest.(check bool) (name ^ ": protecting lock free") true
            ((key_lock table 11).Lock.is_free ());
          Khash.iter_untimed table (fun e ->
              Alcotest.(check bool) (name ^ ": reserve bit cleared") false
                (Reserve.write_reserved e.Khash.status);
              match e.Khash.elem_lock with
              | Some l ->
                Alcotest.(check bool) (name ^ ": element lock released") false
                  (Spin_lock.is_held l)
              | None -> ());
          (* The table is still usable from the same processor. *)
          match Khash.with_element table c 11 (fun _ -> ()) with
          | Some () -> ()
          | None -> Alcotest.fail (name ^ ": element lost")))
    [ Khash.Hybrid; Khash.Coarse; Khash.Fine; Khash.Sharded ]

let test_with_coarse_exception_safety () =
  let eng, _, table, ctx = make () in
  simulate eng (fun () ->
      let c = ctx 0 in
      (match Khash.with_coarse table c (fun () -> raise Body_failed) with
      | exception Body_failed -> ()
      | _ -> Alcotest.fail "exception swallowed");
      Alcotest.(check bool) "lock released" true
        ((Khash.coarse_lock table).Lock.is_free ());
      Alcotest.(check bool) "mask cleared" false (Ctx.soft_masked c);
      (* ... and the section is immediately usable again. *)
      Khash.with_coarse table c (fun () ->
          Alcotest.(check bool) "masked again" true (Ctx.soft_masked c)))

(* The element [key] of [table], found by untimed iteration (which builds
   every pending entry). *)
let find_untimed table key =
  let found = ref None in
  Khash.iter_untimed table (fun e -> if e.Khash.key = key then found := Some e);
  match !found with
  | Some e -> e
  | None -> Alcotest.failf "key %d not in the table" key

let test_fine_untimed_insert_vclass () =
  let _, _, table, _ = make ~granularity:Khash.Fine () in
  Khash.insert_untimed table 7 ~status0:0 ~make:(fun _ -> ());
  match (find_untimed table 7).Khash.elem_lock with
  | None -> Alcotest.fail "Fine element must carry a spin lock"
  | Some l ->
    Alcotest.(check string) "untimed insert uses the table's element class"
      "khash.elem"
      (Verify.class_name (Spin_lock.vclass l))

let test_bin_of_key_corners () =
  let _, _, table, _ = make () in
  List.iter
    (fun k ->
      let b = Khash.bin_of_key table k in
      Alcotest.(check bool)
        (Printf.sprintf "bin_of_key %d in range (got %d)" k b)
        true
        (b >= 0 && b < 16))
    [ min_int; min_int + 1; -1; 0; 1; max_int; max_int - 1; 2654435761 ]

let prop_bin_of_key_in_range =
  let _, _, table, _ = make () in
  QCheck.Test.make ~name:"bin_of_key total and in [0,nbins) for every int"
    ~count:1000 QCheck.int (fun k ->
      let b = Khash.bin_of_key table k in
      b >= 0 && b < 16)

(* For a power-of-two bin count the bin is the hash's low bits, which in
   two's complement is the Euclidean modulus for every int. *)
let prop_bin_of_key_low_bits =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let tables =
    List.map
      (fun nbins ->
        ( nbins,
          Khash.create machine ~nbins ~lock_algo:Lock.Mcs_h2 ~homes:[ 0; 1 ] ))
      [ 1; 2; 16; 1024 ]
  in
  QCheck.Test.make ~name:"bin_of_key = positive_mod on power-of-two tables"
    ~count:1000
    QCheck.(
      make ~print:Print.int
        Gen.(frequency [ (8, int); (1, oneofl [ min_int; max_int; -1 ]) ]))
    (fun k ->
      List.for_all
        (fun (nbins, table) ->
          Khash.bin_of_key table k
          = Clustering.positive_mod (k * 2654435761) nbins)
        tables)

let make_sharded_raw seed =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins:16 ~shards:4
      ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  let ctx proc = Ctx.create machine ~proc (Rng.create (seed + (31 * proc))) in
  (eng, table, ctx)

let prop_sharded_mutual_exclusion =
  QCheck.Test.make ~name:"sharded: with_element is mutually exclusive per key"
    ~count:25
    QCheck.(triple (int_range 2 6) (int_range 1 12) (int_range 0 10000))
    (fun (p, ops, seed) ->
      let eng, table, ctx = make_sharded_raw seed in
      let nkeys = 8 in
      for k = 0 to nkeys - 1 do
        ignore (Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
      done;
      let inside = Array.make nkeys 0 in
      let bad = ref false in
      let done_ops = ref 0 in
      for proc = 0 to p - 1 do
        Process.spawn eng (fun () ->
            let c = ctx proc in
            for _ = 1 to ops do
              let k = Rng.int (Ctx.rng c) nkeys in
              match
                Khash.with_element table c k (fun _ ->
                    inside.(k) <- inside.(k) + 1;
                    if inside.(k) > 1 then bad := true;
                    Ctx.work c (1 + Rng.int (Ctx.rng c) 20);
                    inside.(k) <- inside.(k) - 1)
              with
              | Some () -> incr done_ops
              | None -> bad := true
            done)
      done;
      Engine.run eng;
      (not !bad) && !done_ops = p * ops)

let prop_sharded_optimistic_lookup_consistency =
  QCheck.Test.make
    ~name:"sharded: optimistic lookups stay consistent under churn" ~count:20
    QCheck.(triple (int_range 2 6) (int_range 2 15) (int_range 0 10000))
    (fun (p, ops, seed) ->
      let eng, table, ctx = make_sharded_raw seed in
      let stable = 8 in
      for k = 0 to stable - 1 do
        ignore (Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
      done;
      for proc = 0 to p - 1 do
        ignore
          (Khash.insert_untimed table (100 + proc) ~status0:0
             ~make:(fun _ -> ()))
      done;
      let ok = ref true in
      let lookups = ref 0 in
      for proc = 0 to p - 1 do
        Process.spawn eng (fun () ->
            let c = ctx proc in
            if proc land 1 = 0 then
              (* Reader: stable keys are never removed, so every lookup —
                 optimistic or fallen back — must find them. *)
              for _ = 1 to ops do
                let k = Rng.int (Ctx.rng c) stable in
                incr lookups;
                (match Khash.lookup table c k with
                | Some e -> if e.Khash.key <> k then ok := false
                | None -> ok := false);
                Ctx.work c 5
              done
            else begin
              (* Churner: delete and re-insert its own key, driving the
                 shard's seqlock through writer sections. *)
              let k = 100 + proc in
              for _ = 1 to ops do
                (match Khash.reserve_existing table c k with
                | Some _ -> if not (Khash.remove table c k) then ok := false
                | None -> ok := false);
                ignore (Khash.insert table c k ~make:(fun _ -> ()));
                Ctx.work c 3
              done
            end)
      done;
      Engine.run eng;
      (* Every optimistic lookup is accounted as either a hit or a
         fallback — none silently bypasses the seqlock protocol. *)
      !ok
      && Khash.optimistic_hits table + Khash.optimistic_fallbacks table
         = !lookups)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_sharded_obs_attribution () =
  let r =
    Workloads.Hash_scaling.run ~observe:true
      ~config:
        { Workloads.Hash_scaling.default_config with p = 4; ops = 60 }
      ()
  in
  let classes =
    List.map (fun (row : Obs.row) -> row.Obs.row_class)
      r.Workloads.Hash_scaling.obs_rows
  in
  let shard_classes = List.filter (has_prefix ~prefix:"khash.shard") classes in
  Alcotest.(check bool)
    (Printf.sprintf "per-shard lock classes profiled (got %s)"
       (String.concat "," classes))
    true
    (List.length shard_classes >= 2)

let prop_untimed_matches_inserted =
  QCheck.Test.make ~name:"table contents = inserted \\ removed" ~count:50
    QCheck.(list (pair (int_range 0 50) bool))
    (fun ops ->
      let eng, _, table, ctx = make () in
      let expected = Hashtbl.create 16 in
      Process.spawn eng (fun () ->
          let c = ctx 0 in
          List.iter
            (fun (k, ins) ->
              if ins then begin
                if not (Hashtbl.mem expected k) then begin
                  Hashtbl.replace expected k ();
                  ignore (Khash.insert table c k ~make:(fun _ -> ()))
                end
              end
              else begin
                Hashtbl.remove expected k;
                ignore (Khash.remove table c k)
              end)
            ops);
      Engine.run eng;
      let actual = ref [] in
      Khash.iter_untimed table (fun e -> actual := e.Khash.key :: !actual);
      List.sort compare !actual
      = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) expected []))

(* Elements are homed round-robin over the table's storage PMMs (the lock's
   PMM and its neighbour: 8 and 9 for homes 0..15). The status word lives
   on the home [make] received, for timed and untimed inserts alike. *)
let test_element_home_is_status_home () =
  let eng, _, table, ctx = make () in
  let check_home what e =
    Alcotest.(check int)
      (Printf.sprintf "%s key %d: status homed where make was told" what
         e.Khash.key)
      e.Khash.payload
      (Cell.home e.Khash.status)
  in
  let homes = ref [] in
  let record what e =
    check_home what e;
    homes := e.Khash.payload :: !homes
  in
  (* Keys k and k + 16 share a bin (16 bins), so chains grow. *)
  let untimed = [ 0; 16; 1; 17 ] in
  List.iter
    (fun k -> Khash.insert_untimed table k ~status0:0 ~make:Fun.id)
    untimed;
  List.iter (fun k -> record "untimed" (find_untimed table k)) untimed;
  simulate eng (fun () ->
      let c = ctx 0 in
      List.iter
        (fun k -> record "timed" (Khash.insert table c k ~make:Fun.id))
        [ 32; 2; 48; 3 ];
      match Khash.reserve_or_insert table c 33 ~make:Fun.id with
      | `Inserted e ->
        record "placeholder" e;
        Khash.release_reserve c e
      | `Reserved _ -> Alcotest.fail "key 33 was absent");
  Alcotest.(check (list int)) "homes alternate over the storage PMMs"
    [ 8; 9; 8; 9; 8; 9; 8; 9; 8 ]
    (List.rev !homes);
  (* Chain order sets probe counts: bins in index order, newest element
     first within a bin. *)
  let order = ref [] in
  Khash.iter_untimed table (fun e ->
      check_home "iterated" e;
      order := e.Khash.key :: !order);
  Alcotest.(check (list int)) "iter_untimed order"
    [ 48; 32; 16; 0; 33; 17; 1; 2; 3 ]
    (List.rev !order)

(* Untimed inserts build lazily, on the first walk of their bin; a mixed
   sequence of every operation must still see exactly what eager building
   gave. The model is a list per bin, newest first, of (insert number,
   key, home, status word); the n-th insert of any kind is homed on the
   n-th storage PMM in turn (8 and 9 for homes 0..15). *)
type step =
  | Untimed of int * int (* key, seeded status word *)
  | Insert of int
  | Placeholder of int
  | Remove of int
  | Lookup of int
  | Mem of int
  | Iter

let show_step = function
  | Untimed (k, s) -> Printf.sprintf "untimed %d/%d" k s
  | Insert k -> Printf.sprintf "insert %d" k
  | Placeholder k -> Printf.sprintf "placeholder %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Lookup k -> Printf.sprintf "lookup %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Iter -> "iter"

let arb_steps =
  let step =
    QCheck.Gen.(
      let key = int_bound 11 in
      frequency
        [
          (3, map2 (fun k s -> Untimed (k, s)) key (oneofl [ 0; 2; 4 ]));
          (2, map (fun k -> Insert k) key);
          (1, map (fun k -> Placeholder k) key);
          (2, map (fun k -> Remove k) key);
          (3, map (fun k -> Lookup k) key);
          (1, map (fun k -> Mem k) key);
          (1, return Iter);
        ])
  in
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun steps -> String.concat "; " (List.map show_step steps))
    QCheck.Gen.(list_size (int_bound 40) step)

let prop_lazy_build_matches_model =
  QCheck.Test.make ~name:"lazy untimed build: chains, homes, status, probes"
    ~count:200 arb_steps (fun steps ->
      let eng = Engine.create () in
      let machine = Machine.create eng Config.hector in
      let table =
        Khash.create machine ~granularity:Khash.Sharded ~nbins:4 ~shards:2
          ~lock_algo:Lock.Mcs_h2
          ~homes:(List.init 16 (fun i -> i))
      in
      let model = Array.make 4 [] in
      let inserts = ref 0 and probes = ref 0 in
      let fail step fmt =
        QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (show_step step)
      in
      (* The next insert's number and the home it must get. *)
      let fresh () =
        let n = !inserts in
        incr inserts;
        (n, if n mod 2 = 0 then 8 else 9)
      in
      let make n home = (n, home) in
      let push k entry =
        let b = Khash.bin_of_key table k in
        model.(b) <- entry :: model.(b)
      in
      (* The model's first entry for [k] and its chain position, or the
         chain length when absent. *)
      let find k =
        let rec go i = function
          | [] -> (None, i)
          | ((_, k', _, _) as m) :: rest ->
            if k' = k then (Some m, i + 1) else go (i + 1) rest
        in
        go 0 model.(Khash.bin_of_key table k)
      in
      let check_elem step (e : (int * int) Khash.elem) (n, k, home, status) =
        if
          e.Khash.key <> k || e.Khash.payload <> (n, home)
          || Cell.home e.Khash.status <> home
          || Cell.peek e.Khash.status <> status
        then
          fail step
            "element (key %d, insert %d, made on %d, status on %d = %d), \
             model (%d, %d, %d, %d)"
            e.Khash.key (fst e.Khash.payload) (snd e.Khash.payload)
            (Cell.home e.Khash.status) (Cell.peek e.Khash.status) k n home
            status
      in
      let check_all step =
        let seen = ref [] in
        Khash.iter_untimed table (fun e -> seen := e :: !seen);
        let expected = List.concat (Array.to_list model) in
        if List.length !seen <> List.length expected then
          fail step "iter_untimed saw %d elements, model has %d"
            (List.length !seen) (List.length expected);
        List.iter2 (check_elem step) (List.rev !seen) expected
      in
      let run c step =
        match step with
        | Untimed (k, status0) ->
          let n, home = fresh () in
          Khash.insert_untimed table k ~status0 ~make:(make n);
          push k (n, k, home, status0)
        | Insert k ->
          let n, home = fresh () in
          let e = Khash.insert table c k ~make:(make n) in
          check_elem step e (n, k, home, 0);
          push k (n, k, home, 0)
        | Placeholder k | Lookup k -> (
          let found, pos = find k in
          probes := !probes + pos;
          match (step, found) with
          | Placeholder _, None -> (
            let n, home = fresh () in
            match Khash.reserve_or_insert table c k ~make:(make n) with
            | `Inserted e ->
              check_elem step e (n, k, home, 1);
              Khash.release_reserve c e;
              push k (n, k, home, 0)
            | `Reserved _ -> fail step "reserved an absent key")
          | Placeholder _, Some ((_, _, _, 0) as m) -> (
            match Khash.reserve_or_insert table c k ~make:(make (-1)) with
            | `Reserved e ->
              check_elem step e (match m with n, k, h, _ -> (n, k, h, 1));
              Khash.release_reserve c e
            | `Inserted _ -> fail step "inserted a present key")
          | _, found -> (
            (* A reader-reserved element cannot be write-reserved by the
               only processor; look it up instead. *)
            match (Khash.lookup table c k, found) with
            | None, None -> ()
            | Some e, Some m -> check_elem step e m
            | Some _, None -> fail step "lookup found an absent key"
            | None, Some _ -> fail step "lookup missed a present key"))
        | Remove k ->
          let b = Khash.bin_of_key table k in
          let present = fst (find k) <> None in
          (model.(b) <-
             let rec drop = function
               | [] -> []
               | ((_, k', _, _) as m) :: rest ->
                 if k' = k then rest else m :: drop rest
             in
             drop model.(b));
          if Khash.remove table c k <> present then
            fail step "remove returned %b" (not present)
        | Mem k ->
          if Khash.mem_untimed table k <> (fst (find k) <> None) then
            fail step "mem_untimed disagrees"
        | Iter -> check_all step
      in
      Process.spawn eng (fun () ->
          let c = Ctx.create machine ~proc:0 (Rng.create 7) in
          List.iter
            (fun step ->
              run c step;
              let size =
                Array.fold_left (fun n l -> n + List.length l) 0 model
              in
              if Khash.size table <> size then
                fail step "size %d, model %d" (Khash.size table) size;
              if Khash.probes table <> !probes then
                fail step "probes %d, model %d" (Khash.probes table) !probes)
            steps;
          check_all Iter);
      Engine.run eng;
      true)

(* Set-up inserts that form a dense run, and every way of breaking it.
   Untimed inserts take consecutive keys from [k0] (negative for some
   tables) and share one payload, so a run forms whenever the bin count is
   a power of two; a key gap, a new seeded status, a payload of its own, a
   timed insert or lookup, an [iter_untimed], a [Machine.alloc] between
   two inserts or a [make] that raises (the home moves on, the key and id
   do not) closes it. The model is a list per bin, newest first, of (key,
   home, status word, cell id, payload): the n-th insert of any kind is
   homed on the n-th storage PMM in turn, and each insert or allocation
   takes the next cell id. *)
type run_step =
  | Dense of int (* that many untimed inserts of the next keys *)
  | Gap of int (* skip that many keys *)
  | Status of int (* seed later untimed inserts with this status *)
  | Own (* an untimed insert of the next key with a payload of its own *)
  | Raise (* an untimed insert whose [make] raises *)
  | Timed (* a timed insert of the next key *)
  | Probe of int (* a timed lookup of the key that many below the next *)
  | Walk (* iter_untimed *)
  | Alloc (* a cell allocated between two inserts *)

let show_run_step = function
  | Dense n -> Printf.sprintf "dense %d" n
  | Gap d -> Printf.sprintf "gap %d" d
  | Status s -> Printf.sprintf "status %d" s
  | Own -> "own"
  | Raise -> "raise"
  | Timed -> "timed"
  | Probe d -> Printf.sprintf "probe -%d" d
  | Walk -> "walk"
  | Alloc -> "alloc"

let arb_run_case =
  let step =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun n -> Dense n) (int_range 1 12));
          (1, map (fun d -> Gap d) (int_range 1 5));
          (1, map (fun s -> Status s) (oneofl [ 0; 2; 4 ]));
          (1, return Own);
          (1, return Raise);
          (1, return Timed);
          (1, map (fun d -> Probe d) (int_range 1 20));
          (1, return Walk);
          (1, return Alloc);
        ])
  in
  QCheck.make
    ~shrink:QCheck.Shrink.(triple nil nil list)
    ~print:(fun (nbins, k0, steps) ->
      Printf.sprintf "nbins %d, from key %d: %s" nbins k0
        (String.concat "; " (List.map show_run_step steps)))
    QCheck.Gen.(
      triple (oneofl [ 4; 8; 6 ]) (int_range (-3) 20)
        (list_size (int_bound 12) step))

let prop_runs_match_model =
  QCheck.Test.make ~name:"dense untimed runs: keys, homes, status, ids, probes"
    ~count:200 arb_run_case (fun (nbins, k0, steps) ->
      let eng = Engine.create () in
      let machine = Machine.create eng Config.hector in
      let table =
        Khash.create machine ~granularity:Khash.Sharded ~nbins ~shards:2
          ~lock_algo:Lock.Mcs_h2
          ~homes:(List.init 16 (fun i -> i))
      in
      let model = Array.make nbins [] in
      let shared = ref 0 in
      let next_key = ref k0 and status = ref 0 in
      let inserts = ref 0 and probes = ref 0 in
      (* The next cell id, read off a probe cell; a timed operation may
         allocate lock cells, so it is read again after each. *)
      let next_id = ref 0 in
      let sync_id () =
        next_id := Cell.id (Machine.alloc machine ~home:0 0) + 1
      in
      let fail step fmt =
        QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (show_run_step step)
      in
      let fresh () =
        let n = !inserts in
        incr inserts;
        if n mod 2 = 0 then 8 else 9
      in
      let take_key () =
        let k = !next_key in
        incr next_key;
        k
      in
      let take_id () =
        let id = !next_id in
        incr next_id;
        id
      in
      let push k entry =
        let b = Khash.bin_of_key table k in
        model.(b) <- entry :: model.(b)
      in
      let check_elem step (e : int ref Khash.elem) (k, home, st, id, p) =
        if
          e.Khash.key <> k
          || Cell.home e.Khash.status <> home
          || Cell.peek e.Khash.status <> st
          || (id >= 0 && Cell.id e.Khash.status <> id)
          || e.Khash.payload != p
        then
          fail step
            "element (key %d, home %d, status %d, id %d, payload %d), model \
             (%d, %d, %d, %d, %d)"
            e.Khash.key (Cell.home e.Khash.status) (Cell.peek e.Khash.status)
            (Cell.id e.Khash.status) !(e.Khash.payload) k home st id !p
      in
      let check_all step =
        let seen = ref [] in
        Khash.iter_untimed table (fun e -> seen := e :: !seen);
        let expected = List.concat (Array.to_list model) in
        if List.length !seen <> List.length expected then
          fail step "iter_untimed saw %d elements, model has %d"
            (List.length !seen) (List.length expected);
        List.iter2 (check_elem step) (List.rev !seen) expected
      in
      let run c step =
        match step with
        | Dense n ->
          for _ = 1 to n do
            let k = take_key () in
            let home = fresh () in
            Khash.insert_untimed table k ~status0:!status ~make:(fun _ ->
                shared);
            push k (k, home, !status, take_id (), shared)
          done
        | Own ->
          let k = take_key () in
          let home = fresh () in
          let p = ref k in
          Khash.insert_untimed table k ~status0:!status ~make:(fun _ -> p);
          push k (k, home, !status, take_id (), p)
        | Raise -> (
          ignore (fresh () : int);
          try
            Khash.insert_untimed table !next_key ~status0:!status
              ~make:(fun _ -> raise Exit)
          with Exit -> ())
        | Gap d -> next_key := !next_key + d
        | Status st -> status := st
        | Timed ->
          let k = take_key () in
          let home = fresh () in
          let e = Khash.insert table c k ~make:(fun _ -> shared) in
          (* The lock may take cell ids too: read the element's off it. *)
          check_elem step e (k, home, 0, -1, shared);
          push k (k, home, 0, Cell.id e.Khash.status, shared);
          sync_id ()
        | Probe d -> (
          let k = !next_key - d in
          let rec find i = function
            | [] -> (None, i)
            | ((k', _, _, _, _) as m) :: rest ->
              if k' = k then (Some m, i + 1) else find (i + 1) rest
          in
          let found, pos = find 0 model.(Khash.bin_of_key table k) in
          probes := !probes + pos;
          (match (Khash.lookup table c k, found) with
          | None, None -> ()
          | Some e, Some m -> check_elem step e m
          | Some _, None -> fail step "lookup found an absent key"
          | None, Some _ -> fail step "lookup missed a present key");
          sync_id ())
        | Walk -> check_all step
        | Alloc ->
          let id = take_id () in
          if Cell.id (Machine.alloc machine ~home:0 0) <> id then
            fail step "allocated cell is not id %d" id
      in
      Process.spawn eng (fun () ->
          let c = Ctx.create machine ~proc:0 (Rng.create 7) in
          sync_id ();
          List.iter
            (fun step ->
              run c step;
              let size =
                Array.fold_left (fun n l -> n + List.length l) 0 model
              in
              if Khash.size table <> size then
                fail step "size %d, model %d" (Khash.size table) size;
              if Khash.probes table <> !probes then
                fail step "probes %d, model %d" (Khash.probes table) !probes)
            steps;
          check_all Walk);
      Engine.run eng;
      true)

(* The SLO table: 2^17 bins over 16 shards. *)

(* Words reachable from the table and not from its machine (which the
   table's cells and locks point into). *)
let own_words machine table =
  Obj.reachable_words (Obj.repr table) - Obj.reachable_words (Obj.repr machine)

let slo_shaped_table () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins:(1 lsl 17)
      ~shards:16 ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  (eng, machine, table)

(* A dense untimed insert extends the table's run and builds no element:
   no record, status cell, chain cons or closure per key. *)
let test_insert_untimed_allocation () =
  let _, _, table = slo_shaped_table () in
  let n = 20_000 in
  let make _ = () in
  let before = Gc.minor_words () in
  for k = 0 to n - 1 do
    Khash.insert_untimed table k ~status0:0 ~make
  done;
  let per_insert = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per insert_untimed <= 1 (got %.2f)"
       per_insert)
    true (per_insert <= 1.0);
  Alcotest.(check int) "all inserted" n (Khash.size table)

(* The element an untimed insert defers costs what eager building did
   when its bin is first walked: the element record, its status cell and
   one chain cons — 16 minor words — and nothing else: no per-element
   label, boxed id, closure or second list. *)
let test_insert_untimed_build_allocation () =
  let _, _, table = slo_shaped_table () in
  let n = 20_000 in
  for k = 0 to n - 1 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ())
  done;
  let built = ref 0 in
  let count _ = incr built in
  let before = Gc.minor_words () in
  Khash.iter_untimed table count;
  let per_elem = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per deferred element built <= 16 (got %.2f)"
       per_elem)
    true (per_elem <= 16.0);
  Alcotest.(check int) "all built" n !built

(* An untouched pre-populated table of consecutive keys keeps them in its
   run record alone: 10^5 keys cost at most 8 words each beyond the empty
   table (bin heads and locks), where built elements cost 16. *)
let test_untouched_table_retained_size () =
  let _, machine, table = slo_shaped_table () in
  let words () = own_words machine table in
  let empty = words () in
  let n = 100_000 in
  for k = 0 to n - 1 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ())
  done;
  let per_key = float_of_int (words () - empty) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "retained words per untouched key <= 8 (got %.2f)"
       per_key)
    true (per_key <= 8.0)

(* Untimed-insert [keys] into [table] and check, after every bin is
   walked, each element's key, home, status word and cell id, and each
   chain's order, against a list-per-bin model: the i-th key takes cell id
   [base + i] and the i-th storage PMM in turn ([homes], from [h0]). *)
let check_untimed_build table ~homes ~h0 ~base keys =
  let model = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      let b = Khash.bin_of_key table k in
      let home = homes.((h0 + i) mod Array.length homes) in
      Hashtbl.replace model b
        ((k, home, base + i)
        :: Option.value ~default:[] (Hashtbl.find_opt model b)))
    keys;
  let seen = ref [] in
  Khash.iter_untimed table (fun e ->
      seen :=
        (e.Khash.key, Cell.home e.Khash.status, Cell.id e.Khash.status)
        :: !seen;
      if Cell.peek e.Khash.status <> 0 then
        Alcotest.failf "key %d: status %d" e.Khash.key
          (Cell.peek e.Khash.status));
  let expected =
    List.sort_uniq compare (Hashtbl.fold (fun b _ acc -> b :: acc) model [])
    |> List.concat_map (fun b -> Hashtbl.find model b)
  in
  Alcotest.(check int) "elements" (Array.length keys) (List.length !seen);
  Alcotest.(check bool) "keys, homes, ids and chain order" true
    (List.rev !seen = expected)

(* A dense pre-populated table is one run record: 10^5 consecutive keys
   retain at most 1 word each beyond the empty table, take the cell ids
   that follow the last allocation in insert order, and leave the next
   allocation the id after them. *)
let test_dense_run_ids_and_size () =
  let _, machine, table = slo_shaped_table () in
  let words () = own_words machine table in
  let empty = words () in
  let base = Cell.id (Machine.alloc machine ~home:0 0) + 1 in
  let n = 100_000 in
  for k = 0 to n - 1 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ())
  done;
  let per_key = float_of_int (words () - empty) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "retained words per untouched dense key <= 1 (got %.2f)"
       per_key)
    true (per_key <= 1.0);
  Alcotest.(check int) "next allocation's id" (base + n)
    (Cell.id (Machine.alloc machine ~home:0 0));
  check_untimed_build table ~homes:[| 8; 9 |] ~h0:0 ~base
    (Array.init n Fun.id)

(* A table whose bin count is not a power of two, or whose first key is
   negative, has no run: it builds every insert at once (more than 1 word
   a key, and at most the 16 a built element costs, as in
   [test_insert_untimed_build_allocation]) and builds what the model
   says. *)
let test_run_fallbacks () =
  List.iter
    (fun (nbins, k0) ->
      let eng = Engine.create () in
      let machine = Machine.create eng Config.hector in
      let table =
        Khash.create machine ~granularity:Khash.Hybrid ~nbins
          ~lock_algo:Lock.Mcs_h2
          ~homes:(List.init 16 (fun i -> i))
      in
      let words () = own_words machine table in
      let empty = words () in
      let base = Cell.id (Machine.alloc machine ~home:0 0) + 1 in
      let keys = Array.init 500 (fun i -> k0 + i) in
      Array.iter
        (fun k -> Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
        keys;
      (* Less the one empty label string the built status cells share. *)
      let per_key =
        float_of_int (words () - empty - Obj.reachable_words (Obj.repr ""))
        /. float_of_int (Array.length keys)
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "nbins %d from %d: built, 1 < words a key <= 16 (got %.2f)" nbins k0
           per_key)
        true
        (per_key > 1.0 && per_key <= 16.0);
      check_untimed_build table ~homes:[| 8; 9 |] ~h0:0 ~base keys)
    [ (6, 0); (100, 3); (16, -1); (16, -250) ]

(* Cell ids are numbered per machine, so allocations on another machine
   leave a dense run whole: 10^4 consecutive untimed inserts, each followed
   by a cell allocated on a second machine, still retain at most 1 word a
   key and build the ids, homes and chains of an eager build. *)
let test_run_survives_other_machines () =
  let _, machine, table = slo_shaped_table () in
  let other = Machine.create (Engine.create ()) Config.hector in
  let words () = own_words machine table in
  let empty = words () in
  let base = Cell.id (Machine.alloc machine ~home:0 0) + 1 in
  let n = 10_000 in
  for k = 0 to n - 1 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ());
    ignore (Machine.alloc other ~home:0 0)
  done;
  let per_key = float_of_int (words () - empty) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "retained words per dense key <= 1 (got %.2f)" per_key)
    true (per_key <= 1.0);
  check_untimed_build table ~homes:[| 8; 9 |] ~h0:0 ~base
    (Array.init n Fun.id)

(* Crash repair on a populated table nobody has touched: no processor died,
   so nothing is repaired, and the sweep builds no pending element. *)
let test_recover_builds_nothing () =
  let _, machine, table = slo_shaped_table () in
  for k = 0 to 9_999 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ())
  done;
  let words () = own_words machine table in
  let before = words () in
  (* Nothing to repair means no timed access, so no fiber is needed. *)
  let c = Ctx.create machine ~proc:0 (Rng.create 1) in
  Alcotest.(check int) "no repairs" 0 (Khash.recover table c);
  Alcotest.(check int) "no element built" before (words ())

(* Words the live heap holds after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A bin costs one word until it is touched: the SLO table (2^17 bins over
   16 shards) retains at most 1.5 words a bin after [create], where
   building every head word there cost about 10, and still after 10^6
   dense untimed inserts, which are one run record. *)
let test_untouched_bin_words () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let nbins = 1 lsl 17 in
  let before = live_words () in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins ~shards:16
      ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  let check what =
    let per_bin =
      float_of_int (live_words () - before) /. float_of_int nbins
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: live words a bin <= 1.5 (got %.2f)" what per_bin)
      true (per_bin <= 1.5)
  in
  check "after create";
  for k = 0 to 999_999 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ())
  done;
  check "after 10^6 dense untimed inserts";
  ignore (Sys.opaque_identity (eng, machine, table))

(* A bin one lookup has walked keeps its head word, its run slots and the
   one member the lookup returned: at most 40 live words on the SLO table,
   where building the bin's whole chain kept about 8 members at 16 words
   each. 2 000 consecutive keys walk 2 000 distinct bins. *)
let test_walked_bin_words () =
  let eng, machine, table = slo_shaped_table () in
  for k = 0 to 999_999 do
    Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ())
  done;
  let c = Ctx.create machine ~proc:0 (Rng.create 1) in
  let walked = 2_000 in
  let before = live_words () in
  simulate eng (fun () ->
      for k = 0 to walked - 1 do
        if Khash.lookup table c k = None then Alcotest.failf "key %d absent" k
      done);
  let per_bin =
    float_of_int (live_words () - before) /. float_of_int walked
  in
  Alcotest.(check bool)
    (Printf.sprintf "live words a walked bin <= 40 (got %.2f)" per_bin)
    true (per_bin <= 40.0);
  ignore (Sys.opaque_identity (eng, machine, table, c))

(* The cell ids building [granularity]'s locks takes, in the order eager
   creation took them: Fine-mode bin locks, then under [Sharded] each
   shard's sequence word and lock, then the table lock. *)
let lock_ids granularity ~nbins ~shards ~homes =
  let machine = Machine.create (Engine.create ()) Config.hector in
  let next () = Cell.id (Machine.alloc machine ~home:0 0) in
  let first = next () in
  let backoff = Backoff.of_us (Machine.config machine) ~max_us:35.0 () in
  (match granularity with
  | Khash.Fine ->
    for i = 0 to nbins - 1 do
      ignore
        (Spin_lock.create machine
           ~home:(List.nth homes (i mod List.length homes))
           backoff)
    done
  | Khash.Sharded ->
    for _ = 1 to shards do
      ignore (Seqlock.create machine ~home:0 ())
    done;
    for _ = 1 to shards do
      ignore (Lock.make machine ~home:0 Lock.Mcs_h2)
    done
  | Khash.Hybrid | Khash.Coarse -> ());
  ignore (Lock.make machine ~home:0 Lock.Mcs_h2);
  next () - first - 1

(* Bin heads built on first search have the ids and homes eager creation
   gave them: [create] takes its locks' ids and then [nbins] more, the
   last [nbins] of its ids being the heads in bin order, and a head is
   homed on the table lock's PMM ([homes.(length / 2)]) or, under
   [Sharded], on its shard's ([homes.(b mod shards mod length)]). Bins are
   touched in random order by a timed insert, a lookup or both; a bin
   nothing touched has no head, and a touch takes no cell id beyond an
   insert's element. *)
let prop_lazy_heads_match_eager =
  let granularities = Khash.[ Hybrid; Coarse; Sharded; Fine ] in
  QCheck.Test.make ~name:"lazy bin heads: ids and homes as eager creation"
    ~count:60
    QCheck.(
      triple
        (make ~print:Khash.granularity_name (Gen.oneofl granularities))
        (make ~print:string_of_int (Gen.oneofl [ 1; 6; 64; 1024 ]))
        small_nat)
    (fun (granularity, nbins, seed) ->
      let rng = Random.State.make [| seed |] in
      let homes = [ 2; 5; 7; 11; 13 ] in
      let shards = min 4 nbins in
      (* Counted first: the count allocates cells of its own. *)
      let expected = lock_ids granularity ~nbins ~shards ~homes + nbins in
      let per_insert =
        match granularity with
        | Khash.Fine ->
          (* the element's status word and spin lock *)
          1 + lock_ids Khash.Fine ~nbins:1 ~shards ~homes
          - lock_ids Khash.Hybrid ~nbins:1 ~shards ~homes
        | Khash.Hybrid | Khash.Coarse | Khash.Sharded -> 1
      in
      let machine = Machine.create (Engine.create ()) Config.hector in
      let next () = Cell.id (Machine.alloc machine ~home:0 0) in
      let before = next () in
      let table =
        Khash.create machine ~granularity ~nbins ~shards
          ~lock_algo:Lock.Mcs_h2 ~homes
      in
      let after = next () in
      let used = after - before - 1 in
      if used <> expected then
        QCheck.Test.fail_reportf "create took %d cell ids, eager took %d" used
          expected;
      let home b =
        match granularity with
        | Khash.Sharded -> List.nth homes (b mod shards mod List.length homes)
        | Khash.Hybrid | Khash.Coarse | Khash.Fine -> List.nth homes 2
      in
      let check_head ~searched b =
        match Khash.bin_head table b with
        | None ->
          if searched then
            QCheck.Test.fail_reportf "bin %d: searched, no head" b
        | Some h ->
          if Cell.id h <> after - nbins + b || Cell.home h <> home b then
            QCheck.Test.fail_reportf
              "bin %d: head id %d on %d, eager id %d on %d" b (Cell.id h)
              (Cell.home h) (after - nbins + b) (home b)
      in
      (* A key in each bin. *)
      let key_of_bin = Array.make nbins (-1) in
      let k = ref 0 in
      while Array.exists (fun k -> k < 0) key_of_bin do
        let b = Khash.bin_of_key table !k in
        if key_of_bin.(b) < 0 then key_of_bin.(b) <- !k;
        incr k
      done;
      let order = Array.init nbins Fun.id in
      for i = nbins - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let touched = Array.make nbins false in
      let inserts = ref 0 in
      let eng = Machine.engine machine in
      Process.spawn eng (fun () ->
          let c = Ctx.create machine ~proc:0 (Rng.create seed) in
          Array.iteri
            (fun i b ->
              (* Leave a quarter of the bins untouched. *)
              if 4 * i < 3 * nbins then begin
                (match Khash.bin_head table b with
                | Some _ ->
                  QCheck.Test.fail_reportf "bin %d: head before touch" b
                | None -> ());
                let op = Random.State.int rng 3 in
                if op > 0 then begin
                  ignore (Khash.insert table c key_of_bin.(b) ~make:ignore);
                  incr inserts;
                  check_head ~searched:false b
                end;
                if op < 2 then ignore (Khash.lookup table c key_of_bin.(b));
                touched.(b) <- true;
                check_head ~searched:(op < 2) b
              end)
            order);
      Engine.run eng;
      Array.iteri
        (fun b t ->
          if (not t) && Khash.bin_head table b <> None then
            QCheck.Test.fail_reportf "bin %d: untouched, has a head" b)
        touched;
      let id = next () in
      if id <> after + 1 + (!inserts * per_insert) then
        QCheck.Test.fail_reportf "next cell id %d after %d inserts, expected %d"
          id !inserts
          (after + 1 + (!inserts * per_insert));
      true)

(* Twin tables: one random multi-fiber program runs against a dense-run
   table and against a twin whose members [iter_untimed] built before the
   first timed operation, each on its own engine. Pristine members read by
   arithmetic, and built only when an operation keeps them, must leave
   everything eager building gave: after each operation the clock,
   [Machine.reads], [Khash.probes] and the result (key, status cell id,
   home and value). Fibers on four stations start together, so removes
   race optimistic lookups still walking the bin they change. *)
type twin_op =
  | Tw_lookup of int (* optimistic *)
  | Tw_locked of int
  | Tw_with of int (* holds the reservation for 200 cycles *)
  | Tw_insert of int
  | Tw_remove of int
  | Tw_mem of int
  | Tw_iter
  | Tw_work of int

let show_twin_op = function
  | Tw_lookup k -> Printf.sprintf "lookup %d" k
  | Tw_locked k -> Printf.sprintf "locked lookup %d" k
  | Tw_with k -> Printf.sprintf "with_element %d" k
  | Tw_insert k -> Printf.sprintf "insert %d" k
  | Tw_remove k -> Printf.sprintf "remove %d" k
  | Tw_mem k -> Printf.sprintf "mem %d" k
  | Tw_iter -> "iter"
  | Tw_work c -> Printf.sprintf "work %d" c

let arb_twin =
  let op n =
    QCheck.Gen.(
      let key = int_bound (n + 7) in
      frequency
        [
          (8, map (fun k -> Tw_lookup k) key);
          (4, map (fun k -> Tw_locked k) key);
          (4, map (fun k -> Tw_with k) key);
          (2, map (fun k -> Tw_insert k) key);
          (4, map (fun k -> Tw_remove k) key);
          (2, map (fun k -> Tw_mem k) key);
          (1, return Tw_iter);
          (4, map (fun c -> Tw_work c) (int_bound 400));
        ])
  in
  QCheck.make
    ~print:(fun (nbins, n, fibers) ->
      Printf.sprintf "nbins %d, keys 0..%d: %s" nbins (n - 1)
        (String.concat " | "
           (List.map
              (fun ops -> String.concat "; " (List.map show_twin_op ops))
              fibers)))
    QCheck.Gen.(
      oneofl [ 4; 8 ] >>= fun nbins ->
      int_range 4 40 >>= fun n ->
      list_size (int_range 2 4) (list_size (int_bound 12) (op n))
      >|= fun fibers -> (nbins, n, fibers))

(* The log of one run: a line per operation, in completion order. *)
let run_twin cfg (nbins, n, fibers) ~prebuilt =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins ~shards:2
      ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  for k = 0 to n - 1 do
    Khash.insert_untimed table k ~status0:0 ~make:ignore
  done;
  if prebuilt then Khash.iter_untimed table ignore;
  let show (e : unit Khash.elem) =
    Printf.sprintf "key %d, cell %d on %d = %d" e.Khash.key
      (Cell.id e.Khash.status) (Cell.home e.Khash.status)
      (Cell.peek e.Khash.status)
  in
  let some = function None -> "none" | Some s -> s in
  let log = ref [] in
  List.iteri
    (fun i ops ->
      let proc = [| 0; 5; 9; 14 |].(i) in
      let c = Ctx.create machine ~proc (Rng.create (100 + i)) in
      Process.spawn eng (fun () ->
          List.iter
            (fun op ->
              let result =
                match op with
                | Tw_lookup k -> some (Option.map show (Khash.lookup table c k))
                | Tw_locked k ->
                  some (Option.map show (Khash.lookup_locked table c k))
                | Tw_with k ->
                  some
                    (Khash.with_element table c k (fun e ->
                         let s = show e in
                         Ctx.work c 200;
                         s))
                | Tw_insert k -> show (Khash.insert table c k ~make:ignore)
                | Tw_remove k -> string_of_bool (Khash.remove table c k)
                | Tw_mem k -> string_of_bool (Khash.mem_untimed table k)
                | Tw_iter ->
                  let seen = ref 0 in
                  Khash.iter_untimed table (fun _ -> incr seen);
                  string_of_int !seen
                | Tw_work cycles ->
                  Ctx.work c cycles;
                  ""
              in
              log :=
                Printf.sprintf "fiber %d, %s: %s at %d, %d reads, %d probes" i
                  (show_twin_op op) result (Machine.now machine)
                  (Machine.reads machine) (Khash.probes table)
                :: !log)
            ops))
    fibers;
  Engine.run eng;
  List.rev !log

let prop_twin_matches_built (cfg_name, cfg) =
  QCheck.Test.make
    ~name:("twin tables: a dense run walks as its built twin, " ^ cfg_name)
    ~count:150 arb_twin (fun case ->
      let rec compare_logs i = function
        | a :: dense, b :: built ->
          if a <> b then
            QCheck.Test.fail_reportf "operation %d: dense run %s; built twin %s"
              i a b
          else compare_logs (i + 1) (dense, built)
        | [], [] -> true
        | dense, built ->
          QCheck.Test.fail_reportf
            "after %d operations: dense run %d more, built twin %d more" i
            (List.length dense) (List.length built)
      in
      compare_logs 0
        (run_twin cfg case ~prebuilt:false, run_twin cfg case ~prebuilt:true))

let suite =
  [
    Alcotest.test_case "insert and find" `Quick test_insert_and_find;
    Alcotest.test_case "missing key" `Quick test_missing_key;
    Alcotest.test_case "reserve blocks a second reserver" `Quick
      test_reserve_blocks_second_reserver;
    Alcotest.test_case "reserve_or_insert placeholder" `Quick
      test_reserve_or_insert_placeholder;
    Alcotest.test_case "try_reserve_existing fails fast" `Quick
      test_try_reserve_existing_fails_fast;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "search charges probes" `Quick test_search_charges_probes;
    Alcotest.test_case "with_element under all granularities" `Quick
      test_with_element_all_granularities;
    Alcotest.test_case "with_element on a missing key" `Quick
      test_with_element_missing;
    Alcotest.test_case "untimed iteration" `Quick test_untimed_iteration;
    Alcotest.test_case "coarse sections soft-mask interrupts" `Quick
      test_coarse_lock_masks_interrupts;
    Alcotest.test_case "with_element releases locks when the body raises"
      `Quick test_with_element_exception_safety;
    Alcotest.test_case "with_coarse releases lock and mask on raise" `Quick
      test_with_coarse_exception_safety;
    Alcotest.test_case "untimed Fine insert carries the element lock class"
      `Quick test_fine_untimed_insert_vclass;
    Alcotest.test_case "bin_of_key corner keys" `Quick test_bin_of_key_corners;
    Alcotest.test_case "element home is its status word's home" `Quick
      test_element_home_is_status_home;
    Alcotest.test_case "insert_untimed allocates at most 1 word amortised" `Quick
      test_insert_untimed_allocation;
    Alcotest.test_case "insert_untimed allocates at most 16 words" `Quick
      test_insert_untimed_build_allocation;
    Alcotest.test_case "an untouched table retains at most 8 words a key"
      `Quick test_untouched_table_retained_size;
    Alcotest.test_case "recover on an untouched table builds nothing" `Quick
      test_recover_builds_nothing;
    Alcotest.test_case "a dense run keeps cell ids and 1 word a key" `Quick
      test_dense_run_ids_and_size;
    Alcotest.test_case "no run: odd bin counts and negative keys" `Quick
      test_run_fallbacks;
    Alcotest.test_case "a dense run survives other machines' allocations"
      `Quick test_run_survives_other_machines;
    Alcotest.test_case "sharded runs attribute waits to shard classes" `Quick
      test_sharded_obs_attribution;
    Alcotest.test_case "an untouched bin costs at most 1.5 words" `Quick
      test_untouched_bin_words;
    Alcotest.test_case "a bin walked by one lookup keeps at most 40 words"
      `Quick test_walked_bin_words;
    Qc.to_alcotest prop_bin_of_key_in_range;
    Qc.to_alcotest prop_bin_of_key_low_bits;
    Qc.to_alcotest prop_sharded_mutual_exclusion;
    Qc.to_alcotest prop_sharded_optimistic_lookup_consistency;
    Qc.to_alcotest prop_untimed_matches_inserted;
    Qc.to_alcotest prop_lazy_build_matches_model;
    Qc.to_alcotest prop_runs_match_model;
    Qc.to_alcotest prop_lazy_heads_match_eager;
    Qc.to_alcotest (prop_twin_matches_built ("hector", Config.hector));
    Qc.to_alcotest (prop_twin_matches_built ("numachine", Config.numachine));
  ]
