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

let test_fine_untimed_insert_vclass () =
  let _, _, table, _ = make ~granularity:Khash.Fine () in
  let e = Khash.insert_untimed table 7 ~status0:0 ~make:(fun _ -> ()) in
  match e.Khash.elem_lock with
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
  List.iter
    (fun k ->
      record "untimed" (Khash.insert_untimed table k ~status0:0 ~make:Fun.id))
    [ 0; 16; 1; 17 ];
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

(* The SLO table's build: 2^17 bins over 16 shards. An untimed insert
   allocates the element record, its status cell and one chain cons — 16
   minor words — and nothing else: no per-element label or closure. *)
let test_insert_untimed_allocation () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let table =
    Khash.create machine ~granularity:Khash.Sharded ~nbins:(1 lsl 17)
      ~shards:16 ~lock_algo:Lock.Mcs_h2
      ~homes:(List.init 16 (fun i -> i))
  in
  let n = 20_000 in
  let make _ = () in
  let before = Gc.minor_words () in
  for k = 0 to n - 1 do
    ignore (Khash.insert_untimed table k ~status0:0 ~make)
  done;
  let per_insert = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per insert_untimed <= 16 (got %.2f)"
       per_insert)
    true (per_insert <= 16.0);
  Alcotest.(check int) "all inserted" n (Khash.size table)

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
    Alcotest.test_case "insert_untimed allocates at most 16 words" `Quick
      test_insert_untimed_allocation;
    Alcotest.test_case "sharded runs attribute waits to shard classes" `Quick
      test_sharded_obs_attribution;
    Qc.to_alcotest prop_bin_of_key_in_range;
    Qc.to_alcotest prop_sharded_mutual_exclusion;
    Qc.to_alcotest prop_sharded_optimistic_lookup_consistency;
    Qc.to_alcotest prop_untimed_matches_inserted;
  ]
