(* Host-cost benchmark of the simulator.

     main.exe --workload W --seed N --seconds S --trace 0|1

   [--trace 0] repeats the workload's cells in passes for S seconds and
   reports the end-to-end host metrics, scaled to a reference host speed,
   as medians over passes. [--trace 1]
   is the separate traced run: an untraced pass, a pass with the
   Verify/Obs hooks flipped, a traced pass, another untraced pass, the SLO
   experiment's export and the layer pins. It reports the per-layer
   metrics and writes a Chrome trace under perfbench/out. Either way the
   last line of standard output is one JSON object with the keys
   "correct", "attempted", "failed" and "metrics". perfbench/README.md
   explains the workloads and metrics. *)

open Perfbench
open Hector

let now = Unix.gettimeofday
let out_dir = Filename.concat "perfbench" "out"
let us_of_cycles = Config.us_of_cycles Config.hector

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* -- Reporting ----------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let fail tally ~cells id problems =
  tally.attempted <- tally.attempted + cells;
  if problems <> [] then begin
    tally.failed <- tally.failed + max 1 cells;
    List.iter (fun p -> Printf.eprintf "FAILED %s: %s\n%!" id p) problems
  end

let tally_outcomes tally outs =
  List.iter
    (fun (o : Suite.outcome) ->
      fail tally ~cells:1 o.Suite.cell.Suite.id o.Suite.problems)
    outs

let report tally metrics =
  List.iter
    (fun (name, v, u) -> Printf.printf "%-36s %16.6f %s\n" name v u)
    metrics;
  Printf.printf "%-36s %16.6f ratio (%d of %d cells)\n" "failed_frac"
    (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    tally.failed tally.attempted;
  let line =
    Json.Obj
      [
        ("correct", Json.Bool (tally.failed = 0 && tally.attempted > 0));
        ("attempted", Json.Int tally.attempted);
        ("failed", Json.Int tally.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, u) ->
                 ( name,
                   Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]
                 ))
               metrics) );
      ]
  in
  print_endline (Json.to_string ~compact:true line)

let sum_m outs f =
  List.fold_left
    (fun a (o : Suite.outcome) ->
      match o.Suite.m with Some m -> a +. f m | None -> a)
    0.0 outs

(* -- Timed run ------------------------------------------------------------ *)

(* The host's speed drifts by up to 3x over minutes, with the load of its
   other tenants on the shared L3 and memory, so raw host times from runs
   minutes apart are not comparable. Each cell is therefore bracketed by
   runs of a fixed kernel, stdlib code only, that builds and probes a
   hash table of [kernel_entries] bindings (about 30 MB, past L2 and into
   the shared L3 like the simulator's own structures). A cell's times are
   scaled by [reference_kernel_s] over the mean of the two kernel runs
   around it: they read as seconds on a host where the kernel takes
   [reference_kernel_s]. A change to the simulator moves the cell and not
   the kernel. *)
let kernel_entries = 300_000
let reference_kernel_s = 0.3

let kernel () =
  Gc.full_major ();
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 1 to kernel_entries do
    Hashtbl.replace h (i * 7919) (i, [ i ])
  done;
  let acc = ref 0 in
  for i = 1 to kernel_entries do
    match Hashtbl.find_opt h ((((i * 40503) mod kernel_entries) + 1) * 7919) with
    | Some (x, _) -> acc := !acc + x
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* One warm-up pass, which is checked and gives the heap peak but is not
   timed: the kernel's table would otherwise raise the peak, and later
   passes repeat the same work. Then timed passes while the next one, as
   long as the last, still ends within [seconds]. Each time is the sum over
   cells of the cell's median scaled time over the timed passes. A cell's
   wall time includes its checks; [Suite.run_cell] collects the heap
   before it, untimed. *)
let timed_cells ~seed ~seconds cells tally =
  let deadline = now () +. float_of_int seconds in
  let warm = List.map (Suite.run_cell ~seed) cells in
  tally_outcomes tally warm;
  let heap = heap_peak_mb () in
  let cells = Array.of_list cells in
  let times = Array.make (Array.length cells) [] in
  let rec pass n =
    let t0 = now () in
    let k_before = ref (kernel ()) in
    let kernels = ref [ !k_before ] and raw = ref 0.0 in
    Array.iteri
      (fun i cell ->
        let o = Suite.run_cell ~seed cell in
        let k_after = kernel () in
        let scale = reference_kernel_s /. ((!k_before +. k_after) /. 2.0) in
        k_before := k_after;
        kernels := k_after :: !kernels;
        tally_outcomes tally [ o ];
        raw := !raw +. o.Suite.wall_s;
        let setup, run =
          match o.Suite.m with
          | Some m -> (m.Drivers.setup_s, m.Drivers.run_s)
          | None -> (0.0, 0.0)
        in
        times.(i) <-
          (o.Suite.wall_s *. scale, setup *. scale, run *. scale) :: times.(i))
      cells;
    Printf.printf "pass %d: %.4f s raw, kernel median %.4f s\n%!" n !raw
      (median !kernels);
    if now () +. (now () -. t0) <= deadline then pass (n + 1)
  in
  pass 1;
  let total f =
    Array.fold_left (fun a ts -> a +. median (List.map f ts)) 0.0 times
  in
  [
    ("wall_s", total (fun (w, _, _) -> w), "s");
    ("setup_s", total (fun (_, s, _) -> s), "s");
    ("run_s", total (fun (_, _, r) -> r), "s");
    ("heap_peak_mb", heap, "MB");
  ]

(* -- Traced run ----------------------------------------------------------- *)

let count outs name =
  List.fold_left
    (fun a (o : Suite.outcome) ->
      match o.Suite.m with
      | Some m -> (
        match List.assoc_opt name m.Drivers.counts with
        | Some c -> a + c
        | None -> a)
      | None -> a)
    0 outs

(* Nearest-rank percentile of a simulated latency over all cells, in us. *)
let percentile outs name q =
  let st = Eventsim.Stat.create name in
  List.iter
    (fun (o : Suite.outcome) ->
      match o.Suite.m with
      | Some m -> (
        match List.assoc_opt name m.Drivers.samples with
        | Some xs -> List.iter (Eventsim.Stat.add st) xs
        | None -> ())
      | None -> ())
    outs;
  if Eventsim.Stat.count st = 0 then 0.0
  else us_of_cycles (Eventsim.Stat.percentile st q)

(* Host time to build one SLO table: the median of the cells' own builds
   where the workload builds it, else one build of the same shape. *)
let khash_build_s plain =
  let builds =
    List.filter_map
      (fun (o : Suite.outcome) ->
        match o.Suite.m with
        | Some m when m.Drivers.build_s > 0.0 -> Some m.Drivers.build_s
        | _ -> None)
      plain
  in
  if builds <> [] then median builds
  else begin
    let t0 = now () in
    let machine = Machine.create (Eventsim.Engine.create ()) Config.hector in
    Pins.fill (Pins.slo_table machine)
      Workloads.Slo_stream.default_config.Workloads.Slo_stream.elements;
    now () -. t0
  end

(* The per-layer metrics the drivers count, from an untraced pass
   ([plain]) and the same cells with the hooks flipped ([toggled]). *)
let driver_layers ~plain ~toggled =
  let fcount name = float_of_int (count plain name) in
  let run outs = sum_m outs (fun m -> m.Drivers.run_s) in
  let pick on =
    List.map2
      (fun (p : Suite.outcome) g -> if p.Suite.hooks_on = on then p else g)
      plain toggled
  in
  let hooked = pick true in
  let events = fcount "eventsim.events" in
  let mem_ops = fcount "hector.mem_ops" in
  let local = float_of_int (count hooked "locks.local_handoffs") in
  let remote = float_of_int (count hooked "locks.remote_handoffs") in
  let hits = fcount "khash.optimistic_hits" in
  [
    ("eventsim.events", events, "count");
    ("eventsim.ns_per_event", ratio (run plain *. 1e9) events, "ns");
    ( "eventsim.minor_words_per_event",
      ratio (sum_m plain (fun m -> m.Drivers.minor_words)) events,
      "words" );
    ( "eventsim.major_collections",
      fcount "eventsim.major_collections",
      "count" );
    ("hector.mem_ops", mem_ops, "count");
    ("hector.mem_ops_per_event", ratio mem_ops events, "ratio");
    ( "hector.queued_sim_cycles",
      fcount "hector.queued_sim_cycles",
      "sim_cycles" );
    ("locks.acquisitions", fcount "locks.acquisitions", "count");
    ("locks.wait_sim_us_p50", percentile plain "locks.wait" 0.50, "sim_us");
    ("locks.wait_sim_us_p99", percentile plain "locks.wait" 0.99, "sim_us");
    ("locks.remote_handoff_frac", ratio remote (local +. remote), "ratio");
    ("hkernel.faults", fcount "hkernel.faults", "count");
    ("hkernel.rpcs", fcount "hkernel.rpcs", "count");
    ( "hkernel.retry_ratio",
      ratio (fcount "hkernel.retries") (fcount "hkernel.faults"),
      "ratio" );
    ("hkernel.replications", fcount "hkernel.replications", "count");
    ("hkernel.invalidations", fcount "hkernel.invalidations", "count");
    ("hkernel.reserve_conflicts", fcount "hkernel.reserve_conflicts", "count");
    ( "hkernel.fault_sim_us_p50",
      percentile plain "hkernel.fault" 0.50,
      "sim_us" );
    ( "hkernel.fault_sim_us_p99",
      percentile plain "hkernel.fault" 0.99,
      "sim_us" );
    ("khash.build_s", khash_build_s plain, "s");
    ( "khash.optimistic_hit_ratio",
      ratio hits (hits +. fcount "khash.optimistic_fallbacks"),
      "ratio" );
    ("slo.queue_sim_us_p99", percentile plain "slo.queue" 0.99, "sim_us");
    ("slo.service_sim_us_p99", percentile plain "slo.service" 0.99, "sim_us");
    ( "hooks.overhead_frac",
      ratio (run hooked) (run (pick false)) -. 1.0,
      "ratio" );
  ]

(* An untraced pass and a pass with the hooks flipped, which must agree on
   every simulated result the hooks do not produce. *)
let layer_passes ~seed cells tally =
  let plain = List.map (Suite.run_cell ~seed) cells in
  let toggled = List.map (Suite.run_cell ~toggle:true ~seed) cells in
  tally_outcomes tally (plain @ toggled);
  List.iter2
    (fun (p : Suite.outcome) (g : Suite.outcome) ->
      if p.Suite.stable <> g.Suite.stable then
        fail tally ~cells:0 p.Suite.cell.Suite.id
          [ "installing the hooks changed simulated results" ])
    plain toggled;
  (plain, toggled)

(* The core layer, on the SLO experiment's export: [Bench_json.document]
   on the domain pool and on one domain, which must agree byte for byte,
   then [Bench_json.write]. *)
let core_layers tr tally =
  let document jobs =
    let t0 = now () in
    let doc =
      Span.phase tr ~parent:(-1) "bench_json.document" (fun () ->
          Suite.export_document ~jobs)
    in
    (now () -. t0, doc)
  in
  let jobs = Suite.export_jobs in
  match (document jobs, document 1) with
  | exception e ->
    fail tally ~cells:1 "slo export" [ "raised " ^ Printexc.to_string e ];
    0.0
  | (par_s, par), (one_s, one) ->
    Span.phase tr ~parent:(-1) "bench_json.write" (fun () ->
        Hurricane.Bench_json.write
          ~path:(Filename.concat out_dir "slo_export.json")
          par);
    fail tally ~cells:1 "slo export"
      (if Json.to_string par = Json.to_string one then []
       else [ Printf.sprintf "jobs-%d document differs from jobs-1" jobs ]);
    ratio one_s (float_of_int jobs *. par_s)

let nesting tally tr =
  match Span.check_nesting tr with
  | None -> ()
  | Some problem -> fail tally ~cells:0 "trace" [ problem ]

(* Encode and write the trace; print its self-time table. *)
let write_trace ~workload tr =
  let doc = Span.to_json ~us_of_cycles tr in
  let t0 = now () in
  let s = Json.to_string ~compact:true doc in
  let encode_s = now () -. t0 in
  let path = Filename.concat out_dir ("trace-" ^ workload ^ ".json") in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  Printf.printf "trace: %d spans -> %s\n" (Span.length tr) path;
  List.iter
    (fun (r : Span.row) ->
      let host = function None -> "-" | Some s -> Printf.sprintf "%.6f" s in
      Printf.printf "  %-24s n=%-7d sim_self_us=%-14.1f host_self_s=%s\n"
        r.Span.name r.Span.count r.Span.sim_self_us (host r.Span.host_self_s))
    (Span.summary ~us_of_cycles tr);
  (encode_s, String.length s)

(* Counting passes first, then the traced pass between two untraced ones:
   the trace's overhead is measured against their mean. *)
let traced_cells ~workload ~seed cells tally =
  let plain, toggled = layer_passes ~seed cells tally in
  let tr = Span.create () in
  let traced = List.map (Suite.run_cell ~trace:tr ~seed) cells in
  let after = List.map (Suite.run_cell ~seed) cells in
  tally_outcomes tally (traced @ after);
  List.iter2
    (fun (t : Suite.outcome) (p : Suite.outcome) ->
      if t.Suite.digest <> p.Suite.digest then
        fail tally ~cells:0 t.Suite.cell.Suite.id
          [ "traced simulated result differs from the untraced one" ])
    traced plain;
  let efficiency = core_layers (Some tr) tally in
  nesting tally tr;
  let encode_s, bytes = write_trace ~workload tr in
  let run outs = sum_m outs (fun m -> m.Drivers.run_s) in
  driver_layers ~plain ~toggled
  @ [
      ("core.parallel_efficiency", efficiency, "ratio");
      ("json.encode_s", encode_s, "s");
      ("json.bytes", float_of_int bytes, "bytes");
      ( "trace.overhead_frac",
        ratio (run traced) ((run plain +. run after) /. 2.0) -. 1.0,
        "ratio" );
    ]

(* -- Command line ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (fault_sweep|numa_handoff|slo_stream) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let rec parse acc = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get key =
    match List.assoc_opt key opts with Some v -> v | None -> usage ()
  in
  let int key =
    match int_of_string_opt (get key) with Some n -> n | None -> usage ()
  in
  let workload = get "workload" in
  let seed = int "seed" in
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let cells =
    match List.assoc_opt workload Suite.workloads with
    | Some cells -> cells ~seed ()
    | None -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let tally = { attempted = 0; failed = 0 } in
  let metrics =
    if trace = 0 then timed_cells ~seed ~seconds cells tally
    else
      traced_cells ~workload ~seed cells tally
      @ List.map (fun (name, ns) -> (name, ns, "ns")) (Pins.all ())
  in
  report tally metrics
