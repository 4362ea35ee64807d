(* In-memory span recorder for the benchmark's traced run.

   The drivers open a span around each public call they make. A span keeps
   its name, its parent, a request id shared by the spans of one
   processor's operation, the processor it ran on, and its interval on both
   clocks: host seconds and simulated cycles. Spans stay in growable arrays
   until the run ends; [to_json] then renders them as Chrome trace events,
   one process track per clock.

   Every entry point takes a [t option] and does nothing on [None], without
   allocating, so the drivers call it unconditionally and an untraced run
   pays one branch per site.

   Simulated fibers are cooperative: the host interval of a span that
   suspends ([fiber = true]) also covers whatever other fibers ran
   meanwhile, so host self time is reported only for spans that never
   suspend (set-up phases, [Engine.run], the export). Simulated self time
   is reported for every span. *)

type t = {
  t0 : float;
  mutable n : int;
  mutable names : string array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable tids : int array;
  mutable fibers : bool array;
  mutable host_start : float array;
  mutable host_end : float array;
  mutable sim_start : int array;
  mutable sim_end : int array;
  mutable sim_base : int;
}

let create () =
  {
    t0 = Unix.gettimeofday ();
    n = 0;
    names = [||];
    parents = [||];
    reqs = [||];
    tids = [||];
    fibers = [||];
    host_start = [||];
    host_end = [||];
    sim_start = [||];
    sim_end = [||];
    sim_base = 0;
  }

let length t = t.n

let grow t =
  let cap = max 1024 (2 * t.n) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.parents <- ext t.parents (-1);
  t.reqs <- ext t.reqs (-1);
  t.tids <- ext t.tids 0;
  t.fibers <- ext t.fibers false;
  t.host_start <- ext t.host_start 0.0;
  t.host_end <- ext t.host_end 0.0;
  t.sim_start <- ext t.sim_start 0;
  t.sim_end <- ext t.sim_end 0

let push t ~name ~parent ~req ~tid ~fiber ~sim_start ~sim_end ~host =
  if t.n = Array.length t.names then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.parents.(i) <- parent;
  t.reqs.(i) <- req;
  t.tids.(i) <- tid;
  t.fibers.(i) <- fiber;
  t.host_start.(i) <- host;
  t.host_end.(i) <- host;
  t.sim_start.(i) <- t.sim_base + sim_start;
  t.sim_end.(i) <- t.sim_base + sim_end;
  t.n <- i + 1;
  i

(* Open a span at simulated time [sim]; returns its id, or -1 untraced. *)
let enter tr ~name ~parent ~req ~tid ~fiber ~sim =
  match tr with
  | None -> -1
  | Some t ->
    push t ~name ~parent ~req ~tid ~fiber ~sim_start:sim ~sim_end:sim
      ~host:(Unix.gettimeofday ())

let leave tr id ~sim =
  match tr with
  | None -> ()
  | Some t ->
    t.host_end.(id) <- Unix.gettimeofday ();
    t.sim_end.(id) <- t.sim_base + sim

(* A span known only after the fact, such as a request's wait in its
   server's queue: its simulated interval is given, its host interval is
   the current instant. *)
let record tr ~name ~parent ~req ~tid ~sim_start ~sim_end =
  match tr with
  | None -> ()
  | Some t ->
    ignore
      (push t ~name ~parent ~req ~tid ~fiber:true ~sim_start ~sim_end
         ~host:(Unix.gettimeofday ()))

(* A non-suspending phase outside the simulated run (set-up, export). *)
let phase tr ~parent name f =
  let id = enter tr ~name ~parent ~req:(-1) ~tid:0 ~fiber:false ~sim:0 in
  let r = f () in
  leave tr id ~sim:0;
  r

(* Each cell's simulated clock starts at 0; moving the base past the
   cell's end lays cells out one after another on the simulated track. *)
let advance tr ~sim_end =
  match tr with None -> () | Some t -> t.sim_base <- t.sim_base + sim_end

(* -- Self time ------------------------------------------------------------- *)

(* Duration of [lo, hi] not covered by the (clipped) child intervals. *)
let self_of ~lo ~hi children =
  let ivs =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = max a lo and b = min b hi in
           if b > a then Some (a, b) else None)
         children)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, lo) ivs
  in
  hi -. lo -. covered

type row = {
  name : string;
  count : int;
  sim_total_us : float;
  sim_self_us : float;
  host_total_s : float option;  (** [None] for suspending spans *)
  host_self_s : float option;
}

let children t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parents.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  kids

(* Per span name: count, simulated total and self time, and host total and
   self time for the non-suspending names, in first-seen order. *)
let summary ~us_of_cycles t =
  let kids = children t in
  let sim_self i =
    let f = float_of_int in
    self_of ~lo:(f t.sim_start.(i)) ~hi:(f t.sim_end.(i))
      (List.map (fun c -> (f t.sim_start.(c), f t.sim_end.(c))) kids.(i))
  in
  let host_self i =
    self_of ~lo:t.host_start.(i) ~hi:t.host_end.(i)
      (List.map (fun c -> (t.host_start.(c), t.host_end.(c))) kids.(i))
  in
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let name = t.names.(i) in
    let count, st, ss, ht, hs, fiber =
      match Hashtbl.find_opt acc name with
      | Some v -> v
      | None ->
        order := name :: !order;
        (0, 0.0, 0.0, 0.0, 0.0, false)
    in
    Hashtbl.replace acc name
      ( count + 1,
        st +. float_of_int (t.sim_end.(i) - t.sim_start.(i)),
        ss +. sim_self i,
        ht +. (t.host_end.(i) -. t.host_start.(i)),
        hs +. host_self i,
        fiber || t.fibers.(i) )
  done;
  List.rev_map
    (fun name ->
      let count, st, ss, ht, hs, fiber = Hashtbl.find acc name in
      let us c = us_of_cycles 1 *. c in
      {
        name;
        count;
        sim_total_us = us st;
        sim_self_us = us ss;
        host_total_s = (if fiber then None else Some ht);
        host_self_s = (if fiber then None else Some hs);
      })
    !order

(* Spans nest within their parents on both clocks; [None] when they all
   do, else the first offender. *)
let check_nesting t =
  let bad = ref None in
  for i = t.n - 1 downto 0 do
    let p = t.parents.(i) in
    if
      p >= 0
      && (t.sim_start.(i) < t.sim_start.(p)
         || t.sim_end.(i) > t.sim_end.(p)
         || t.host_start.(i) < t.host_start.(p)
         || t.host_end.(i) > t.host_end.(p))
    then
      bad :=
        Some (Printf.sprintf "span %d %S escapes parent %d %S" i t.names.(i) p
                t.names.(p))
  done;
  !bad

(* -- Chrome trace-event JSON ------------------------------------------------ *)

let host_pid = 1
let sim_pid = 2

let to_json ~us_of_cycles t =
  let meta pid name =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]
  in
  let event i ~pid ~ts ~dur =
    Json.Obj
      [
        ("name", Json.String t.names.(i));
        ("ph", Json.String "X");
        ("pid", Json.Int pid);
        ("tid", Json.Int t.tids.(i));
        ("ts", Json.Float ts);
        ("dur", Json.Float dur);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int i);
              ("parent", Json.Int t.parents.(i));
              ("req", Json.Int t.reqs.(i));
            ] );
      ]
  in
  let events =
    List.concat
      (List.init t.n (fun i ->
           let hs = (t.host_start.(i) -. t.t0) *. 1e6 in
           let ss = us_of_cycles t.sim_start.(i) in
           [
             event i ~pid:host_pid ~ts:hs
               ~dur:((t.host_end.(i) -. t.host_start.(i)) *. 1e6);
             event i ~pid:sim_pid ~ts:ss
               ~dur:(us_of_cycles t.sim_end.(i) -. ss);
           ]))
  in
  let opt = function None -> Json.Null | Some v -> Json.Float v in
  let rows =
    List.map
      (fun r ->
        Json.Obj
          [
            ("name", Json.String r.name);
            ("count", Json.Int r.count);
            ("sim_total_us", Json.Float r.sim_total_us);
            ("sim_self_us", Json.Float r.sim_self_us);
            ("host_total_s", opt r.host_total_s);
            ("host_self_s", opt r.host_self_s);
          ])
      (summary ~us_of_cycles t)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (meta host_pid "host clock" :: meta sim_pid "simulated clock"
          :: events) );
      ("displayTimeUnit", Json.String "ns");
      ("otherData", Json.Obj [ ("self_time", Json.List rows) ]);
    ]
