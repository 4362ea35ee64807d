(* Every experiment's spec (interface in spec.mli): each states its
   sweep, its result's columns, its claims and, for a workload subcommand,
   its command-line knobs once. *)

open Cmdliner
open Locks
open Workloads

type knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

let full = { procs = None; sizes = None; iters = None; rounds = None }

module Col = struct
  type ('c, 'r) t = {
    key : string;
    head : string;
    width : int;
    left : bool;  (* a left-aligned name: its head is left-aligned too *)
    json : 'c -> 'r -> Json.t;
    cell : 'c -> 'r -> string;
  }

  type ('c, 'r, 'v) make =
    string -> string -> int -> ('c -> 'r -> 'v) -> ('c, 'r) t

  let custom key head width json cell get =
    let json c r = json (get c r) and cell c r = cell (get c r) in
    { key; head; width; left = false; json; cell }

  let int k h w =
    custom k h w (fun v -> Json.Int v) (fun v -> Printf.sprintf "%*d" w v)

  let float k h w d =
    custom k h w (fun v -> Json.Float v) (fun v -> Printf.sprintf "%*.*f" w d v)

  let pct k h w d =
    custom k h w (fun v -> Json.Float v) (fun v ->
        Printf.sprintf "%*.*f%%" (w - 1) d (100.0 *. v))

  let bool ?(no = "NO") k h w =
    custom k h w (fun b -> Json.Bool b) (fun b ->
        Printf.sprintf "%*s" w (if b then "yes" else no))

  let text k h w get =
    let col =
      custom k h w (fun s -> Json.String s) (fun s -> Printf.sprintf "%-*s" w s)
    in
    { (col get) with left = true }

  let json key json =
    { key; head = ""; width = 0; left = false; json; cell = (fun _ _ -> "") }
end

module Knob = struct
  type 'c t = ('c -> 'c) Term.t

  let knob ?absent typ names ~docv ~doc default (set : 'c -> 'v -> 'c) : 'c t =
    Term.(
      const (fun v c -> set c v)
      $ Arg.(value & opt typ default & info names ?absent ~docv ~doc))

  let switch names ~doc set =
    Term.(
      const (fun on c -> if on then set c else c)
      $ Arg.(value & flag & info names ~doc))

  let config d knobs =
    List.fold_left
      (fun acc knob -> Term.(const (fun c set -> set c) $ acc $ knob))
      (Term.const d) knobs

  let second knob = Term.(const (fun set (a, c) -> (a, set c)) $ knob)

  let algo_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Lock.of_string s) in
    let print ppf a = Format.pp_print_string ppf (Lock.algo_name a) in
    Arg.conv (parse, print)

  let lock_doc =
    "Lock algorithm: "
    ^ String.concat ", " (List.map fst Lock.spellings)
    ^ " or spin:<max-backoff-us> (at least 1)."

  let lock_arg default =
    Arg.(
      value & opt algo_conv default
      & info [ "l"; "lock" ] ~docv:"ALGO" ~doc:lock_doc)

  let lock default set = Term.(const (fun v c -> set c v) $ lock_arg default)

  let procs ?(doc = "Number of contending processors.") d =
    knob Arg.int [ "p"; "procs" ] ~docv:"P" ~doc d

  let workers d =
    knob Arg.int [ "p"; "workers" ] ~docv:"P" ~doc:"Worker processors." d

  let cluster_size d =
    knob Arg.int [ "c"; "cluster-size" ] ~docv:"N"
      ~doc:"Processors per cluster." d

  let clusters ?(doc = "Number of clusters (p=16 split).") d =
    knob Arg.int [ "clusters" ] ~docv:"C" ~doc d

  let seed d = knob Arg.int [ "seed" ] ~docv:"SEED" ~doc:"RNG seed." d

  let window d =
    knob Arg.float [ "window" ] ~docv:"US" ~doc:"Measurement window in us." d

  let hold d =
    knob Arg.float [ "hold" ] ~docv:"US" ~doc:"Critical-section length in us." d

  let read_ratio ?(doc = "Fraction of operations that are read-only lookups.")
      d =
    knob Arg.float [ "read-ratio" ] ~docv:"R" ~doc d
end

open Knob

type expect = Holds | Miss of string

type 'cells claim = {
  statement : string;
  expect : expect;
  check : 'cells -> string * bool;
}

type ('c, 'r) t = {
  section : string;
  title : string;
  claim : string;
  grid : 'c list;
  run : knobs -> 'c -> 'r;
  shape : ('c, 'r) shape;
  claims : ('c * 'r) list claim list;
  cli : ('c, 'r) cli option;
}

and ('c, 'r) cli = {
  command : string;
  doc : string;
  default : 'c;
  knobs : 'c -> 'c Knob.t list;
  sweep : knobs Knob.t list;
  alt : (bool Term.t * ('c, 'r) t Lazy.t) option;
  observed : (knobs -> 'c -> 'r) Term.t option;
  finish : ('r -> string option) Term.t;
}

and (_, _) shape =
  | Rows : { columns : ('c, 'r) Col.t list } -> ('c, 'r) shape
  | Series : {
      fields : (string * Json.t) list;
      points : (int, 'p) Col.t list;
      axis : string;
    }
      -> (Lock.algo, (int * 'p) list) shape
  | Record : {
      columns : ('c, 'r) Col.t list;
      head : string list;
      lines : 'r -> string list;
    }
      -> ('c, 'r) shape

let cli ?(sweep = []) ?alt ?observed ?(finish = Term.const (fun _ -> None))
    command ~doc default knobs =
  { command; doc; default; knobs; sweep; alt; observed; finish }

(* A run that reports lockdep violations fails its command. *)
let lockdep violations =
  Term.const (fun r ->
      match violations r with
      | 0 -> None
      | n -> Some (Printf.sprintf "%d lockdep violations" n))

let row columns (c, r) =
  Json.Obj
    (List.filter_map
       (fun (col : _ Col.t) ->
         if col.key = "" then None else Some (col.key, col.json c r))
       columns)

let headed columns = List.filter (fun (c : _ Col.t) -> c.head <> "") columns

(* A series plots its two headed point columns: x, then the value. *)
let plotted points =
  match headed points with
  | [ x; v ] -> (x, v)
  | _ -> invalid_arg "Spec: a series needs exactly two headed point columns"

(* Every series has the same x values: the first series' points give them. *)
let first = function (_, points) :: _ -> points | [] -> []

let cell_json (type c r) (s : (c, r) t) ((c, r) : c * r) =
  match s.shape with
  | Rows { columns } | Record { columns; _ } -> row columns (c, r)
  | Series { points; _ } ->
    Json.Obj
      [
        ("algo", Json.String (Lock.algo_name c));
        ("points", Json.List (List.map (row points) r));
      ]

let json (type c r) (s : (c, r) t) (cells : (c * r) list) =
  match s.shape with
  | Rows _ -> Json.List (List.map (cell_json s) cells)
  | Series { fields; _ } ->
    Json.Obj
      (fields @ [ ("series", Json.List (List.map (cell_json s) cells)) ])
  | Record _ -> cell_json s (List.hd cells)

let section ppf title claim =
  let rule = String.make 78 '-' in
  Format.fprintf ppf "%s@.%s@.paper: %s@.%s@." rule title claim rule

let print (type c r) (s : (c, r) t) ppf (cells : (c * r) list) =
  section ppf s.title s.claim;
  match s.shape with
  | Rows { columns } ->
    (* A head is left-aligned in the first column and over a name, else
       right-aligned; each cell comes padded. *)
    let cols = headed columns in
    let line cells = Format.fprintf ppf "%s@." (String.concat " " cells) in
    line
      (List.mapi
         (fun i (c : _ Col.t) ->
           Printf.sprintf (if i = 0 || c.left then "%-*s" else "%*s") c.width
             c.head)
         cols);
    List.iter
      (fun (c, r) -> line (List.map (fun (col : _ Col.t) -> col.cell c r) cols))
      cells
  | Series { points; _ } ->
    let x, v = plotted points in
    let line label cells =
      Format.fprintf ppf "%-12s%s@." label (String.concat "" cells)
    in
    line x.head (List.map (fun (p, r) -> x.cell p r) (first cells));
    List.iter
      (fun (algo, pts) ->
        line (Lock.algo_name algo) (List.map (fun (p, r) -> v.cell p r) pts))
      cells
  | Record { head; lines; _ } ->
    let line = Format.fprintf ppf "%s@." in
    List.iter line head;
    List.iter (fun (_, r) -> List.iter line (lines r)) cells

let dat (type c r) (s : (c, r) t) :
    (string -> (c * r) list -> Dat.plot) option =
  match s.shape with
  | Series { points; axis; _ } ->
    let x, v = plotted points in
    let value p r =
      match v.json p r with
      | Json.Float f -> Printf.sprintf "%.2f" f
      | j -> Json.to_string j
    in
    Some
      (fun dir cells ->
        let header =
          String.concat "\t"
            (("# " ^ x.key) :: List.map (fun (a, _) -> Lock.algo_name a) cells)
        in
        let line (p, _) =
          String.concat "\t"
            (string_of_int p
            :: List.map (fun (_, pts) -> value p (List.assoc p pts)) cells)
        in
        Dat.write dir ~name:s.section ~xlabel:axis
          (header :: List.map line (first cells)))
  | Rows _ | Record _ -> None

let unexpected s cells =
  List.filter_map
    (fun c ->
      let measured, holds = c.check cells in
      let line verdict =
        Some
          (Printf.sprintf "%s: %s: %s, measured %s" s.section c.statement
             verdict measured)
      in
      match c.expect with
      | Holds when not holds -> line "missed"
      | Miss reason when holds -> line ("declared miss (" ^ reason ^ ") holds")
      | Holds | Miss _ -> None)
    s.claims

(* -- claims ---------------------------------------------------------------- *)

let holds statement check = { statement; expect = Holds; check }
let miss statement ~reason check = { statement; expect = Miss reason; check }

(* Whether [ok] holds on every row, of which there must be one: the measured
   text counts the rows, or shows the first that fails. *)
let each rows ~show ok =
  match (rows, List.find_opt (fun row -> not (ok row)) rows) with
  | [], _ -> ("no rows", false)
  | _, None -> (Printf.sprintf "all %d rows" (List.length rows), true)
  | _, Some row -> (show row, false)

let every ?(where = fun _ -> true) statement ~show ok =
  holds statement (fun cells -> each (List.filter where cells) ~show ok)

(* The point at [x] of [algo]'s series. *)
let at cells algo x = List.assoc x (List.assoc algo cells)

(* A target [ok x y] on two measured means, named [a] and [b]: the measured
   text shows both and their ratio. *)
let pair (a, x) (b, y) ok cells =
  let x = x cells and y = y cells in
  (Printf.sprintf "%s %.2fus vs %s %.2fus (%.2fx)" a x b y (x /. y), ok x y)

(* A claim's check on a one-cell spec's result. *)
let only check cells = check (snd (List.hd cells))

(* Zero lockdep violations on every row; [show] names a row. *)
let clean statement ~show violations =
  every statement
    ~show:(fun row ->
      Printf.sprintf "%s: %d violations" (show row) (violations row))
    (fun row -> violations row = 0)

let spin35 = Lock.Spin { max_backoff_us = 35.0 }

(* A latency summary's columns. The mean is headed, so a series plots it. *)
let summary get =
  let field f c r = f (get c r : Measure.summary) in
  Col.
    [
      int "n" "" 0 (field (fun s -> s.n));
      float "mean_us" "mean(us)" 9 1 (field (fun s -> s.mean_us));
      float "p50_us" "" 0 0 (field (fun s -> s.p50_us));
      float "p90_us" "" 0 0 (field (fun s -> s.p90_us));
      float "p99_us" "" 0 0 (field (fun s -> s.p99_us));
      float "p999_us" "" 0 0 (field (fun s -> s.p999_us));
      float "min_us" "" 0 0 (field (fun s -> s.min_us));
      float "max_us" "" 0 0 (field (fun s -> s.max_us));
      float "frac_above_2ms" "" 0 0 (field (fun s -> s.frac_above_2ms));
    ]

let summary_json s = row (summary (fun () s -> s)) ((), s)
let algo_name (a, _) _ = Lock.algo_name a

(* The grids are products of their sweep axes, outermost first. *)
let ( let* ) xs f = List.concat_map f xs

(* -- the paper's tables and figures ------------------------------------- *)

let paper_procs = [ 1; 2; 4; 8; 12; 16 ]
let paper_cluster_sizes = [ 1; 2; 4; 8; 16 ]

let fig4 () : (Instr_model.algo, Instr_model.counts) t =
  let counts (c : Instr_model.counts) =
    Json.Obj
      [
        ("atomic", Json.Int c.atomic); ("mem", Json.Int c.mem);
        ("reg", Json.Int c.reg); ("br", Json.Int c.br);
      ]
  in
  let columns =
    Col.
      [
        text "algo" "algo" 8 (fun a _ -> Instr_model.algo_name a);
        int "" "Atomic" 7 (fun _ (c : Instr_model.counts) -> c.atomic);
        int "" "Mem" 5 (fun _ (c : Instr_model.counts) -> c.mem);
        int "" "Reg" 5 (fun _ (c : Instr_model.counts) -> c.reg);
        int "" "Br" 5 (fun _ (c : Instr_model.counts) -> c.br);
        json "ours" (fun _ c -> counts c);
        json "paper" (fun a _ -> counts (Instr_model.paper_counts a));
        (* Left-aligned, three spaces after Br. *)
        custom "matches_paper" "  match " 8
          (fun b -> Json.Bool b)
          (Printf.sprintf "  %-6b")
          (fun a c -> c = Instr_model.paper_counts a);
        float "predicted_us" "pred(us)" 9 2 (fun a _ ->
            Instr_model.predicted_us Hector.Config.hector a);
      ]
  in
  {
    section = "fig4";
    title = "FIG4 - instruction counts per uncontended lock/unlock pair";
    claim =
      "MCS 2/2/3/5, H1 2/1/3/5, H2 2/0/3/4, Spin 2/0/1/3 (Atomic/Mem/Reg/Br)";
    grid = Instr_model.all;
    run = (fun _ a -> Instr_model.counts a);
    shape = Rows { columns };
    cli = None;
    claims =
      [
        every "every algorithm's counts are the paper's"
          ~show:(fun (a, _) -> Instr_model.algo_name a ^ " differs")
          (fun (a, c) -> c = Instr_model.paper_counts a);
      ];
  }

let uncontended () : (Lock.algo, Uncontended.result) t =
  let model = function Some us -> Printf.sprintf "%.2f" us | None -> "-" in
  let columns =
    Col.
      [
        text "algo" "algo" 10 (fun a _ -> Lock.algo_name a);
        float "pair_us" "measured(us)" 12 2 (fun _ r -> r.Uncontended.pair_us);
        custom "predicted_us" "model(us)" 12
          (function Some us -> Json.Float us | None -> Json.Null)
          (fun us -> Printf.sprintf "%12s" (model us))
          (fun _ (r : Uncontended.result) -> r.predicted_us);
      ]
  in
  {
    section = "uncontended";
    title = "UNC - uncontended lock/unlock latency (Section 4.1.1)";
    claim = "MCS 5.40us -> H2-MCS 3.69us (32% better); spin 3.65us";
    grid = Uncontended.algos;
    run = (fun _ a -> Uncontended.run a);
    shape = Rows { columns };
    cli = None;
    claims =
      (let pair_us a cells = (List.assoc a cells).Uncontended.pair_us in
       [
         holds "H2-MCS within 5% of spin(35us) (paper: 3.69 vs 3.65us)"
           (pair
              ("H2-MCS", pair_us Lock.Mcs_h2)
              ("spin(35us)", pair_us spin35)
              (fun h2 spin -> h2 /. spin < 1.05));
         holds "MCS -> H2-MCS improves the pair by 20-45% (paper: 32%)"
           (fun cells ->
             let mcs = pair_us Lock.Mcs_original cells
             and h2 = pair_us Lock.Mcs_h2 cells in
             let improvement = (mcs -. h2) /. mcs in
             ( Printf.sprintf "%.0f%% (MCS %.2fus, H2-MCS %.2fus)"
                 (100.0 *. improvement) mcs h2,
               improvement > 0.20 && improvement < 0.45 ));
       ]);
  }

(* One cell and one series per algorithm, one point per x. *)
let series ~section ~title ~claim ~axis ~fields ~algos ~xs ~claims ?cli point
    points =
  {
    section;
    title;
    claim;
    grid = algos;
    run = (fun k algo -> List.map (fun x -> (x, point k algo x)) (xs k));
    shape = Series { fields; points; axis };
    claims;
    cli;
  }

let sweep_procs k = Option.value k.procs ~default:paper_procs

(* A figure's subcommand runs one algorithm's series: [--lock] picks the
   cell, [sweep] sets the x values and [alt]'s flag picks the sibling
   figure. *)
let series_cli command ~doc ~alt sweep =
  cli command ~doc Lock.Mcs_h2 ~sweep:[ sweep ] ~alt (fun a ->
      [ lock a (fun _ a -> a) ])

let sweep_knob names ~doc full set =
  knob
    ~absent:(String.concat "," (List.map string_of_int full))
    Arg.(some (list int))
    names ~docv:"N,..." ~doc None set

let procs_sweep () =
  sweep_knob [ "p"; "procs" ] ~doc:"Processor counts to sweep." paper_procs
    (fun k procs -> { k with procs })

let shared_flag () =
  Arg.(
    value & flag
    & info [ "shared" ] ~doc:"Run the shared-fault figure instead.")

let fig5 section ~title ~hold_us ~claims ?cli () =
  let open Lock_stress in
  series ~section ~claims ?cli
    ~title:
      (Printf.sprintf "%s - lock response time under contention (hold %.0fus)"
         title hold_us)
    ~claim:
      "MCS/H1 scale best; H2 adds a constant repair cost (visible at hold 0); \
       spin(35us) degrades; spin(2ms) competitive in mean but starves"
    ~axis:"contending processors"
    ~fields:[ ("hold_us", Json.Float hold_us) ]
    ~algos:Lock.all_paper_algos ~xs:sweep_procs
    (fun _ algo p -> run ~config:{ default_config with p; hold_us } algo)
    Col.(
      (int "p" "p" 9 (fun p _ -> p) :: summary (fun _ r -> r.summary))
      @ [ int "acquisitions" "" 0 (fun _ r -> r.acquisitions) ])

(* Figure 5's claims are at p = 16. *)
let mean5 algo cells = (at cells algo 16).Lock_stress.summary.mean_us

let fig5b () =
  let h1 = ("H1-MCS", mean5 Lock.Mcs_h1) in
  fig5 "fig5b" ~title:"FIG5b" ~hold_us:25.0
    ~claims:
      [
        holds "at p=16 H2-MCS under 1.45x H1-MCS: the repair cost much smaller"
          (pair ("H2-MCS", mean5 Lock.Mcs_h2) h1 (fun h2 h1 ->
               h2 /. h1 < 1.45));
        holds "at p=16 spin(2ms) competitive with H1-MCS in the mean, under \
               1.5x"
          (pair
             ("spin(2ms)", mean5 (Lock.Spin { max_backoff_us = 2000.0 }))
             h1
             (fun spin h1 -> spin < h1 *. 1.5));
      ]
    ()

let fig5a () =
  let mcs = ("MCS", mean5 Lock.Mcs_original)
  and h1 = ("H1-MCS", mean5 Lock.Mcs_h1)
  and h2 = ("H2-MCS", mean5 Lock.Mcs_h2) in
  fig5 "fig5a" ~title:"FIG5a" ~hold_us:0.0
    ~cli:
      (series_cli "locks"
         ~doc:
           "Stress one lock with P processors: one algorithm's Figure 5 \
            series."
         ~alt:
           ( Arg.(
               value
               & opt (enum [ ("0", false); ("25", true) ]) false
               & info [ "hold" ] ~docv:"US"
                   ~doc:
                     "Critical-section length in us: 0 (Figure 5a) or 25 \
                      (Figure 5b)."),
             lazy (fig5b ()) )
         (procs_sweep ()))
    ~claims:
      [
        holds "at p=16 H1-MCS within 15% of MCS"
          (pair h1 mcs (fun h1 mcs -> h1 /. mcs < 1.15 && mcs /. h1 < 1.15));
        holds "at p=16 H2-MCS pays a visible repair cost, over 1.5x H1-MCS"
          (pair h2 h1 (fun h2 h1 -> h2 > h1 *. 1.5));
        holds "at p=16 spin(35us) degrades past 2x MCS"
          (pair ("spin(35us)", mean5 spin35) mcs (fun spin mcs ->
               spin > mcs *. 2.0));
      ]
    ()

(* A Figure 7 point: the fault latency summary, retries and RPCs. *)
type fault = Measure.summary * int * int

let independent config : fault =
  let r = Independent_faults.run ~config () in
  (r.summary, r.retries, r.rpcs)

let shared config : fault =
  let r = Shared_faults.run ~config () in
  (r.summary, r.retries, r.rpcs)

let fig7 section ~title ~claim ~by ~claims ?cli point =
  let xlabel, json_xlabel, axis, xs =
    match by with
    | `P -> ("p", "p", "contending processors", sweep_procs)
    | `Cluster ->
      ( "cluster",
        "cluster_size",
        "cluster size",
        fun k -> Option.value k.sizes ~default:paper_cluster_sizes )
  in
  series ~section ~title ~claim ~axis ~claims ?cli
    ~fields:[ ("xlabel", Json.String json_xlabel) ]
    ~algos:Experiments.fig7_algos ~xs point
    Col.
      [
        int "x" xlabel 9 (fun x _ -> x);
        float "mean_us" "mean(us)" 9 1 (fun _ ((s : Measure.summary), _, _) ->
            s.mean_us);
        float "p99_us" "" 0 0 (fun _ ((s : Measure.summary), _, _) -> s.p99_us);
        int "retries" "" 0 (fun _ (_, retries, _) -> retries);
        int "rpcs" "" 0 (fun _ (_, _, rpcs) -> rpcs);
      ]

let iters k = Option.value k.iters ~default:100

(* The mean fault latency of [algo] at [x]. *)
let mean7 algo x cells =
  let (s : Measure.summary), _, _ = at cells algo x in
  s.mean_us

(* [name] at [p], as a [pair] operand. *)
let at_p name algo p = (Printf.sprintf "%s p=%d" name p, mean7 algo p)

let rec fig7a () =
  fig7 "fig7a" ~title:"FIG7a - independent faults, one 16-processor cluster"
    ~by:`P
    ~cli:
      (series_cli "faults"
         ~doc:
           "Page-fault stress on the simulated kernel: one lock algorithm's \
            Figure 7a series (independent faults, one 16-processor cluster)."
         ~alt:(shared_flag (), lazy (fig7b ()))
         (procs_sweep ()))
    ~claim:
      "little difference up to p=4; beyond that spin degrades; at p=16 spin \
       is over 2x the distributed locks"
    ~claims:
      (let h1 = at_p "H1-MCS" Lock.Mcs_h1 and spin = at_p "spin(35us)" spin35 in
       [
         holds "flat to p=4: H1-MCS at p=4 within 15% of p=1"
           (pair (h1 4) (h1 1) (fun p4 p1 -> p4 < p1 *. 1.15));
         holds "little difference at p=4: spin(35us) within 15% of H1-MCS"
           (pair (spin 4) (h1 4) (fun spin h1 -> spin < h1 *. 1.15));
         holds "at p=16 spin(35us) is well above H1-MCS: over 1.5x"
           (pair (spin 16) (h1 16) (fun spin h1 -> spin > h1 *. 1.5));
         miss "at p=16 spin(35us) is over 2x the distributed locks (H1-MCS)"
           ~reason:
             "known deviation 2: the interconnect serves requests in issue \
              order and lacks HECTOR's arbitration pathologies"
           (pair (spin 16) (h1 16) (fun spin h1 -> spin > h1 *. 2.0));
       ])
    (fun k lock_algo p ->
      independent
        {
          Independent_faults.default_config with
          p;
          iters = iters k;
          lock_algo;
        })

and fig7b () =
  fig7 "fig7b" ~title:"FIG7b - shared faults, one 16-processor cluster" ~by:`P
    ~claim:
      "smaller gap between distributed and spin locks: contention shifts to \
       the reserve bits"
    ~claims:
      [
        holds
          "at p=16 the gap is smaller than FIG7a's: spin(35us) under 1.8x \
           H1-MCS"
          (pair
             (at_p "spin(35us)" spin35 16)
             (at_p "H1-MCS" Lock.Mcs_h1 16)
             (fun spin h1 -> spin < h1 *. 1.8));
      ]
    (fun k lock_algo p ->
      let rounds = Option.value k.rounds ~default:20 in
      shared { Shared_faults.default_config with p; rounds; lock_algo })

let rec fig7c () =
  fig7 "fig7c" ~title:"FIG7c - independent faults, p=16, cluster-size sweep"
    ~by:`Cluster
    ~cli:
      (series_cli "sweep"
         ~doc:
           "Sweep the cluster size at p=16: one lock algorithm's Figure 7c \
            series (independent faults)."
         ~alt:(shared_flag (), lazy (fig7d ()))
         (sweep_knob [ "sizes" ] ~doc:"Cluster sizes to sweep."
            paper_cluster_sizes (fun k sizes -> { k with sizes })))
    ~claim:
      "small clusters best; no degradation for cluster size <= 4 (hybrid \
       matches fine-grain locking)"
    ~claims:
      (let h2 x = (Printf.sprintf "size %d" x, mean7 Lock.Mcs_h2 x) in
       [
         holds "H2-MCS: cluster size 4 within 25% of cluster size 1"
           (pair (h2 4) (h2 1) (fun c4 c1 -> c4 < c1 *. 1.25));
         holds "H2-MCS: cluster size 16 clearly worse than 4, over 1.5x"
           (pair (h2 16) (h2 4) (fun c16 c4 -> c16 > c4 *. 1.5));
       ])
    (fun k lock_algo cluster_size ->
      independent
        {
          Independent_faults.default_config with
          p = 16;
          iters = iters k;
          cluster_size;
          lock_algo;
        })

and fig7d () =
  fig7 "fig7d" ~title:"FIG7d - shared faults, p=16, cluster-size sweep"
    ~by:`Cluster
    ~claim:
      "moderate cluster sizes win: inter-cluster ownership traffic dominates \
       very small clusters, lock contention the largest"
    ~claims:
      (let size algo x = (Printf.sprintf "size %d" x, mean7 algo x) in
       List.concat_map
         (fun algo ->
           let name = Lock.algo_name algo and size = size algo in
           [
             holds
               (name ^ ": cluster size 1 is dominated by inter-cluster \
                        traffic, over 2x size 4")
               (pair (size 1) (size 4) (fun c1 c4 -> c1 > c4 *. 2.0));
             holds
               (name ^ ": moderate size 4 at least as good as 16, within 20%")
               (pair (size 4) (size 16) (fun c4 c16 -> c4 < c16 *. 1.2));
           ])
         [ Lock.Mcs_h2; spin35 ]
       @ [
           miss
             "H1-MCS: moderate cluster sizes win, the mean stops falling \
              before size 16"
             ~reason:
               "known deviation 5: under H1-MCS the mean keeps falling to \
                size 16, not yet explained"
             (fun cells ->
               let c x = mean7 Lock.Mcs_h1 x cells in
               ( Printf.sprintf "%.1f / %.1f / %.1fus at sizes 4 / 8 / 16" (c 4)
                   (c 8) (c 16),
                 not (c 4 > c 8 && c 8 > c 16) ));
         ])
    (fun k lock_algo cluster_size ->
      let rounds = Option.value k.rounds ~default:15 in
      shared
        {
          Shared_faults.default_config with
          p = 16;
          rounds;
          cluster_size;
          lock_algo;
        })

(* The Section 4.1.2 observation: the fraction of the 2 ms-backoff spin
   lock's acquisitions that take more than 2 ms, at p = 16 and a 25 us
   hold. *)
let starvation () : (unit, Measure.summary) t =
  {
    section = "starvation";
    title = "STARVATION - spin(2ms), p=16, hold 25us (Section 4.1.2)";
    claim = "over 13% of acquisitions took more than 2ms";
    grid = [ () ];
    run =
      (fun _ () ->
        let config =
          { Lock_stress.default_config with p = 16; hold_us = 25.0;
            window_us = 60_000.0 }
        in
        (Lock_stress.run ~config (Lock.Spin { max_backoff_us = 2000.0 }))
          .summary);
    shape =
      Record
        {
          columns = summary (fun () s -> s);
          head = [];
          lines =
            (fun s ->
              [
                Printf.sprintf
                  "measured: %.1f%% of %d acquisitions over 2ms (p99 = %.0fus, \
                   max = %.0fus)"
                  (100.0 *. s.frac_above_2ms) s.n s.p99_us s.max_us;
              ]);
        };
    claims =
      (let summary f cells = f (snd (List.hd cells) : Measure.summary) in
       let frac target =
         summary (fun s ->
             ( Printf.sprintf "%.1f%% over 2ms" (100.0 *. s.frac_above_2ms),
               s.frac_above_2ms > target ))
       in
       [
         holds "a real tail: over 0.5% of acquisitions take more than 2ms"
           (frac 0.005);
         holds "the worst wait exceeds 2ms"
           (summary (fun s ->
                (Printf.sprintf "max %.0fus" s.max_us, s.max_us > 2000.0)));
         miss "over 13% of acquisitions took more than 2ms (Section 4.1.2)"
           ~reason:
             "known deviation 1: the tail reproduces, its magnitude depends on \
              unmodelled details of the 1994 measurement loop"
           (frac 0.13);
       ]);
    cli = None;
  }

let constants () : (unit, Calibration.result) t =
  let open Calibration in
  let us key get = Col.float key "" 0 0 (fun () r -> get r) in
  {
    section = "constants";
    title = "CONST - absolute cost anchors";
    claim =
      "soft fault ~160us of which ~40us locking; null RPC ~27us; \
       lookup+replicate ~88us";
    grid = [ () ];
    run = (fun _ () -> run ());
    shape =
      Record
        {
          columns =
            [
              us "soft_fault_us" (fun r -> r.soft_fault_us);
              us "lockless_fault_us" (fun r -> r.lockless_fault_us);
              us "lock_overhead_us" (fun r -> r.lock_overhead_us);
              us "null_rpc_us" (fun r -> r.null_rpc_us);
              us "replicate_fault_us" (fun r -> r.replicate_fault_us);
              us "replicate_extra_us" (fun r -> r.replicate_extra_us);
            ];
          head = [];
          lines =
            (fun r ->
              Printf.
                [
                  sprintf "soft page fault     : %7.1f us" r.soft_fault_us;
                  sprintf "  lock overhead     : %7.1f us" r.lock_overhead_us;
                  sprintf "null RPC            : %7.1f us" r.null_rpc_us;
                  sprintf
                    "lookup + replicate  : %7.1f us (extra over a local fault)"
                    r.replicate_extra_us;
                ]);
        };
    claims =
      (let near what paper get =
         holds
           (Printf.sprintf "%s ~%.0fus, within 10%%" what paper)
           (only (fun r ->
                let v = get r in
                ( Printf.sprintf "%.1fus (%+.1f%%)" v
                    (100.0 *. (v -. paper) /. paper),
                  Float.abs (v -. paper) <= 0.1 *. paper )))
       in
       [
         near "a simple soft page fault" 160.0 (fun r -> r.soft_fault_us);
         near "its locking" 40.0 (fun r -> r.lock_overhead_us);
         near "a null RPC" 27.0 (fun r -> r.null_rpc_us);
         near "a cluster-wide lookup + replicate" 88.0 (fun r ->
             r.replicate_extra_us);
       ]);
    cli = None;
  }

(* -- the studies: ablations, fault studies and tool demonstrations ------- *)

(* A study is a table with one row per config, or free-form lines per
   config under a head. Neither is exported, so their columns have no
   keys. *)
let table section ~title ~claim ?(claims = []) grid run columns =
  {
    section;
    title;
    claim;
    grid;
    run = (fun _ c -> run c);
    shape = Rows { columns };
    claims;
    cli = None;
  }

let record section ~title ~claim ?(claims = []) ?(head = []) ?cli grid run
    lines =
  {
    section;
    title;
    claim;
    grid;
    run = (fun _ c -> run c);
    shape = Record { columns = []; head; lines };
    claims;
    cli;
  }

let hector = Hector.Config.hector
let machines = [ ("hector", hector); ("numachine", Hector.Config.numachine) ]
let machine_col w = Col.text "" "machine" w (fun ((m, _), _) _ -> m)

(* The result of [algo]'s row on the machine named [m]. *)
let on m algo cells =
  snd (List.find (fun (((m', _), a), _) -> m' = m && a = algo) cells)

(* An uncontended lock/unlock pair, and the mean response time of [p]
   processors that hold the lock [hold_us]. *)
let unc_us cfg algo = (Uncontended.run ~cfg algo).pair_us

let contended_us cfg ~p ~hold_us ~window_us algo =
  (Lock_stress.run ~cfg
     ~config:{ Lock_stress.default_config with p; hold_us; window_us }
     algo)
    .summary
    .mean_us

let retries () =
  let line (r : Destruction.result) =
    Printf.sprintf
      "%-12s destroys=%4d retries=%4d revalidations=%4d lost=%3d \
       mean=%8.1fus total=%9.0fus"
      (Hkernel.Procs.strategy_name r.strategy)
      r.destroys r.retries r.revalidations r.lost_races
      r.destroy_summary.mean_us r.total_us
  in
  let opt, pes = Hkernel.Procs.(Optimistic, Pessimistic) in
  let strategy s cells : Destruction.result =
    snd (List.find (fun ((c : Destruction.config), _) -> c.strategy = s) cells)
  in
  let revalidations s ok cells =
    let r = strategy s cells in
    (Printf.sprintf "%d revalidations" r.revalidations, ok r.revalidations)
  in
  let d = Destruction.default_config in
  record "retries"
    ~title:"RETRY - program destruction, optimistic vs pessimistic (2.3/2.5)"
    ~claim:
      "retries are common for destruction regardless of strategy; the \
       optimistic protocol avoids re-establishing state in the common case"
    [ d; { d with strategy = pes } ]
    (fun config -> Destruction.run ~config ())
    (fun r -> [ line r ])
    ~cli:
      (cli "destroy"
         ~doc:"Program-destruction storm across clusters (Section 2.5)." d
         (fun d ->
           [
             cluster_size d.cluster_size (fun c cluster_size ->
                 { c with Destruction.cluster_size });
             switch [ "pessimistic" ]
               ~doc:"Use the pessimistic deadlock-management strategy."
               (fun (c : Destruction.config) -> { c with strategy = pes });
             knob Arg.int [ "children" ] ~docv:"N"
               ~doc:"Processes per program." d.children (fun c children ->
                 { c with Destruction.children });
           ]))
    ~claims:
      [
        holds "the optimistic strategy never revalidates"
          (revalidations opt (fun n -> n = 0));
        holds "the pessimistic strategy revalidates per step, over 20 times"
          (revalidations pes (fun n -> n > 20));
        holds "retries are common under both strategies (Section 2.5)"
          (fun cells ->
            let o = strategy opt cells and p = strategy pes cells in
            ( Printf.sprintf "%d / %d retries" o.retries p.retries,
              o.retries > 0 && p.retries > 0 ));
      ]

let ablation_granularity () =
  let open Hash_stress in
  let mean g cells = (List.assoc g cells).summary.mean_us in
  table "ablation-granularity"
    ~title:"ABL1 - hybrid vs coarse vs fine locking of the hash table"
    ~claim:
      "hybrid matches fine-grained concurrency for independent requests at a \
       fraction of the lock words; coarse serialises"
    Hkernel.Khash.[ Hybrid; Coarse; Fine ]
    (fun g -> run g)
    Col.
      [
        text "" "mode" 8 (fun g _ -> Hkernel.Khash.granularity_name g);
        float "" "mean(us)" 10 1 (fun _ r -> r.summary.mean_us);
        float "" "p99(us)" 10 1 (fun _ r -> r.summary.p99_us);
        int "" "atomics" 10 (fun _ r -> r.atomics);
        int "" "lock words" 12 (fun _ r -> r.lock_words);
      ]
    ~claims:
      Hkernel.Khash.
        [
          holds "hybrid within 2x of fine-grained locking"
            (pair ("hybrid", mean Hybrid) ("fine", mean Fine) (fun h f ->
                 h < f *. 2.0));
          holds "coarse locking clearly worse than hybrid, over 1.3x"
            (pair ("coarse", mean Coarse) ("hybrid", mean Hybrid) (fun c h ->
                 c > h *. 1.3));
        ]

let ablation_combining () =
  let line (r : Replication_storm.result) =
    Printf.sprintf
      "%-14s mean=%8.1fus p99=%8.1fus master-rpcs/storm=%5.1f \
       replications/storm=%5.1f"
      r.summary.label r.summary.mean_us r.summary.p99_us
      r.master_rpcs_per_storm r.replications_per_storm
  in
  record "ablation-combining"
    ~title:"ABL2 - combining tree for descriptor replication (Section 2.2)"
    ~claim:
      "the combining tree bounds demand on the master to one request per \
       cluster under bursty simultaneous misses"
    [ () ] (fun () -> Replication_storm.run_both ())
    (fun (comb, direct) -> [ line comb; line direct ])

let ablation_cas () =
  let cas = Hector.Config.with_cas hector in
  table "ablation-cas" ~title:"ABL3 - compare&swap release (Section 5.2)"
    ~claim:
      "with CAS the contended differential of the fetch&store repair shrinks"
    [
      (("hector(swap)", hector), Lock.Mcs_h2);
      (("hector(+cas)", cas), Lock.Mcs_h2);
      (("hector(+cas)", cas), Lock.Mcs_cas);
    ]
    (fun ((_, cfg), algo) ->
      ( unc_us cfg algo,
        contended_us cfg ~p:16 ~hold_us:0.0 ~window_us:30_000.0 algo ))
    Col.
      [
        machine_col 14;
        text "" "algo" 12 (fun (_, a) _ -> Lock.algo_name a);
        float "" "uncontended(us)" 14 2 (fun _ (unc, _) -> unc);
        float "" "contended p16(us)" 16 1 (fun _ (_, con) -> con);
      ]
    ~claims:
      [
        holds
          "the CAS release beats the fetch&store repair under contention, \
           with and without CAS"
          (fun cells ->
            match List.map (fun (_, (_, con)) -> con) cells with
            | [ swap_h2; cas_h2; cas_release ] ->
              ( Printf.sprintf "%.1fus vs H2-MCS %.1fus (+cas), %.1fus (swap)"
                  cas_release cas_h2 swap_h2,
                cas_release < cas_h2 && cas_release < swap_h2 )
            | rows -> (Printf.sprintf "%d rows" (List.length rows), false));
      ]

let ablation_clh () =
  table "ablation-clh"
    ~title:"ABL4 - CLH vs MCS queue locks across machines (Section 5.2)"
    ~claim:
      "CLH spins on the predecessor's node: fine with coherent caches, remote \
       traffic on HECTOR — why Hurricane picked MCS"
    (let* m = machines in
     let* algo = [ Lock.Mcs_h1; Lock.Clh ] in
     [ (m, algo) ])
    (fun ((_, cfg), algo) ->
      contended_us cfg ~p:12 ~hold_us:5.0 ~window_us:10_000.0 algo)
    Col.
      [
        machine_col 12;
        text "" "algo" 8 (fun (_, a) _ -> Lock.algo_name a);
        float "" "contended(us)" 14 1 (fun _ us -> us);
      ]
    ~claims:
      (let clh m = ("CLH on " ^ m, on m Lock.Clh)
       and mcs m = ("H1-MCS", on m Lock.Mcs_h1) in
       [
         holds "CLH hurts on non-coherent HECTOR: over 1.5x H1-MCS"
           (pair (clh "hector") (mcs "hector") (fun clh mcs ->
                clh > mcs *. 1.5));
         holds "CLH competitive with coherent caches: under 1.25x H1-MCS"
           (pair (clh "numachine") (mcs "numachine") (fun clh mcs ->
                clh < mcs *. 1.25));
       ])

let ablation_cached_locks () =
  table "ablation-cached-locks"
    ~title:"ABL5 - uncontended lock cost with cache-based primitives"
    ~claim:
      "on the coherent machine, lock pairs run in the cache: tens of lock \
       operations per miss (Section 5.3)"
    (let* m = machines in
     let* algo = [ spin35; Lock.Mcs_h2 ] in
     [ (m, algo) ])
    (fun ((_, cfg), algo) -> unc_us cfg algo)
    Col.
      [
        machine_col 12;
        text "" "algo" 12 (fun (_, a) _ -> Lock.algo_name a);
        float "" "pair(us)" 10 3 (fun _ us -> us);
        float "" "pair(cycles)" 12 0 (fun ((_, cfg), _) us ->
            us *. float_of_int cfg.Hector.Config.mhz);
      ]
    ~claims:
      [
        holds "the cached H2-MCS pair is an order of magnitude cheaper: under \
               1/8 of HECTOR's"
          (pair
             ("numachine", on "numachine" Lock.Mcs_h2)
             ("hector", on "hector" Lock.Mcs_h2)
             (fun numa hector -> numa < hector /. 8.0));
      ]

let ablation_spin_then_block () =
  let config =
    { Lock_stress.default_config with p = 12; hold_us = 50.0;
      window_us = 20_000.0 }
  in
  record "ablation-spin-then-block"
    ~title:"ABL6 - spin-then-block under long holds (Section 5.3)"
    ~claim:
      "with long critical sections, blocked waiters generate no traffic; the \
       hand-off premium is small"
    [ () ] (fun () ->
      List.map
        (fun algo -> (algo, (Lock_stress.run ~config algo).summary))
        [ Lock.Mcs_h1; spin35; Lock.Spin_then_block { spin_us = 10.0 } ])
    (List.map (fun (algo, s) ->
         Format.asprintf "%-14s %a" (Lock.algo_name algo) Measure.pp s))

let ablation_lockfree () =
  let open Counter_stress in
  table "ablation-lockfree"
    ~title:"ABL7 - lock-free single-word updates (Section 5.3)"
    ~claim:
      "a CAS retry loop beats lock/update/unlock for leaf data on the CAS \
       machine, with exact results"
    [ Lock_free; Locked spin35; Locked Lock.Mcs_cas ]
    (fun mode -> run mode)
    Col.
      [
        text "" "mode" 22 (fun mode _ -> mode_name mode);
        float "" "per-op(us)" 10 2 (fun _ r -> r.per_op_us);
        int "" "atomics" 10 (fun _ r -> r.atomics);
        custom "" "exact" 8
          (fun b -> Json.Bool b)
          (Printf.sprintf "%8b")
          (fun _ r -> r.final_value = r.expected_value);
        int "" "cas-fail" 10 (fun _ r -> r.cas_failures);
      ]

let ablation_layout () =
  let line (r : Messaging_mix.result) =
    Printf.sprintf
      "%-14s sends=%4d send-retries=%4d destroys=%3d destroy-retries=%4d \
       send-mean=%7.1fus destroy-mean=%8.1fus"
      (Hkernel.Procs.layout_name r.layout)
      r.sends r.send_retries r.destroys r.destroy_retries
      r.send_summary.mean_us r.destroy_summary.mean_us
  in
  record "ablation-layout"
    ~title:"ABL8 - combined vs separate family tree (Section 2.5)"
    ~claim:
      "tree links inside the process descriptors make destruction and message \
       passing contend on the same reserve bits; a separate tree removes the \
       interference"
    [ () ] (fun () -> Messaging_mix.run_both ())
    (fun (combined, separate) -> [ line combined; line separate ])

let ablation_lock_family () =
  let cfg = Hector.Config.numachine in
  table "ablation-lock-family"
    ~title:"ABL9 - the lock family on the modern machine (Section 5.2)"
    ~claim:
      "spin: cheapest, unfair; ticket: fair, 2 words, one hot word; Anderson: \
       fair, P words/lock; CLH/MCS: fair, per-processor nodes; \
       spin-then-block: fair, no waiting traffic"
    [
      spin35; Lock.Ticket; Lock.Anderson; Lock.Clh; Lock.Mcs_cas;
      Lock.Spin_then_block { spin_us = 10.0 };
    ]
    (fun algo ->
      ( unc_us cfg algo,
        contended_us cfg ~p:12 ~hold_us:5.0 ~window_us:10_000.0 algo ))
    Col.
      [
        text "" "algo" 14 (fun a _ -> Lock.algo_name a);
        float "" "uncontended(us)" 14 3 (fun _ (unc, _) -> unc);
        float "" "contended p12(us)" 16 1 (fun _ (_, con) -> con);
        int "" "words/lock(P=16)" 14 (fun a _ ->
            Lock.space_words ~n_procs:16 a);
      ]
    ~claims:
      [
        holds "all six algorithms run" (fun cells ->
            let n = List.length cells in
            (Printf.sprintf "%d rows" n, n = 6));
        every
          "every algorithm is sane: its uncontended pair takes time, and 12 \
           contending processors take longer"
          ~show:(fun (a, (unc, con)) ->
            Printf.sprintf "%s: %.3f / %.1fus" (Lock.algo_name a) unc con)
          (fun (_, (unc, con)) -> unc > 0.0 && con > unc);
      ]

let trylock () =
  let open Trylock_starvation in
  record "trylock"
    ~title:"TRY - TryLock under a saturated distributed lock (Section 3.2)"
    ~claim:
      "retry-based TryLock starves (the lock is never observed free); the \
       soft-mask + deferred-work scheme completes every request"
    [ () ] (fun () -> run ())
    (fun r ->
      [
        Printf.sprintf "trylock-v2: %d/%d attempts succeeded (%.1f%%)"
          r.try_successes r.try_attempts (100.0 *. r.try_success_rate);
        Format.asprintf "deferred-work: %d/%d completed; latency %a"
          r.deferred_completed r.deferred_posted Measure.pp r.deferred_latency;
      ])
    ~claims:
      [
        holds "TryLock success under saturation is marginal: under 15%"
          (only (fun r ->
               ( Printf.sprintf "%.1f%%" (100.0 *. r.try_success_rate),
                 r.try_success_rate < 0.15 )));
        holds "every deferred request completes"
          (only (fun r ->
               ( Printf.sprintf "%d of %d" r.deferred_completed
                   r.deferred_posted,
                 r.deferred_posted = r.deferred_completed )));
      ]

let classes () =
  let open Four_classes in
  record "classes"
    ~title:"CLASSES - the four access-behaviour classes at once (Section 1)"
    ~claim:
      "clustering isolates the independent classes; replication absorbs read \
       sharing; only write sharing pays cross-cluster costs"
    [ () ] (fun () -> run ())
    (fun r ->
      List.map
        (Format.asprintf "  %a" Measure.pp)
        [ r.non_concurrent; r.independent; r.read_shared; r.write_shared ]
      @ [
          Printf.sprintf
            "  cross-cluster: %d replications, %d invalidations, %d retries"
            r.replications r.invalidations r.retries;
        ])

let cow () =
  let line (r : Cow_storm.result) =
    Printf.sprintf
      "%-12s broke=%4d found-gone=%3d retries=%4d mean=%8.1fus p99=%8.1fus"
      (Hkernel.Procs.strategy_name r.strategy)
      r.broke r.found_gone r.retries r.summary.mean_us r.summary.p99_us
  in
  record "cow"
    ~title:"COW - simultaneous copy-on-write faults (Sections 2.3/2.5)"
    ~claim:
      "retries are required independent of the strategy; the pessimistic one \
       additionally finds the shared page gone and must handle it"
    [ () ] (fun () -> Cow_storm.run_both ())
    (fun (opt, pes) -> [ line opt; line pes ])

let fs () =
  let open File_read in
  table "fs" ~title:"FS - the file server, same techniques (Section 5.1)"
    ~claim:
      "per-cluster block caches + combining fetches give the file system the \
       same concurrency; read-ahead turns sequential misses into hits"
    (let* sharing = [ Private_files; Shared_file ] in
     let* read_ahead = [ 0; default_config.read_ahead ] in
     [ { default_config with sharing; read_ahead } ])
    (fun config -> run ~config ())
    Col.
      [
        text "" "workload" 16 (fun _ r -> r.summary.label);
        float "" "mean(us)" 10 1 (fun _ r -> r.summary.mean_us);
        float "" "p99(us)" 10 1 (fun _ r -> r.summary.p99_us);
        pct "" "hit rate" 10 0 (fun _ r -> r.hit_rate);
        int "" "fetch RPCs" 12 (fun _ r -> r.fetch_rpcs);
      ]

(* One cell per mechanism: a fault-free run, then the config's stall plan
   at twice, once and half its period, the same scheduled doses for every
   mechanism; each run's throughput is the fraction it retains of the
   fault-free run's. [storm] runs each run without RPC losses under the
   lockdep checker (a lost reply's resend re-executes a service, which the
   checker reports); the study does not. *)
let fault_matrix () =
  let open Fault_storm in
  let runs ~checked (mech, (c : config)) =
    let run (config : config) =
      let verify =
        if checked && config.drop_rate <= 0.0 then
          Some (Verify.create ~n_procs:(Hector.Config.n_procs hector) ())
        else None
      in
      ( config.stall_every_us,
        Fault_storm.run ~cfg:hector ~config ?verify mech,
        Option.fold ~none:0 ~some:Verify.violation_count verify )
    in
    run { c with stall_every_us = 0.0; drop_rate = 0.0; delay_rate = 0.0 }
    :: List.map
         (fun f -> run { c with stall_every_us = f *. c.stall_every_us })
         (* With no stall period, the config's plan is the one dose. *)
         (if c.stall_every_us > 0.0 then [ 2.0; 1.0; 0.5 ] else [ 1.0 ])
  in
  let line (base : result) (period_us, (r : result), _) =
    Printf.sprintf "%-14s %10.0f %6d %9d %10.0f%% %11.1f %6d %6d %6d %7d %7.1f"
      (mechanism_name r.mechanism)
      period_us r.stalls_injected r.ops
      (if base.ops = 0 then 0.0
       else 100.0 *. (float_of_int r.ops /. float_of_int base.ops))
      r.recovery.mean_us r.lock_timeouts r.reserve_timeouts r.rpc_gave_ups
      r.deferred r.recovery.p99_us
  in
  let ops period runs =
    let _, r, _ = List.find (fun (p, _, _) -> p = period) runs in
    float_of_int r.ops
  in
  (* The fraction of its fault-free ops [mech] keeps at 1 ms stalls. *)
  let kept mech ok cells =
    let runs = snd (List.find (fun ((m, _), _) -> m = mech) cells) in
    let f = ops 1000.0 runs /. ops 0.0 runs in
    (Printf.sprintf "%s keeps %.0f%%" (mechanism_name mech) (100.0 *. f), ok f)
  in
  let mechs =
    [
      ("no-timeout", No_timeout); ("none", No_timeout); ("timeout", Timeout);
      ("bounded-retry", Bounded_retry); ("bounded", Bounded_retry);
    ]
  in
  let violations = List.fold_left (fun n (_, _, v) -> n + v) 0 in
  record "fault-matrix"
    ~title:"FAULTS - injected holder stalls vs recovery mechanisms"
    ~claim:
      "a stalled holder freezes everything behind an unbounded spin or retry; \
       timeouts re-search around it and a bounded RPC budget degrades to \
       pessimistic fallbacks instead of looping"
    ~head:
      [
        Printf.sprintf "%-14s %10s %6s %9s %11s %11s %6s %6s %6s %7s %7s"
          "mechanism" "stall/us" "doses" "ops" "retained" "recov(us)" "ltmo"
          "rtmo" "gaveup" "defer" "p99(us)";
      ]
    (List.map
       (fun m -> (m, default_config))
       [ No_timeout; Timeout; Bounded_retry ])
    (runs ~checked:false)
    (fun runs ->
      let _, base, _ = List.hd runs in
      List.map (line base) runs)
    ~cli:
      (cli "storm"
         ~doc:
           "Fault-injection storm: holder stalls, RPC loss/delay, and the \
            timeout/bounded-retry recovery mechanisms. Runs fault-free, then \
            at twice, once and half the stall period; a run without RPC \
            losses runs under the lockdep checker. Exits 1 on a violation."
         ~observed:(Term.const (fun _ -> runs ~checked:true))
         ~finish:(lockdep violations) (Timeout, default_config)
         (fun (m, c) ->
           knob (Arg.enum mechs) [ "m"; "mechanism" ] ~docv:"MECH"
             ~doc:("Recovery mechanism: " ^ Arg.doc_alts_enum mechs ^ ".")
             m (fun (_, c) m -> (m, c))
           :: List.map second
                [
                  knob Arg.float [ "stall-every" ] ~docv:"US"
                    ~doc:
                      "Inject a holder stall every US microseconds (0 = none)."
                    c.stall_every_us (fun c stall_every_us ->
                      { c with stall_every_us });
                  knob Arg.float [ "stall" ] ~docv:"US"
                    ~doc:"Length of an injected stall." c.stall_us
                    (fun c stall_us -> { c with stall_us });
                  knob Arg.float [ "drop-rate" ] ~docv:"R"
                    ~doc:"P(message loss) per RPC call." c.drop_rate
                    (fun c drop_rate -> { c with drop_rate });
                  knob Arg.float [ "delay-rate" ] ~docv:"R"
                    ~doc:"P(delay) per RPC message." c.delay_rate
                    (fun c delay_rate -> { c with delay_rate });
                  workers c.p (fun c p -> { c with p });
                  seed c.seed (fun c seed -> { c with seed });
                ]))
    ~claims:
      [
        holds "at 1 ms stalls no-timeout keeps under 25% of its fault-free ops"
          (kept No_timeout (fun f -> f < 0.25));
        holds "at 1 ms stalls timeout keeps over 70% of its fault-free ops"
          (kept Timeout (fun f -> f > 0.70));
        holds
          "at 1 ms stalls bounded-retry keeps over 70% of its fault-free ops"
          (kept Bounded_retry (fun f -> f > 0.70));
      ]

let verify () : (unit, Verify_probes.result list) t =
  let open Verify_probes in
  let failing = List.filter (fun r -> not r.ok) in
  record "verify" ~title:"VERIFY - lockdep checker vs planted violations"
    ~claim:
      "each probe plants one class of locking error; the checker must catch \
       every one (the watchdog probes by aborting an otherwise-endless run) \
       and stay silent on the clean storm"
    [ () ] run_all
    (fun rows ->
      Printf.sprintf "%-16s %-18s %6s %6s %8s %6s" "probe" "expected" "total"
        "hits" "aborted" "ok"
      :: List.map
           (fun r ->
             Printf.sprintf "%-16s %-18s %6d %6d %8s %6s" (probe_name r.probe)
               (expected_name r) r.violations r.hits
               (if r.aborted then "yes" else "no")
               (if r.ok then "ok" else "FAIL"))
           rows
      @ List.filter_map
          (fun r ->
            if r.first = "" then None
            else
              Some (Printf.sprintf "  %-16s %s" (probe_name r.probe) r.first))
          rows)
    ~cli:
      (cli "verify"
         ~doc:
           "Run the lockdep checker against the planted-violation probes \
            (inverted lock order, leaked reserve bit, interrupt-context spin, \
            stalled holder, true deadlock, plus a clean storm that must stay \
            silent). Exits 1 if any probe misbehaves."
         ~finish:
           (Term.const (fun rows ->
                match failing rows with
                | [] -> None
                | r :: _ -> Some (probe_name r.probe ^ " misbehaved (FAIL)")))
         ()
         (fun () -> []))
    ~claims:
      [
        holds
          "every probe behaves as planted, the aborted-waiter and dead-owner \
           probes among them"
          (only (fun rows ->
               let present name =
                 List.exists (fun r -> probe_name r.probe = name) rows
               in
               match failing rows with
               | r :: _ -> (probe_name r.probe ^ " misbehaved", false)
               | [] ->
                 ( Printf.sprintf "%d probes ok" (List.length rows),
                   present "aborted-waiter" && present "dead-owner" )));
      ]

(* Station = cluster: the storm runs on a bare machine, so the natural
   cluster attribution is the HECTOR station each processor sits on. The
   storm's default plan is the fault matrix's middle dose, giving the
   profile real contention to attribute. The study keeps no event trace;
   [trace] runs its cell with a ring of [--trace-events] and writes it. *)
let obs () : (Fault_storm.config, Obs.t * Fault_storm.result) t =
  let us c = Hector.Config.us_of_cycles hector c in
  let line name cluster (c : Obs.cells) =
    Printf.sprintf "%-16s %-8s %9d %9d %12.1f %10.2f %10.1f %12.1f %9d %5d/%-5d"
      name cluster c.acqs c.contended (us c.wait_cycles)
      (if c.acqs + c.contended = 0 then 0.0
       else us c.wait_cycles /. float_of_int (max c.acqs c.contended))
      (us c.max_wait_cycles) (us c.hold_cycles) c.handoffs c.handoffs_local
      c.handoffs_remote
  in
  let write_trace out (obs, _) =
    let doc = Obs.trace_json obs ~us_per_cycle:(us 1) in
    Out_channel.with_open_bin out (fun oc ->
        output_string oc (Json.to_string ~compact:true doc);
        output_char oc '\n');
    Format.printf "wrote %s: %d trace events (%d recorded, %d dropped)@." out
      (List.length (Obs.trace obs))
      (Obs.trace_recorded obs) (Obs.trace_dropped obs);
    None
  in
  (* The per-cluster rows of [row] add up to its total row. *)
  let sums (row : Obs.row) =
    let sum f = List.fold_left (fun n (_, c) -> n + f c) 0 row.by_cluster in
    List.for_all
      (fun (f : Obs.cells -> int) -> sum f = f row.total)
      [ (fun c -> c.acqs); (fun c -> c.wait_cycles); (fun c -> c.hold_cycles) ]
  in
  let observe trace config =
    let obs =
      Obs.create ~trace
        ~cluster_of:(Hector.Config.station_of_proc hector)
        ~n_clusters:hector.Hector.Config.stations
        ~n_procs:(Hector.Config.n_procs hector)
        ()
    in
    (obs, Fault_storm.run ~cfg:hector ~config ~obs Fault_storm.Timeout)
  in
  let d = Fault_storm.default_config in
  record "obs" ~title:"OBS - where did the cycles go (dosed fault storm)"
    ~claim:
      "the argument of Figures 5/7 is made by attributing waiting time to \
       specific locks; here every wait/hold cycle is charged to its lock \
       class and the waiting processor's cluster"
    [ d ] (observe 0)
    (fun (obs, (s : Fault_storm.result)) ->
      Printf.sprintf "%-16s %-8s %9s %9s %12s %10s %10s %12s %9s %11s" "class"
        "cluster" "acqs" "cont" "wait(us)" "avg(us)" "maxw(us)" "hold(us)"
        "handoff" "local/rem"
      :: List.concat_map
           (fun (row : Obs.row) ->
             line row.row_class "total" row.total
             :: List.map
                  (fun (cl, cells) -> line "" (Printf.sprintf "  c%d" cl) cells)
                  row.by_cluster)
           (Obs.profile_rows obs)
      @ [
          Printf.sprintf
            "storm: ops=%d deferred=%d rpc=%d/%d stalls=%d (mechanism %s)"
            s.ops s.deferred s.rpc_ok s.rpc_calls s.stalls_injected
            (Fault_storm.mechanism_name s.mechanism);
        ])
    ~cli:
      (cli "trace"
         ~doc:
           "Run a fault storm with the contention observer installed and \
            export the event trace as Chrome trace-event JSON, plus the \
            per-lock-class contention profile. Tracing is host-side only: the \
            storm's simulated timing is identical with and without it."
         ~observed:
           Term.(
             const (fun n _ -> observe n)
             $ Arg.(
                 value & opt int 65_536
                 & info [ "trace-events" ] ~docv:"N"
                     ~doc:"Ring capacity: keep the last N events."))
         ~finish:
           Term.(
             const write_trace
             $ Arg.(
                 value & opt string "trace.json"
                 & info [ "o"; "out" ] ~docv:"FILE"
                     ~doc:
                       "Output file (Chrome trace-event JSON; load in Perfetto \
                        or chrome://tracing)."))
         d
         (fun c ->
           [
             knob Arg.float [ "stall-every-us" ] ~docv:"US"
               ~doc:"Inject a holder stall each period; 0 disables."
               c.stall_every_us (fun c stall_every_us ->
                 { c with Fault_storm.stall_every_us });
             workers c.p (fun c p -> { c with Fault_storm.p });
             knob Arg.float [ "w"; "window-us" ] ~docv:"US"
               ~doc:"Storm window, simulated us." c.window_us
               (fun c window_us -> { c with Fault_storm.window_us });
             seed c.seed (fun c seed -> { c with Fault_storm.seed });
           ]))
    ~claims:
      [
        holds
          "each class's per-cluster rows sum to its total row: acquisitions, \
           wait and hold cycles"
          (only (fun (obs, _) ->
               each (Obs.profile_rows obs)
                 ~show:(fun row -> row.Obs.row_class ^ " does not sum")
                 sums));
      ]

(* -- the extension experiments ------------------------------------------- *)

(* Flat MCS against the three NUMA composites, sweeping how finely 16
   processors are clustered and how long the lock is held. The composites
   must show a lower cross-cluster hand-off fraction whenever there is more
   than one cluster; at hold > 0 the locality should also buy back latency
   (the protected data stops migrating every hand-off). *)
let numa_locks () : (Lock.algo * Numa_stress.config, Numa_stress.result) t =
  let open Numa_stress in
  let cli =
    cli "numa"
      ~doc:
        "Cross-cluster lock stress: hand-off locality (local vs remote) and \
         worst-case waits for one lock algorithm (experiment NUMA-LOCKS). \
         Compare cohort/hmcs/cna against h2."
      (Lock.Mcs_h2, default_config)
      (fun (a, c) ->
        lock a (fun (_, c) a -> (a, c))
        :: List.map second
             [
               clusters c.n_clusters (fun c n_clusters ->
                   { c with n_clusters });
               hold c.hold_us (fun c hold_us -> { c with hold_us });
               window c.window_us (fun c window_us -> { c with window_us });
             ])
  in
  let columns =
    Col.
      [
        text "algo" "lock" 15 algo_name;
        int "clusters" "clusters" 8 (fun (_, c) _ -> c.n_clusters);
        float "hold_us" "hold(us)" 9 0 (fun (_, c) _ -> c.hold_us);
        float "mean_us" "mean(us)" 10 2 (fun _ r -> r.summary.mean_us);
        float "p99_us" "p99(us)" 9 1 (fun _ r -> r.summary.p99_us);
        int "acquisitions" "" 0 (fun _ r -> r.acquisitions);
        int "local_handoffs" "local" 9 (fun _ r -> r.local_handoffs);
        int "remote_handoffs" "remote" 9 (fun _ r -> r.remote_handoffs);
        pct "remote_frac" "rem%" 8 1 (fun _ r -> remote_frac r);
        float "max_wait_us" "maxw(us)" 10 1 (fun _ r -> r.max_wait_us);
      ]
  in
  {
    section = "numa_locks";
    title = "NUMA-LOCKS - cross-cluster contention (cohort/HMCS/CNA vs MCS)";
    claim =
      "16 processors hammer one lock, partitioned into clusters; NUMA-aware \
       locks hand off within a cluster when they can, so the fraction of \
       hand-offs crossing a cluster boundary - and with it the data's \
       migration traffic - drops against flat MCS";
    grid =
      (let* algo = Experiments.numa_algos in
       let* n_clusters = [ 1; 2; 4 ] in
       let* hold_us = [ 0.0; 10.0 ] in
       [ (algo, { default_config with n_clusters; hold_us }) ]);
    run = (fun _ (algo, config) -> run ~config algo);
    shape = Rows { columns };
    cli = Some cli;
    claims =
      (let flat = Lock.Mcs_h2 in
       let name ((a, c), _) =
         Printf.sprintf "%s C=%d hold %.0f" (Lock.algo_name a) c.n_clusters
           c.hold_us
       in
       (* The flat lock's row at [c]'s clusters and hold. *)
       let flat_at cells c = List.assoc (flat, c) cells in
       let words (a, c) =
         Lock.space_words ~n_clusters:c.n_clusters ~n_procs:c.p a
       in
       (* The algorithm's footprint at C = 1, 2, 4. *)
       let footprint a cells =
         List.filter_map
           (fun ((a', c), _) ->
             if a' = a && c.hold_us = 0.0 then Some (words (a, c)) else None)
           cells
       in
       let rec rising = function
         | a :: (b :: _ as rest) -> a < b && rising rest
         | _ -> true
       in
       [
         holds
           "at C >= 2 every composite crosses clusters on a smaller fraction \
            of hand-offs than flat H2-MCS, at both holds"
           (fun cells ->
             each
               (List.filter
                  (fun ((a, c), _) -> a <> flat && c.n_clusters >= 2)
                  cells)
               ~show:(fun ((a, c), r) ->
                 Printf.sprintf "%s: %.3f vs flat %.3f" (name ((a, c), r))
                   (remote_frac r)
                   (remote_frac (flat_at cells c)))
               (fun ((_, c), r) ->
                 remote_frac r < remote_frac (flat_at cells c)));
         holds
           "CNA takes 3 + 3P words at every C; a cohort's footprint grows \
            with C"
           (fun cells ->
             let cna = footprint Lock.cna cells
             and cohort = footprint Lock.c_mcs_mcs cells in
             let show ws = String.concat "/" (List.map string_of_int ws) in
             ( Printf.sprintf "CNA %s, cohort %s words at C = 1/2/4" (show cna)
                 (show cohort),
               cna <> []
               && List.for_all (( = ) (3 + (3 * default_config.p))) cna
               && List.length cohort > 1 && rising cohort ));
       ]);
  }

(* The single-lock hybrid against the sharded table at several shard counts,
   with the seqlock read path off and on, sweeping concurrency and read mix:
   throughput scales with the shard count once the single lock saturates,
   and at read-heavy mixes the optimistic path serves lookups for a pair of
   loads instead of a lock round-trip. *)
let hash_scaling () : (Hash_scaling.config, Hash_scaling.result) t =
  let open Hkernel in
  let open Hash_scaling in
  let granularities =
    List.map
      (fun g -> (Khash.granularity_name g, g))
      Khash.[ Hybrid; Coarse; Fine; Sharded ]
  in
  let point p read_ratio granularity shards optimistic =
    { default_config with p; read_ratio; granularity; shards; optimistic }
  in
  let cli =
    cli "hash"
      ~doc:
        "Read/update mix over one hash table: sharded granularity and the \
         seqlock optimistic read path against the single-lock hybrid \
         (experiment HASH-SCALING)."
      default_config
      (fun d ->
        [
          lock d.lock_algo (fun c lock_algo -> { c with lock_algo });
          knob (Arg.enum granularities) [ "g"; "granularity" ] ~docv:"G"
            ~doc:("Table granularity: " ^ Arg.doc_alts_enum granularities ^ ".")
            d.granularity (fun c granularity -> { c with granularity });
          procs ~doc:"Contending processors." d.p (fun c p -> { c with p });
          knob Arg.int [ "shards" ] ~docv:"S"
            ~doc:"Shard count (sharded granularity)." d.shards
            (fun (c : config) shards -> { c with shards });
          read_ratio d.read_ratio (fun c read_ratio -> { c with read_ratio });
          switch [ "locked" ]
            ~doc:
              "Force lookups through the locked path (disable the seqlock \
               optimistic reads)."
            (fun (c : config) -> { c with optimistic = false });
          knob Arg.float [ "churn" ] ~docv:"F"
            ~doc:
              "Fraction of non-read operations that delete and re-insert \
               their key (chain mutations)."
            d.churn_fraction (fun c churn_fraction ->
              { c with churn_fraction });
          seed d.seed (fun c seed -> { c with seed });
        ])
  in
  let columns =
    Col.
      [
        text "granularity" "mode" 8 (fun c _ ->
            Khash.granularity_name c.granularity);
        int "shards" "shards" 6 (fun _ r -> r.shards);
        bool ~no:"no" "optimistic" "opt" 4 (fun _ r -> r.optimistic);
        int "p" "p" 5 (fun c _ -> c.p);
        pct "read_ratio" "read" 5 0 (fun c _ -> c.read_ratio);
        float "read_mean_us" "read(us)" 10 2 (fun _ r -> r.read_summary.mean_us);
        float "read_p99_us" "p99(us)" 9 1 (fun _ r -> r.read_summary.p99_us);
        float "update_mean_us" "upd(us)" 10 2 (fun _ r ->
            r.update_summary.mean_us);
        float "throughput_ops_ms" "thr/ms" 9 1 (fun _ r -> r.throughput_ops_ms);
        int "optimistic_hits" "hits" 6 (fun _ r -> r.optimistic_hits);
        int "optimistic_fallbacks" "fb" 5 (fun _ r -> r.optimistic_fallbacks);
        int "atomics" "" 0 (fun _ r -> r.atomics);
      ]
  in
  {
    section = "hash_scaling";
    title = "HASH-SCALING - sharded table + seqlock optimistic reads";
    claim =
      "the hybrid table's single coarse lock is the ceiling within a \
       cluster; splitting the bins over per-shard locks homed on distinct \
       PMMs restores scaling, and a per-shard sequence word lets read-only \
       lookups skip the lock entirely (a pair of loads instead of an \
       acquire/release round-trip)";
    grid =
      (let* p = [ 4; 8; 16 ] in
       let* rr = [ 0.5; 0.9 ] in
       point p rr Khash.Hybrid 1 false
       :: (let* s = [ 2; 4; 8 ] in
           List.map (point p rr Khash.Sharded s) [ false; true ]));
    run = (fun _ config -> run ~config ());
    shape = Rows { columns };
    cli = Some cli;
    claims =
      (let label (c, r) =
         Printf.sprintf "s=%d opt=%b p=%d read %.1f" r.shards r.optimistic c.p
           c.read_ratio
       in
       let busy (c, _) = c.p >= 8 && c.granularity = Khash.Sharded in
       (* The result at [c]'s p and read ratio that [same] selects. *)
       let peer cells same (c : config) =
         snd
           (List.find
              (fun ((pc : config), pr) ->
                pc.p = c.p && pc.read_ratio = c.read_ratio && same pc pr)
              cells)
       in
       let hybrid cells = peer cells (fun c _ -> c.granularity = Khash.Hybrid) in
       let locked cells (c, r) =
         peer cells
           (fun pc pr ->
             pc.granularity = Khash.Sharded && (not pr.optimistic)
             && pr.shards = r.shards)
           c
       in
       let read_mean r = r.read_summary.mean_us in
       [
         holds "at p >= 8 every sharded table out-runs the single-lock hybrid"
           (fun cells ->
             each (List.filter busy cells)
               ~show:(fun (c, r) ->
                 Printf.sprintf "%s: %.1f vs hybrid %.1f ops/ms" (label (c, r))
                   r.throughput_ops_ms (hybrid cells c).throughput_ops_ms)
               (fun (c, r) ->
                 r.throughput_ops_ms > (hybrid cells c).throughput_ops_ms));
         holds
           "at p >= 8 and 90% reads, optimistic reads undercut locked reads \
            on the same shards"
           (fun cells ->
             each
               (List.filter
                  (fun (c, r) ->
                    busy (c, r) && r.optimistic && c.read_ratio = 0.9)
                  cells)
               ~show:(fun row ->
                 Printf.sprintf "%s: %.2f vs locked %.2fus" (label row)
                   (read_mean (snd row))
                   (read_mean (locked cells row)))
               (fun row -> read_mean (snd row) < read_mean (locked cells row)));
         every ~where:(fun (_, r) -> r.optimistic)
           "every optimistic row takes the optimistic read path (hits > 0)"
           ~show:label
           (fun (_, r) -> r.optimistic_hits > 0);
       ]);
  }

(* Flat MCS and the three NUMA composites under the same planted
   cross-cluster holder stall. *)
let abort_storm () : (Lock.algo * Abort_storm.config, Abort_storm.result) t =
  let open Abort_storm in
  let cli =
    cli "abort"
      ~doc:
        "Timed acquisition under a planted cross-cluster holder stall: every \
         waiter attempts through the timed face and must return within a \
         bounded overshoot of its deadline (experiment ABORT-STORM). Only \
         abortable algorithms are accepted."
      (Lock.Mcs_h2, default_config)
      (fun (a, c) ->
        lock a (fun (_, c) a -> (a, c))
        :: List.map second
             [
               clusters c.n_clusters (fun c n_clusters ->
                   { c with n_clusters });
               knob Arg.float [ "timeout" ] ~docv:"US"
                 ~doc:"Per-attempt deadline in us." c.timeout_us
                 (fun c timeout_us -> { c with timeout_us });
               knob Arg.float [ "stall" ] ~docv:"US"
                 ~doc:"How long the planted holder goes dark per stall."
                 c.stall_us (fun c stall_us -> { c with stall_us });
               window c.window_us (fun c window_us -> { c with window_us });
               seed c.seed (fun c seed -> { c with seed });
             ])
  in
  let columns =
    Col.
      [
        text "algo" "lock" 15 algo_name;
        int "attempts" "attempts" 8 (fun _ r -> r.attempts);
        int "acquisitions" "acq" 6 (fun _ r -> r.acquisitions);
        int "aborts" "aborts" 7 (fun _ r -> r.aborts);
        int "fast_fails" "" 0 (fun _ r -> r.fast_fails);
        int "stalls" "stall" 6 (fun _ r -> r.stalls);
        float "overshoot_mean_us" "over(us)" 9 2 (fun _ r -> r.overshoot.mean_us);
        float "overshoot_p99_us" "" 0 0 (fun _ r -> r.overshoot.p99_us);
        float "overshoot_max_us" "maxov(us)" 9 1 (fun _ r -> r.max_overshoot_us);
        float "bound_ratio" "ratio" 6 2 (fun _ r -> r.bound_ratio);
        float "recovery_mean_us" "rec(us)" 9 1 (fun _ r -> r.recovery.mean_us);
        float "recovery_max_us" "" 0 0 (fun _ r -> r.recovery.max_us);
        int "obs_aborts" "" 0 (fun _ r -> r.obs_aborts);
        (* The JSON has repairs before remote aborts, the table after. *)
        int "obs_repairs" "" 0 (fun _ r -> r.obs_repairs);
        int "remote_aborts" "rem-ab" 7 (fun _ r -> r.remote_aborts);
        int "" "repair" 7 (fun _ r -> r.obs_repairs);
        bool "final_free" "free" 5 (fun _ r -> r.final_free);
      ]
  in
  {
    section = "abort_storm";
    title = "ABORT-STORM - timed abandonment under a stalled holder";
    claim =
      "one processor takes the lock and goes dark for ~10x any waiter's \
       deadline; every other processor attempts through the timed face. \
       Each expired waiter must return within a bounded multiple of its \
       deadline (the ratio column) instead of riding out the stall, remote \
       aborts show waiters expiring at every level of the NUMA composite, \
       and the lock must recover promptly - abandoned queue nodes repaired \
       at the next hand-offs - once the holder releases";
    grid = List.map (fun a -> (a, default_config)) Experiments.numa_algos;
    run = (fun _ (algo, config) -> run ~config algo);
    shape = Rows { columns };
    cli = Some cli;
    claims =
      (let show f ((a, _), r) = Lock.algo_name a ^ ": " ^ f r in
       [
         every "every expired waiter returns within 8x its deadline"
           ~show:(show (fun r -> Printf.sprintf "ratio %.2f" r.bound_ratio))
           (fun (_, r) -> r.bound_ratio < 8.0);
         every
           "every algorithm abandons expired waits (aborts > 0), some at a \
            remote level (remote aborts > 0)"
           ~show:
             (show (fun r ->
                  Printf.sprintf "%d aborts, %d remote" r.aborts
                    r.remote_aborts))
           (fun (_, r) -> r.aborts > 0 && r.remote_aborts > 0);
         every "the lock ends free once the storm drains"
           ~show:(show (fun _ -> "not free"))
           (fun (_, r) -> r.final_free);
       ]);
  }

(* Representative flat queue locks (MCS, CLH, and the non-abortable Ticket,
   whose waiters recover in-spin) plus the NUMA composites, each under the
   same planted mid-critical-section kill schedule. *)
let crash_storm () : (Lock.algo * Crash_storm.config, Crash_storm.result) t =
  let open Crash_storm in
  let cli =
    cli "crash"
      ~doc:
        "Fail-stop crashes planted mid-critical-section: victims die holding \
         the lock, survivors acquire through the recoverable face and \
         force-release each orphaned hold (experiment CRASH-STORM). Only \
         recoverable algorithms are accepted."
      ~finish:(lockdep (fun r -> r.lockdep_violations))
      (Lock.Mcs_h2, default_config)
      (fun (a, c) ->
        lock a (fun (_, c) a -> (a, c))
        :: List.map second
             [
               clusters c.n_clusters (fun c n_clusters ->
                   { c with n_clusters });
               knob Arg.int [ "kills" ] ~docv:"N"
                 ~doc:
                   "Victim processors, each fail-stopped once \
                    mid-critical-section."
                 c.n_kills (fun c n_kills -> { c with n_kills });
               knob Arg.float [ "check-period" ] ~docv:"US"
                 ~doc:
                   "Recoverable-acquire slice (the dead-holder detector \
                    period)."
                 c.check_period_us (fun c check_period_us ->
                   { c with check_period_us });
               hold c.hold_us (fun c hold_us -> { c with hold_us });
               window c.window_us (fun c window_us -> { c with window_us });
               seed c.seed (fun c seed -> { c with seed });
             ])
  in
  let columns =
    Col.
      [
        text "algo" "lock" 15 algo_name;
        int "kills" "kills" 6 (fun _ r -> r.kills);
        int "acquisitions" "acq" 6 (fun _ r -> r.acquisitions);
        int "obs_crashes" "crashes" 7 (fun _ r -> r.obs_crashes);
        int "obs_recoveries" "recov" 6 (fun _ r -> r.obs_recoveries);
        int "lockdep_recoveries" "lkdep" 6 (fun _ r -> r.lockdep_recoveries);
        int "lockdep_violations" "viol" 5 (fun _ r -> r.lockdep_violations);
        float "recovery_mean_us" "rec(us)" 9 1 (fun _ r -> r.recovery.mean_us);
        float "recovery_p99_us" "p99(us)" 9 1 (fun _ r -> r.recovery.p99_us);
        float "recovery_max_us" "max(us)" 9 1 (fun _ r -> r.recovery.max_us);
        int "recovery_n" "" 0 (fun _ r -> r.recovery.n);
        int "clusters_hit" "clus" 5 (fun _ r -> clusters_hit r);
        float "worst_cluster_p99_us" "worstp99" 10 1 (fun _ r ->
            worst_cluster_p99_us r);
        bool "final_free" "free" 5 (fun _ r -> r.final_free);
      ]
  in
  {
    section = "crash_storm";
    title = "CRASH-STORM - fail-stop kills mid-critical-section";
    claim =
      "victim processors fail-stop while holding the lock (the fiber parks, \
       releasing nothing); every survivor acquires through the recoverable \
       face, whose dead-holder detector force-releases each orphaned hold. \
       Conservation demands a recovery per kill, an installed lockdep \
       checker must see every forced release as a legal transfer (zero \
       violations), and the storm must end with the lock free";
    grid =
      List.map
        (fun a -> (a, default_config))
        (Lock.Mcs_h2 :: Lock.Clh :: Lock.Ticket :: Lock.all_numa_algos);
    run = (fun _ (algo, config) -> run ~config algo);
    shape = Rows { columns };
    cli = Some cli;
    claims =
      (let name ((a, _), _) = Lock.algo_name a in
       let show f row = name row ^ ": " ^ f (snd row) in
       [
         every
           "every planted kill is recovered: kills > 0, one recovery sample \
            per kill, an observed recovery per kill"
           ~show:
             (show (fun r ->
                  Printf.sprintf "%d kills, %d samples, %d observed" r.kills
                    r.recovery.n r.obs_recoveries))
           (fun (_, r) ->
             r.kills > 0 && r.recovery.n = r.kills
             && r.obs_recoveries >= r.kills);
         clean "the checker legalises every forced release: zero violations"
           ~show:name (fun (_, r) -> r.lockdep_violations);
         every "the lock ends free once the survivors drain"
           ~show:(show (fun _ -> "not free"))
           (fun (_, r) -> r.final_free);
       ]);
  }

(* The read-path style is one field set by four flags: --style picks the
   shape and --lock its writer (an RW lock keeps the default's policy and
   layout), then --reader-preference and --centralised adjust an RW lock. *)
let rw_style (d : Rw_scaling.config) =
  let open Rw_scaling in
  let shape, writer =
    match d.style with
    | Mutex w -> (`Mutex, w)
    | Rw_lock { writer; _ } -> (`Rw, writer)
    | Seqlock_style { writer } -> (`Seqlock, writer)
    | Replicated { writer } -> (`Replicated, writer)
  in
  let set shape writer (c : config) =
    let style =
      match (shape, c.style) with
      | `Mutex, _ -> Mutex writer
      | `Rw, Rw_lock l -> Rw_lock { l with writer }
      | `Rw, _ ->
        Rw_lock { writer; policy = Rwlock.Writer_blocking; centralised = false }
      | `Seqlock, _ -> Seqlock_style { writer }
      | `Replicated, _ -> Replicated { writer }
    in
    { c with style }
  in
  let shapes =
    [
      ("mutex", `Mutex); ("rw", `Rw); ("seqlock", `Seqlock);
      ("replicated", `Replicated);
    ]
  in
  [
    Term.(
      const set
      $ Arg.(
          value
          & opt (enum shapes) shape
          & info [ "style" ] ~docv:"STYLE"
              ~doc:
                "Read-path style: mutex (exclusive lock), rw (distributed RW \
                 lock over the writer algorithm), seqlock, or replicated.")
      $ lock_arg writer);
    switch [ "reader-preference" ]
      ~doc:
        "Use the reader-preference sweep order (close and drain one cluster \
         gate at a time) instead of writer-blocking."
      (fun (c : config) ->
        match c.style with
        | Rw_lock l ->
          { c with style = Rw_lock { l with policy = Rwlock.Reader_preference } }
        | _ -> c);
    switch [ "centralised" ]
      ~doc:
        "Home every reader indicator on one cluster (the layout baseline) \
         instead of distributing them."
      (fun (c : config) ->
        match c.style with
        | Rw_lock l -> { c with style = Rw_lock { l with centralised = true } }
        | _ -> c);
  ]

(* One candidate per strategy family: the exclusive-lock baseline every
   writer-serialising algorithm is stuck at, the RW lock over the MCS
   cohort (plus its centralised-indicator baseline, the remote-traffic
   comparator), the seqlock optimistic path, and HURRICANE-shaped
   per-cluster replication. *)
let rw_scaling () : (Rw_scaling.config, Rw_scaling.result) t =
  let open Rw_scaling in
  let rw writer centralised =
    Rw_lock { writer; policy = Rwlock.Writer_blocking; centralised }
  in
  let cli =
    cli "rw"
      ~doc:
        "Read-mostly lookups: distributed reader-writer lock vs seqlock vs \
         per-cluster replication vs one exclusive lock (experiment \
         RW-SCALING): reader-parallelism peaks, remote read-path traffic and \
         lockdep violations."
      ~finish:(lockdep (fun r -> r.lockdep_violations))
      default_config
      (fun d ->
        rw_style d
        @ [
            procs ~doc:"Contending processors." d.p (fun c p -> { c with p });
            clusters ~doc:"Clusters the processors are spread across."
              d.n_clusters (fun c n_clusters -> { c with n_clusters });
            read_ratio d.read_ratio (fun c read_ratio -> { c with read_ratio });
            knob Arg.int [ "ops" ] ~docv:"N" ~doc:"Operations per processor."
              d.ops (fun c ops -> { c with ops });
            seed d.seed (fun c seed -> { c with seed });
          ])
  in
  let columns =
    Col.
      [
        text "style" "style" 22 (fun c _ -> style_name c.style);
        pct "read_ratio" "read" 5 1 (fun c _ -> c.read_ratio);
        int "clusters" "clus" 4 (fun c _ -> c.n_clusters);
        int "p" "p" 3 (fun c _ -> c.p);
        float "read_mean_us" "read(us)" 9 2 (fun _ r -> r.read_summary.mean_us);
        float "read_p99_us" "" 0 0 (fun _ r -> r.read_summary.p99_us);
        float "read_p999_us" "p99.9" 8 1 (fun _ r -> r.read_summary.p999_us);
        float "write_mean_us" "write(us)" 9 2 (fun _ r ->
            r.write_summary.mean_us);
        float "throughput_ops_ms" "" 0 0 (fun _ r -> r.throughput_ops_ms);
        float "read_throughput_ops_ms" "rdthr/ms" 9 1 (fun _ r ->
            r.read_throughput_ops_ms);
        int "reads" "" 0 (fun _ r -> r.reads_done);
        int "writes" "" 0 (fun _ r -> r.writes_done);
        int "peak_readers" "peak-rd" 7 (fun _ r -> r.peak_readers);
        int "read_remote" "rd-rem" 5 (fun _ r -> r.read_remote);
        int "seq_aborts" "sq-ab" 7 (fun _ r -> r.seq_aborts);
        int "lockdep_violations" "viol" 6 (fun _ r -> r.lockdep_violations);
      ]
  in
  {
    section = "rw_scaling";
    title =
      "RW-SCALING - read-mostly lookups: RW lock vs seqlock vs replication";
    claim =
      "every writer-serialising lock queues readers like writers (peak \
       concurrent readers 1 by construction); per-cluster reader indicators \
       let readers CAS their own cluster's word and run in parallel, the \
       seqlock serves reads for a pair of loads, and replication reads a \
       local copy but pays an update broadcast per write. rd-rem counts \
       read-path indicator ops that crossed a cluster boundary - zero for \
       the distributed layout, the centralised baseline's defining cost";
    grid =
      (let* style =
         [
           Mutex Lock.c_mcs_mcs; rw Lock.c_mcs_mcs false; rw Lock.Mcs_h2 true;
           Seqlock_style { writer = Lock.Mcs_h2 };
           Replicated { writer = Lock.Mcs_h2 };
         ]
       in
       let* read_ratio = [ 0.95; 0.99; 0.999 ] in
       let* n_clusters = [ 1; 2; 4 ] in
       [ { default_config with style; read_ratio; n_clusters } ]);
    run = (fun _ config -> run ~config ());
    shape = Rows { columns };
    cli = Some cli;
    claims =
      (let name (c, _) =
         Printf.sprintf "%s read %.3f clusters %d" (style_name c.style)
           c.read_ratio c.n_clusters
       in
       let show f row = name row ^ ": " ^ f (snd row) in
       [
         clean "no run trips the lockdep checker" ~show:name (fun (_, r) ->
             r.lockdep_violations);
         every
           "a mutex pins peak concurrent readers at 1; every other style runs \
            readers in parallel (peak > 1)"
           ~show:(show (fun r -> Printf.sprintf "peak %d" r.peak_readers))
           (fun (c, r) ->
             match c.style with
             | Mutex _ -> r.peak_readers = 1
             | Rw_lock _ | Seqlock_style _ | Replicated _ ->
               r.peak_readers > 1);
         every
           ~where:(fun (c, _) ->
             match c.style with
             | Rw_lock { centralised = false; _ } -> true
             | _ -> false)
           "the distributed indicator layout keeps the read path \
            cluster-local: zero remote read-path ops"
           ~show:(show (fun r -> Printf.sprintf "%d remote" r.read_remote))
           (fun (_, r) -> r.read_remote = 0);
       ]);
  }

let slo () : (Slo_stream.config, Slo_stream.result) t =
  let open Slo_stream in
  let cli =
    cli "slo"
      ~doc:
        "Open-loop sustained-request stream over the sharded million-element \
         table: exponential arrivals at a fixed offered rate, FIFO queueing \
         behind a random server, arrival-to-completion p50/p99/p99.9 \
         (experiment SLO)."
      ~finish:(lockdep (fun r -> r.lockdep_violations))
      default_config
      (fun d ->
        [
          lock d.lock_algo (fun c lock_algo -> { c with lock_algo });
          procs ~doc:"Server processors." d.p (fun c p -> { c with p });
          knob Arg.int [ "elements" ] ~docv:"N"
            ~doc:"Keys pre-inserted into the table (requests target these)."
            d.elements (fun c elements -> { c with elements });
          knob Arg.float [ "rate" ] ~docv:"R"
            ~doc:"Offered load: requests per virtual millisecond, total."
            d.rate_per_ms (fun c rate_per_ms -> { c with rate_per_ms });
          knob Arg.int [ "requests" ] ~docv:"N" ~doc:"Arrivals generated."
            d.requests (fun c requests -> { c with requests });
          knob Arg.int [ "shards" ] ~docv:"S" ~doc:"Table shard count." d.shards
            (fun c shards -> { c with shards });
          read_ratio ~doc:"Fraction of requests that are read-only lookups."
            d.read_ratio (fun c read_ratio -> { c with read_ratio });
          knob Arg.float [ "work" ] ~docv:"US"
            ~doc:"Update work under the element, us." d.element_work_us
            (fun c element_work_us -> { c with element_work_us });
          seed d.seed (fun c seed -> { c with seed });
        ])
  in
  let columns =
    Col.
      [
        float "offered_per_ms" "rate/ms" 9 1 (fun c _ -> c.rate_per_ms);
        int "p" "p" 3 (fun c _ -> c.p);
        int "elements" "elements" 9 (fun c _ -> c.elements);
        int "shards" "" 0 (fun c _ -> c.shards);
        int "completed" "done" 7 (fun _ r -> r.completed);
        float "achieved_per_ms" "ach/ms" 9 1 (fun _ r -> r.achieved_per_ms);
        float "" "rd-p50" 8 2 (fun _ r -> r.read_summary.p50_us);
        float "" "rd-p99" 8 2 (fun _ r -> r.read_summary.p99_us);
        float "" "rd-p99.9" 9 2 (fun _ r -> r.read_summary.p999_us);
        json "read" (fun _ r -> summary_json r.read_summary);
        float "" "up-p99" 9 2 (fun _ r -> r.update_summary.p99_us);
        json "update" (fun _ r -> summary_json r.update_summary);
        int "peak_backlog" "backlog" 8 (fun _ r -> r.peak_backlog);
        int "optimistic_hits" "opt-h" 6 (fun _ r -> r.optimistic_hits);
        int "optimistic_fallbacks" "" 0 (fun _ r -> r.optimistic_fallbacks);
        int "lockdep_violations" "viol" 5 (fun _ r -> r.lockdep_violations);
      ]
  in
  {
    section = "slo";
    title = "SLO - open-loop request stream over the million-element table";
    claim =
      "requests arrive on their own clock and queue behind a random server, \
       so latency includes queueing delay: as the offered rate approaches \
       the table's capacity the p99/p99.9 tails leave the service time long \
       before the mean moves - the closed-loop workloads cannot show this. \
       every point runs under the lockdep checker (viol must be 0)";
    grid =
      List.map
        (fun rate_per_ms -> { default_config with rate_per_ms })
        Experiments.slo_rates;
    run = (fun _ config -> run ~config ());
    shape = Rows { columns };
    cli = Some cli;
    claims =
      (let name (c, _) = Printf.sprintf "%.0f/ms" c.rate_per_ms in
       [
         every
           "every offered rate completes requests and exports its p99.9 read \
            tail (both > 0)"
           ~show:(fun (c, r) ->
             Printf.sprintf "%s: %d done, p99.9 %.2fus" (name (c, r))
               r.completed r.read_summary.p999_us)
           (fun (_, r) -> r.completed > 0 && r.read_summary.p999_us > 0.0);
         clean "no run trips the lockdep checker" ~show:name (fun (_, r) ->
             r.lockdep_violations);
       ]);
  }

(* The cold-phase favourite (test&set), both flat MCS hybrids and all three
   NUMA composites. No row tops both phase columns: test&set collapses at
   the peak, the composites pay for their layers in the trickle. *)
let diurnal () : (Diurnal.config, Diurnal.result) t =
  let open Diurnal in
  let cli =
    cli "diurnal"
      ~doc:
        "The diurnal load cycle: load ramps cold -> hot -> cold over one lock, \
         with per-phase throughput (experiment DIURNAL)."
      ~finish:(lockdep (fun r -> r.lockdep_violations))
      default_config
      (fun d ->
        [
          lock d.algo (fun c algo -> { c with algo });
          knob Arg.int [ "p-hot" ] ~docv:"P"
            ~doc:"Processors at the daytime peak." d.p_hot (fun c p_hot ->
              { c with p_hot });
          knob Arg.int [ "p-cold" ] ~docv:"P"
            ~doc:"Processors in the overnight trickle." d.p_cold
            (fun c p_cold -> { c with p_cold });
          clusters ~doc:"Number of clusters." d.n_clusters (fun c n_clusters ->
              { c with n_clusters });
          knob Arg.float [ "phase" ] ~docv:"US"
            ~doc:"Length of each of the three plateaus in us." d.phase_us
            (fun c phase_us -> { c with phase_us });
          hold d.hold_us (fun c hold_us -> { c with hold_us });
          seed d.seed (fun c seed -> { c with seed });
        ])
  in
  let columns =
    Col.
      [
        text "lock" "lock" 16 (fun _ r -> r.algo_name);
        int "cold1_ops" "cold1-ops" 9 (fun _ r -> r.cold1_ops);
        int "hot_ops" "hot-ops" 9 (fun _ r -> r.hot_ops);
        int "cold2_ops" "cold2-ops" 9 (fun _ r -> r.cold2_ops);
        float "cold_throughput_ops_ms" "cold/ms" 9 1 (fun _ r ->
            r.cold_throughput_ops_ms);
        float "hot_throughput_ops_ms" "hot/ms" 9 1 (fun _ r ->
            r.hot_throughput_ops_ms);
        bool "final_free" "free" 5 (fun _ r -> r.final_free);
        int "lockdep_violations" "viol" 5 (fun _ r -> r.lockdep_violations);
      ]
  in
  {
    section = "diurnal";
    title = "DIURNAL - static lock shapes raced over the diurnal load cycle";
    claim =
      "load ramps cold -> hot -> cold in three equal plateaus: a same-cluster \
       trickle where a test&set lock is unbeatable, then every processor \
       across every cluster where hand-offs go mostly remote and a NUMA \
       composite wins, then the trickle again. No shape tops both phase \
       columns. Every row runs under the lockdep checker (viol must be 0)";
    grid =
      List.map
        (fun algo -> { default_config with algo })
        [
          spin35; Lock.Mcs_h1; Lock.Mcs_h2;
          Lock.cna; Lock.c_mcs_mcs; Lock.hmcs;
        ];
    run = (fun _ config -> run ~config ());
    shape = Rows { columns };
    cli = Some cli;
    claims =
      [
        every
          "every shape ends the cycle free, with zero lockdep violations"
          ~show:(fun (_, r) ->
            Printf.sprintf "%s: %d violations, free %b" r.algo_name
              r.lockdep_violations r.final_free)
          (fun (_, r) -> r.lockdep_violations = 0 && r.final_free);
        every "every shape completes work in all three phases"
          ~show:(fun (_, r) ->
            Printf.sprintf "%s: %d / %d / %d ops" r.algo_name r.cold1_ops
              r.hot_ops r.cold2_ops)
          (fun (_, r) -> r.cold1_ops > 0 && r.hot_ops > 0 && r.cold2_ops > 0);
        holds "no shape tops both phase columns" (fun cells ->
            let rows = List.map snd cells in
            let best f =
              List.fold_left
                (fun a r -> if f r > f a then r else a)
                (List.hd rows) rows
            in
            let cold = best (fun r -> r.cold_throughput_ops_ms)
            and hot = best (fun r -> r.hot_throughput_ops_ms) in
            ( Printf.sprintf "cold: %s, hot: %s" cold.algo_name hot.algo_name,
              cold.algo_name <> hot.algo_name ));
      ];
  }

type any = Spec : ('c, 'r) t -> any

let paper () =
  [
    Spec (fig4 ()); Spec (uncontended ());
    Spec (fig5a ()); Spec (fig5b ());
    Spec (starvation ()); Spec (fig7a ()); Spec (fig7b ()); Spec (fig7c ());
    Spec (fig7d ()); Spec (constants ());
  ]

let studies () =
  [
    Spec (retries ()); Spec (ablation_granularity ());
    Spec (ablation_combining ()); Spec (ablation_cas ());
    Spec (ablation_clh ()); Spec (ablation_cached_locks ());
    Spec (ablation_spin_then_block ()); Spec (ablation_lockfree ());
    Spec (ablation_layout ()); Spec (ablation_lock_family ());
    Spec (trylock ()); Spec (classes ()); Spec (cow ()); Spec (fs ());
    Spec (fault_matrix ()); Spec (verify ()); Spec (obs ());
  ]

let extensions () =
  [
    Spec (numa_locks ()); Spec (hash_scaling ()); Spec (abort_storm ());
    Spec (crash_storm ()); Spec (rw_scaling ()); Spec (slo ());
    Spec (diurnal ());
  ]
