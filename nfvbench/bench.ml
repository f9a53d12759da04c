(* The three workloads and the two kinds of run: a timed run with
   recording off for the end-to-end metrics, and a traced run of fixed
   work for the per-layer ones. *)

module Obs = Nfv_obs.Obs
module T = Tracker

(* What one cell contributed. *)
type cell_out = {
  timed : float;  (** seconds inside the library, checks excluded *)
  tried : int;  (** solves, or arrivals *)
  accepted : int;  (** [Ok] solves, or admitted arrivals *)
  cost_sum : float;  (** over the accepted trees *)
  evicted : int;
  repaired : int;
  restored : int;
  events : int;  (** top-level simulator events *)
  passes : int;  (** restoration passes *)
  combinations : int;  (** Appro_Multi subsets explored *)
}

let zero =
  {
    timed = 0.0; tried = 0; accepted = 0; cost_sum = 0.0; evicted = 0;
    repaired = 0; restored = 0; events = 0; passes = 0; combinations = 0;
  }

let add a b =
  {
    timed = a.timed +. b.timed;
    tried = a.tried + b.tried;
    accepted = a.accepted + b.accepted;
    cost_sum = a.cost_sum +. b.cost_sum;
    evicted = a.evicted + b.evicted;
    repaired = a.repaired + b.repaired;
    restored = a.restored + b.restored;
    events = a.events + b.events;
    passes = a.passes + b.passes;
    combinations = a.combinations + b.combinations;
  }

type cell = Solve of Cells.solve | Dyn of T.op * Cells.dyn

type workload = {
  name : string;
  op : string;  (** what one timed op is *)
  make : seed:int -> int -> cell;
  tail_top : float;  (** the highest percentile [op_tail_ms] may take *)
  prefix : int;
      (** cells generated up front, which every timed run completes;
          the deterministic metrics and the traced run cover exactly
          these *)
}

let warmup_solves = 40

(* ---- running one cell ---------------------------------------------------- *)

let run_cell ~clock ~ops f = function
  | Solve c ->
    Array.fold_left
      (fun acc req ->
        let (res, combos), dt = T.solve ~clock f c.Cells.net req in
        T.Buf.add ops dt;
        let accepted, cost =
          match res with T.Solved x -> (1, x) | T.Rejected -> (0, 0.0)
        in
        {
          acc with
          timed = acc.timed +. dt;
          tried = acc.tried + 1;
          accepted = acc.accepted + accepted;
          cost_sum = acc.cost_sum +. cost;
          combinations = acc.combinations + combos;
        })
      zero c.Cells.reqs
  | Dyn (op, c) ->
    let r = T.run_dyn ~clock ~op ~ops f c in
    let s = r.T.stats in
    {
      timed = r.T.timed;
      tried = s.Nfv_multicast.Dynamic.arrivals;
      accepted = s.Nfv_multicast.Dynamic.admitted;
      cost_sum = r.T.cost_sum;
      evicted = s.Nfv_multicast.Dynamic.evicted;
      repaired = s.Nfv_multicast.Dynamic.repaired;
      restored = s.Nfv_multicast.Dynamic.restored;
      events = r.T.events;
      passes = r.T.passes;
      combinations = 0;
    }

(* untimed: the first solves of the warm-up cell, or the whole of it *)
let warm_up f = function
  | Solve c ->
    Array.iteri
      (fun i req ->
        if i < warmup_solves then
          ignore (T.solve ~clock:Sys.time f c.Cells.net req))
      c.Cells.reqs
  | Dyn (op, c) ->
    ignore (T.run_dyn ~clock:Sys.time ~op ~ops:(T.Buf.create ()) f c)

(* ---- the workloads ------------------------------------------------------- *)

let workloads =
  [
    {
      name = "appro_solve";
      op = "one uncapacitated Appro_multi.solve ~k:3 (fig7, |V| = 100)";
      make = (fun ~seed i -> Solve (Cells.solve_cell ~seed i));
      tail_top = 99.0;
      prefix = 20;
    };
    {
      name = "online_churn";
      op = "one Online_CP admission: the interval that ends at an arrival \
            (dynamic_churn, AS1755)";
      make = (fun ~seed i -> Dyn (T.Arrivals, Cells.churn_cell ~seed i));
      tail_top = 99.0;
      prefix = 40;
    };
    {
      name = "restore_pass";
      op = "one restoration pass (restore, stressed GEANT at load 200, \
            knapsack-priced)";
      make = (fun ~seed i -> Dyn (T.Passes, Cells.restore_cell ~seed i));
      (* a run holds about 3 000 passes from about 120 cells; their p99
         rests on the 30-odd heaviest passes, drawn from a handful of
         cells, and spread by a third over seeds *)
      tail_top = 95.0;
      prefix = 40;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ---- set-up ---------------------------------------------------------------- *)

let setup_reps = 11

(* One set-up, from a compacted heap: warm up on a cell of its own, then
   generate the prefix cells. The work is the same whatever the run
   length, and the warm-up cell is the same whatever the seed. Warming up
   first keeps the new cells and the warm-up simulation from being alive
   together. *)
let setup w ~seed f =
  Gc.compact ();
  let t0 = Clock.now () in
  warm_up f (w.make ~seed:Cells.warmup_seed Cells.warmup_index);
  let cells = Array.init w.prefix (fun i -> w.make ~seed i) in
  (Clock.now () -. t0, cells)

(* cell [i]: the set-up's, or past them generated on demand (untimed)
   and dropped once run *)
let cell_at w ~seed cells i =
  if i < Array.length cells then cells.(i) else w.make ~seed i

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

type ran = {
  prefix_sum : cell_out;  (** over the first [w.prefix] cells *)
  all_sum : cell_out;
  ops : float array;  (** op latencies at the reference host speed *)
  raw_ops : float array;  (** the same, as measured *)
  probes : float array;  (** one after each cell and each set-up *)
  setups : float array;
      (** every set-up's time at the reference host speed, the first
          included *)
  raw_setups : float array;
  wall : float;  (** seconds, set-ups excluded; likewise [cpu] *)
  cpu : float;
  peak_mb : float;  (** peak heap by the end of the prefix *)
}

(* Set up, then run cells in order until [seconds] of wall time have
   passed and the prefix is done, probing the host after each cell and
   after each set-up. The host's speed drifts by a fifth and more over
   seconds to minutes, so every duration is scaled to the reference host
   ({!Probe.at_reference}): a cell's ops by the probe taken right after
   the cell, and a set-up, of which there are only a few, by the median
   of its own probe and the probes on either side of it. The raw figures
   are kept beside the scaled ones. One set-up, or several in a row,
   would still mostly measure the moment, so the set-up is repeated at
   even times over the rest of the run once the prefix is done, between
   cells, with the run's clock stopped meanwhile. The peak heap is read
   before the first repeat, so it covers the fixed work of the set-up
   and the prefix, and no repeat's cells. *)
let run_cells w ~seed ~seconds f =
  let ops = T.Buf.create () and raw_ops = T.Buf.create () in
  let probes = T.Buf.create () in
  (* each set-up's time and the index of its probe in [probes] *)
  let raw_setups = ref [] in
  let set_up () =
    let s, cells = setup w ~seed f in
    raw_setups := (s, T.Buf.length probes) :: !raw_setups;
    T.Buf.add probes (Probe.run ());
    cells
  in
  let cells = ref (set_up ()) in
  let prefix = ref zero and all = ref zero in
  let paused = ref 0.0 and paused_cpu = ref 0.0 in
  let set_up_again () =
    let p0 = Clock.now () and c0 = Sys.time () in
    ignore (set_up ());
    paused := !paused +. (Clock.now () -. p0);
    paused_cpu := !paused_cpu +. (Sys.time () -. c0)
  in
  let peak_mb = ref 0.0 in
  let next_setup = ref Float.infinity and gap = ref 0.0 in
  Gc.compact ();
  let t0 = Clock.now () and cpu0 = Sys.time () in
  let elapsed () = Clock.now () -. t0 -. !paused in
  let i = ref 0 in
  while !i < w.prefix || elapsed () < seconds do
    let cell = cell_at w ~seed !cells !i in
    let n0 = T.Buf.length raw_ops in
    let out =
      run_cell ~clock:Clock.now ~ops:raw_ops f cell
    in
    let probe_ms = Probe.run () in
    T.Buf.add probes probe_ms;
    for j = n0 to T.Buf.length raw_ops - 1 do
      T.Buf.add ops (Probe.at_reference ~probe_ms (T.Buf.get raw_ops j))
    done;
    if !i < w.prefix then prefix := add !prefix out;
    all := add !all out;
    incr i;
    if !i = w.prefix then begin
      peak_mb := peak_heap_mb ();
      cells := [||];
      next_setup := elapsed ();
      gap := (seconds -. elapsed ()) /. float_of_int (setup_reps - 1)
    end;
    if List.length !raw_setups < setup_reps && elapsed () >= !next_setup
    then begin
      set_up_again ();
      next_setup := !next_setup +. !gap
    end
  done;
  while List.length !raw_setups < setup_reps do
    set_up_again ()
  done;
  let probes = T.Buf.to_array probes in
  let raw_setups = Array.of_list (List.rev !raw_setups) in
  let near j =
    Quant.median
      (Array.sub probes (max 0 (j - 1))
         (min (Array.length probes) (j + 2) - max 0 (j - 1)))
  in
  {
    prefix_sum = !prefix;
    all_sum = !all;
    ops = T.Buf.to_array ops;
    raw_ops = T.Buf.to_array raw_ops;
    probes;
    setups =
      Array.map
        (fun (s, j) -> Probe.at_reference ~probe_ms:(near j) s)
        raw_setups;
    raw_setups = Array.map fst raw_setups;
    wall = Clock.now () -. t0 -. !paused;
    cpu = Sys.time () -. cpu0 -. !paused_cpu;
    peak_mb = !peak_mb;
  }

(* ---- results --------------------------------------------------------------- *)

type metric = Layers.metric = { name : string; unit_ : string; value : float }

type result = {
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
  attempted : int;
  failures : T.failures;
}

let sum = Array.fold_left ( +. ) 0.0

let accept_ratio p = float_of_int p.accepted /. float_of_int (max 1 p.tried)

(* sessions a fault evicted that ended up served again, by a repair tier
   in place or by a later restoration pass *)
let recovered_frac p =
  if p.evicted = 0 then 1.0
  else float_of_int (p.repaired + p.restored) /. float_of_int p.evicted

(* ops per second of op time: every op, and only ops, in the divisor *)
let ops_per_s ops = float_of_int (Array.length ops) /. sum ops

let mean_cost p = p.cost_sum /. float_of_int (max 1 p.accepted)

(* On the dynamic workloads, what the ops leave out: the other top-level
   intervals (the first of each run included). *)
let others_note all ~ops ~op_time =
  let others = all.events - Array.length ops in
  if others > 0 then
    [
      Printf.sprintf
        "outside the ops: %.3f s of library time over %d other intervals, \
         %.4f ms each"
        (all.timed -. op_time) others
        (1000.0 *. (all.timed -. op_time) /. float_of_int others);
    ]
  else []

(* ---- the timed run ----------------------------------------------------------- *)

let timed w ~seed ~seconds =
  Obs.enabled := false;
  let f = T.failures () in
  let r = run_cells w ~seed ~seconds f in
  let prefix = r.prefix_sum and all = r.all_sum and ops = r.ops in
  let n = Array.length ops in
  let tail_of ops =
    match Quant.tail ~top:w.tail_top ops with
    | Some t -> t
    | None -> failwith (Printf.sprintf "%d ops: too few for a tail" n)
  in
  let tail = tail_of ops and raw_tail = tail_of r.raw_ops in
  let ok = n - min n f.T.count in
  let m name unit_ value = { name; unit_; value } in
  {
    metrics =
      [
        m "setup_s" "s" (Quant.median r.setups);
        m "ops_per_s" "1/s" (ops_per_s ops);
        m "op_p50_ms" "ms" (1000.0 *. Quant.median ops);
        m "op_tail_ms" "ms" (1000.0 *. tail.Quant.value);
        m "peak_heap_mb" "MB" r.peak_mb;
        m "ok_frac" "ratio" (float_of_int ok /. float_of_int (max 1 n));
        m "accept_ratio" "ratio" (accept_ratio prefix);
        m "recovered_frac" "ratio" (recovered_frac prefix);
        m "mean_cost" "cost" (mean_cost prefix);
      ];
    notes =
      [
        Printf.sprintf "op: %s" w.op;
        Printf.sprintf
          "%d ops in %.3f s of library time over %d cells (%.2f s wall, \
           %.2f s CPU, set-ups excluded); deterministic metrics over \
           the first %d cells"
          n all.timed
          (Array.length r.probes - Array.length r.setups)
          r.wall r.cpu w.prefix;
        Printf.sprintf "op_tail_ms is p%g: %d of %d samples beyond it"
          tail.Quant.pct tail.Quant.beyond tail.Quant.samples;
        Printf.sprintf
          "setup_s is the median of %d set-ups of %d cells (%.4f to %.4f s)"
          (Array.length r.setups) w.prefix
          (Array.fold_left Float.min Float.infinity r.setups)
          (Array.fold_left Float.max 0.0 r.setups);
        Printf.sprintf
          "host.probe_ms median %.4f over %d probes (%.4f to %.4f); the \
           timings are scaled to a probe of %g ms"
          (Quant.median r.probes) (Array.length r.probes)
          (Array.fold_left Float.min Float.infinity r.probes)
          (Array.fold_left Float.max 0.0 r.probes)
          Probe.reference_ms;
        Printf.sprintf
          "as measured: setup_s %.4f s, ops_per_s %.4g 1/s, op_p50_ms \
           %.5g ms, op_tail_ms %.5g ms"
          (Quant.median r.raw_setups) (ops_per_s r.raw_ops)
          (1000.0 *. Quant.median r.raw_ops)
          (1000.0 *. raw_tail.Quant.value);
      ]
      @ others_note all ~ops:r.raw_ops ~op_time:(sum r.raw_ops);
    attempted = n;
    failures = f;
  }

(* ---- the traced run ---------------------------------------------------------- *)

(* Fixed work — the [w.prefix] cells — so every counter repeats exactly
   for a seed. Each cell also runs once untraced, alternating which run
   goes first, for the tracing overhead; both time with the Obs clock,
   and only the traced runs record. *)
let traced w ~seed =
  Obs.enabled := false;
  let f = T.failures () in
  let _, cells = setup w ~seed f in
  let traced = ref zero in
  let plain_ops = T.Buf.create () and traced_ops = T.Buf.create () in
  let probes = T.Buf.create () in
  let run_as on ops c =
    Obs.enabled := on;
    Fun.protect ~finally:(fun () -> Obs.enabled := false) (fun () ->
        run_cell ~clock:!Obs.clock ~ops f c)
  in
  Obs.reset_all ();
  Array.iteri
    (fun i c ->
      let runs =
        [
          (fun c -> ignore (run_as false plain_ops c));
          (fun c -> traced := add !traced (run_as true traced_ops c));
        ]
      in
      List.iter (fun run -> run c) (if i mod 2 = 0 then runs else List.rev runs);
      T.Buf.add probes (Probe.run ()))
    cells;
  let traced = !traced in
  let rate ops = ops_per_s (T.Buf.to_array ops) in
  let overhead = 1.0 -. (rate traced_ops /. rate plain_ops) in
  List.iter (T.fail f "ledger %s") (Layers.ledgers ~passes:traced.passes);
  let metrics =
    Layers.collect ~run_seconds:traced.timed ~events:traced.events
      ~combinations:traced.combinations ~overhead
      ~probe_ms:(Quant.median (T.Buf.to_array probes))
  in
  {
    metrics;
    notes =
      [
        Printf.sprintf "op: %s" w.op;
        Printf.sprintf
          "traced run: %d cells, %d ops, each cell also run untraced"
          w.prefix (T.Buf.length traced_ops);
      ];
    attempted = T.Buf.length traced_ops;
    failures = f;
  }
