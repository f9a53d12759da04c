(* Self-tests of the benchmark's own logic: the tail-percentile rule,
   restoration-pass classification, the output checks, fidelity of the
   workload cells to the registered family cells, and same-seed
   determinism of every outcome and counter.
   Run: dune build @nfvbench/selftest *)

module Dyn = Nfv_multicast.Dynamic
module R = Nfv_multicast.Restore
module Pt = Nfv_multicast.Pseudo_tree
module Fault = Sdn.Fault
module Exp = Experiments
module T = Tracker

let failed = ref 0

let check name ok =
  if not ok then incr failed;
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

(* ---- the tail rule --------------------------------------------------------- *)

let tail_rule () =
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  let is n pct value beyond =
    match Quant.tail (ramp n) with
    | Some t ->
      t.Quant.pct = pct && t.Quant.value = value && t.Quant.beyond = beyond
      && t.Quant.samples = n
    | None -> false
  in
  check "tail: 19 samples give no percentile" (Quant.tail (ramp 19) = None);
  check "tail: 20 samples give p50 with 10 beyond" (is 20 50.0 10.0 10);
  check "tail: 40 samples give p75 (p90 has 4 beyond)" (is 40 75.0 30.0 10);
  check "tail: 999 samples fall back to p95" (is 999 95.0 950.0 49);
  check "tail: 1000 samples give p99 with 10 beyond" (is 1000 99.0 990.0 10);
  check "tail: the ladder stops at p99" (is 100_000 99.0 99_000.0 1000);
  check "tail: a lower top starts the ladder there"
    (match Quant.tail ~top:95.0 (ramp 1000) with
     | Some t -> t.Quant.pct = 95.0 && t.Quant.beyond = 50
     | None -> false);
  check "tail: a lower top still needs 10 beyond"
    (match Quant.tail ~top:95.0 (ramp 199) with
     | Some t -> t.Quant.pct = 90.0 && t.Quant.beyond = 19
     | None -> false);
  let shuffled = ramp 1000 in
  Topology.Rng.shuffle (Topology.Rng.create 7) shuffled;
  check "tail: input order does not matter"
    (Quant.tail shuffled = Quant.tail (ramp 1000));
  check "median of an even count is its lower middle"
    (Quant.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.0)

(* ---- pass classification ----------------------------------------------------- *)

let classification tree =
  let feed t stream = List.map (T.Passes.step t) stream in
  let heal_only = T.Passes.create R.default in
  let stream =
    [
      Dyn.Arrived { id = 1; tree = Some tree };
      Dyn.Fault_fired { event = Fault.Link_up 0; victims = [] };
      Dyn.Fault_fired { event = Fault.Link_down 3; victims = [ 1 ] };
      Dyn.Dropped { id = 1 };
      Dyn.Departed { id = 2; released = true };
      Dyn.Fault_fired { event = Fault.Link_up 3; victims = [] };
      Dyn.Restored { id = 1; tree };
      Dyn.Fault_fired { event = Fault.Server_up 0; victims = [] };
    ]
  in
  check "passes (heal only): only a heal with a backlog opens one"
    (feed heal_only stream
    = [ false; false; false; false; false; true; false; false ]);
  let on_depart =
    T.Passes.create
      (R.make ~policy:(R.Knapsack R.Priced) ~trigger:R.Heal_or_depart ())
  in
  let stream =
    [
      Dyn.Departed { id = 4; released = true };
      Dyn.Fault_fired { event = Fault.Link_down 2; victims = [ 5; 6 ] };
      Dyn.Repaired { id = 6; tier = Nfv_multicast.Repair.Patched; tree };
      Dyn.Dropped { id = 5 };
      Dyn.Departed { id = 7; released = true };
      Dyn.Fault_fired { event = Fault.Server_up 1; victims = [] };
      Dyn.Departed { id = 5; released = false };
      Dyn.Departed { id = 8; released = true };
      Dyn.Fault_fired { event = Fault.Link_up 2; victims = [] };
    ]
  in
  check "passes (heal or depart): departures and heals with a backlog open one"
    (feed on_depart stream
    = [ false; false; false; false; true; true; false; false; false ]);
  check "passes: a dropped session's departure retires it"
    (T.Passes.backlog on_depart = 0);
  let arrival = Dyn.Arrived { id = 9; tree = None } in
  let departure = Dyn.Departed { id = 9; released = true } in
  check "ops: an arrival's interval is an admission op"
    (T.closes_op T.Arrivals ~after_pass:false arrival);
  check "ops: not when a restoration pass opened it"
    (not (T.closes_op T.Arrivals ~after_pass:true arrival));
  check "ops: a departure's interval is no admission op"
    (not (T.closes_op T.Arrivals ~after_pass:false departure));
  check "ops: every interval a pass opens is a pass op"
    (T.closes_op T.Passes ~after_pass:true departure
    && not (T.closes_op T.Passes ~after_pass:false arrival))

(* ---- output checks ----------------------------------------------------------- *)

let output_checks (c : Cells.solve) =
  let f = T.failures () in
  let req = c.Cells.reqs.(0) in
  match Nfv_multicast.Appro_multi.solve ~k:3 c.Cells.net req with
  | Error _ -> check "a solve of cell 0 succeeds" false
  | Ok res ->
    let tree = res.Nfv_multicast.Appro_multi.tree in
    T.check_tree f ~ctx:"test" c.Cells.net req.Sdn.Request.id tree;
    check "checks: a solved tree passes" (f.T.count = 0);
    T.check_tree f ~ctx:"test" c.Cells.net (req.Sdn.Request.id + 1) tree;
    check "checks: a tree for another request fails" (f.T.count = 1);
    let broken =
      {
        tree with
        Pt.routes =
          List.map
            (fun (d, r) -> (d, { r with Pt.onward = [ -1 ] }))
            tree.Pt.routes;
      }
    in
    T.check_tree f ~ctx:"test" c.Cells.net req.Sdn.Request.id broken;
    check "checks: a tree with a bogus witness edge fails" (f.T.count = 2);
    classification tree

(* ---- fidelity to the registered families --------------------------------------- *)

let run_plain (w : Bench.workload) cell =
  let f = T.failures () in
  let out =
    Bench.run_cell ~clock:Clock.now ~ops:(T.Buf.create ()) f cell
  in
  check (w.Bench.name ^ ": cell 0 passes every output check") (f.T.count = 0);
  out

let fidelity () =
  let seed = 1 in
  let w name = Option.get (Bench.find name) in
  (* fig7 at |V| = 100, uncapacitated mean cost over the Ok solves *)
  let cell0 w = w.Bench.make ~seed 0 in
  let out = run_plain (w "appro_solve") (cell0 (w "appro_solve")) in
  let fig7 =
    Exp.Fig7.run ~seed:(Cells.family_seed ~seed 0) ~sizes:[ 50; 100 ] ()
  in
  let uncap =
    List.concat_map
      (fun (fig : Exp.Exp_common.figure) ->
        List.concat_map
          (fun (s : Exp.Exp_common.series) ->
            if s.Exp.Exp_common.label = "Appro_Multi (uncap)" then
              List.filter_map
                (fun (x, y) -> if x = 100.0 then Some y else None)
                s.Exp.Exp_common.points
            else [])
          fig.Exp.Exp_common.series)
      fig7
  in
  check "appro_solve: cell 0 is fig7's |V| = 100 point"
    (match uncap with [ y ] -> close y (Bench.mean_cost out) | _ -> false);
  (* the dynamic cells against Dynamic_churn.run_point on the same RNG *)
  let same name (out : Bench.cell_out) point =
    let pick m = List.assoc m point in
    check (name ^ ": cell 0 is the registered family cell")
      (close (pick "accept") (Bench.accept_ratio out)
      && pick "restored" = float_of_int out.Bench.restored)
  in
  let churn = run_plain (w "online_churn") (cell0 (w "online_churn")) in
  same "online_churn" churn
    (Exp.Dynamic_churn.run_point ~make_net:Exp.Exp_common.as1755_network
       ~srlg:false ~load:Cells.load ~rate:Cells.churn_rate
       ~rng:
         (Cells.rng_of ~figure:Exp.Dynamic_churn.sweep_key
            ~index:Cells.churn_index ~seed 0)
       ());
  let restore =
    run_plain (w "restore_pass") (cell0 (w "restore_pass"))
  in
  same "restore_pass" restore
    (Exp.Dynamic_churn.run_point ~restore:Cells.restore_policy
       ~mean_holding:Cells.restore_holding ~heal_div:Cells.restore_heal_div
       ~make_net:Exp.Exp_common.geant_network ~srlg:false
       ~load:Cells.restore_load
       ~rate:Cells.restore_rate
       ~rng:
         (Cells.rng_of ~figure:Exp.Dynamic_churn.sweep_key
            ~index:Cells.restore_index ~seed 0)
       ());
  check "restore_pass: cell 0 runs restoration passes" (restore.Bench.passes > 0)

(* ---- same seed, same outcomes and counters ----------------------------------- *)

let deterministic (m : Bench.metric) =
  m.Bench.unit_ = "count"
  || List.mem m.Bench.name
       [
         "accept_ratio"; "recovered_frac"; "mean_cost"; "ok_frac";
         "sp_engine.hit_ratio"; "restoration.useful_ratio";
         "restoration.restored_frac"; "restoration.solves_per_pass";
       ]

let determinism () =
  List.iter
    (fun (w : Bench.workload) ->
      let w = { w with Bench.prefix = min w.Bench.prefix 4 } in
      let twice run =
        let a = run () and b = run () in
        let keep (r : Bench.result) =
          List.filter deterministic r.Bench.metrics
          |> List.map (fun (m : Bench.metric) -> (m.Bench.name, m.Bench.value))
        in
        (keep a, keep b, a.Bench.failures.T.count + b.Bench.failures.T.count)
      in
      let a, b, bad = twice (fun () -> Bench.timed w ~seed:3 ~seconds:0.001) in
      check (w.Bench.name ^ ": same seed, same outcomes")
        (bad = 0 && List.length a = 4 && a = b);
      let a, b, bad = twice (fun () -> Bench.traced w ~seed:3) in
      check (w.Bench.name ^ ": same seed, same per-layer counters")
        (bad = 0 && List.length a > 20 && a = b))
    Bench.workloads

let () =
  tail_rule ();
  output_checks (Cells.solve_cell ~seed:1 0);
  fidelity ();
  determinism ();
  if !failed > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failed;
    exit 1
  end
