(* Workload inputs. Every workload is a replay of one registered family
   cell: cell [i] of benchmark seed [s] draws from exactly the RNG the
   family's own point gets under [--seed (1000 s + i)], through the same
   construction, so its numbers line up with the family's. *)

module Dyn = Nfv_multicast.Dynamic
module R = Nfv_multicast.Restore
module Fault = Sdn.Fault
module Pool = Experiments.Pool
module Exp_common = Experiments.Exp_common
module Dynamic_churn = Experiments.Dynamic_churn

let family_seed ~seed i = (seed * 1000) + i

(* the untimed warm-up cell: cell 999 of seed 0 on every run, so the
   set-up does the same work whatever the seed; measured cells stay
   below index 999, so it is never one of them *)
let warmup_seed = 0
let warmup_index = 999

let rng_of ~figure ~index ~seed i =
  Topology.Rng.create
    (Pool.point_seed ~figure ~index ~seed:(family_seed ~seed i))

(* ---- appro_solve: fig7's |V| = 100 point ------------------------------ *)

type solve = {
  net : Sdn.Network.t;
  reqs : Sdn.Request.t array;
}

(* fig7: sizes [50; 100; 150; 200; 250], so |V| = 100 is point 1 *)
let fig7_index = 1
let fig7_n = 100
let fig7_requests = 120

let solve_cell ~seed i =
  let rng = rng_of ~figure:"fig7" ~index:fig7_index ~seed i in
  let net = Exp_common.network rng ~n:fig7_n in
  let spec = { Workload.Gen.default_spec with dmax_ratio = Some 0.2 } in
  let reqs = Workload.Gen.sequence ~spec rng net ~count:fig7_requests in
  { net; reqs = Array.of_list reqs }

(* ---- dynamic cells ----------------------------------------------------- *)

type dyn = {
  dnet : Sdn.Network.t;
  trace : Dyn.trace;
  timeline : Fault.timeline;
  restore : R.t;
}

(* Dynamic_churn.run_point's draws for an independent-cut (singleton
   group) cell: network, trace, then the timeline. *)
let dyn_cell ~make_net ~load ~rate ~mean_holding ~heal_div ~restore rng =
  let dnet = make_net rng in
  let trace = Dyn.poisson_trace rng dnet ~rate:1.0 ~mean_holding ~count:load in
  let horizon =
    List.fold_left (fun acc (a : Dyn.arrival) -> Float.max acc a.Dyn.at) 1.0
      trace
  in
  let groups = Array.init (Sdn.Network.m dnet) (fun e -> [ e ]) in
  let events = int_of_float (Float.round (rate *. float_of_int load)) in
  let timeline =
    Fault.srlg_timeline ~heal_after:(horizon /. heal_div) ~rng ~horizon ~events
      groups
  in
  { dnet; trace; timeline; restore }

let load = Dynamic_churn.default_requests

(* online_churn: the dynamic_churn grid point AS1755 (net 1) x
   independent (model 0) x load 400 (load 1) x rate 0.1 (rate 1), under
   the default smallest-first heal-only restoration *)
let churn_rate = 0.1

let churn_index = Dynamic_churn.point_index ~ni:1 ~mi:0 ~li:1 ~ri:1

let churn_cell ~seed i =
  dyn_cell ~make_net:Exp_common.as1755_network ~load ~rate:churn_rate
    ~mean_holding:Dynamic_churn.mean_holding ~heal_div:4.0 ~restore:R.default
    (rng_of ~figure:Dynamic_churn.sweep_key ~index:churn_index ~seed i)

(* restore_pass: the restore family's stressed GEANT cell as the family
   builds it under [--requests 200] — independent cuts at rate 0.2, load
   200, mean holding half the horizon (0.5 x 200), outages healing after
   horizon/8, knapsack-priced selection fired on heals and departures.
   The family appends its stressed points after the canonical grid,
   (model, rate)-major. Half the default load: a load-400 cell costs
   about 1.7 s and its passes differ so much from cell to cell that a
   30 s run (17 cells) spread by about 15 % over seeds even on a quiet
   host; a load-200 cell costs about 0.2 s. *)
let restore_load = 200
let restore_rate = 0.2
let restore_index = Array.length (Dynamic_churn.grid restore_load) + 2
let restore_holding = 0.5 *. float_of_int restore_load
let restore_heal_div = 8.0

let restore_policy =
  R.make ~policy:(R.Knapsack R.Priced) ~trigger:R.Heal_or_depart ()

let restore_cell ~seed i =
  dyn_cell ~make_net:Exp_common.geant_network ~load:restore_load
    ~rate:restore_rate
    ~mean_holding:restore_holding ~heal_div:restore_heal_div
    ~restore:restore_policy
    (rng_of ~figure:Dynamic_churn.sweep_key ~index:restore_index ~seed i)
