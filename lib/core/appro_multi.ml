type result = {
  tree : Pseudo_tree.t;
  subset : int list;
  aux_cost : float;
  cost : float;
  combinations : int;
}

module Obs = Nfv_obs.Obs

let c_dijkstra_runs = Obs.Counter.make "dijkstra.runs"
let c_dijkstra_relax = Obs.Counter.make "dijkstra.relaxations"
let c_dijkstras = Obs.Counter.make "appro_multi.dijkstras"
let c_relaxations = Obs.Counter.make "appro_multi.relaxations"
let c_solved = Obs.Counter.make "appro_multi.solved"
let c_infeasible = Obs.Counter.make "appro_multi.infeasible"
let c_admitted = Obs.Counter.make "appro_multi.admitted"
let c_rejected = Obs.Counter.make "appro_multi.rejected"
let c_price_hits = Obs.Counter.make "appro_multi.price_hits"

(* span + Dijkstra attribution + outcome count around one solve/admit *)
let observe span ~ok ~err f =
  Obs.Span.run span @@ fun () ->
  let runs0 = Obs.Counter.value c_dijkstra_runs in
  let relax0 = Obs.Counter.value c_dijkstra_relax in
  let result = f () in
  Obs.Counter.add c_dijkstras (Obs.Counter.value c_dijkstra_runs - runs0);
  Obs.Counter.add c_relaxations (Obs.Counter.value c_dijkstra_relax - relax0);
  Obs.Counter.incr (match result with Ok _ -> ok | Error _ -> err);
  result

let default_k = 3

(* Engine sharing across a window is keyed per Sp_window's exactness
   contract: the default base weights are [b_k · c_e] (so the bandwidth's
   float bits go into the family). The capacitated weights are pruned by
   [link_admits _ b_k] (covered by the feasibility bucket); the
   uncapacitated ones prune nothing and read no residual, so they live in
   an epoch-free static engine. Callers overriding [edge_weight] or
   [placement_cost] never reach this path — they keep private engines. *)
let acquire_engine window ~bandwidth ~capacitated =
  Option.map
    (fun w ->
      let bits = Int64.to_string (Int64.bits_of_float bandwidth) in
      if capacitated then
        let family = "appro.cap:" ^ bits
        and bucket = Sp_window.bucket w ~bandwidth in
        fun ~weight -> Sp_window.engine w ~family ~bucket ~weight
      else
        let family = "appro.all:" ^ bits in
        fun ~weight -> Sp_window.static_engine w ~family ~weight)
    window

(* every feasible candidate, folded in subset enumeration order *)
let fold_candidates ?(k = default_k) ?engine ?edge_weight ?placement_cost ~keep
    ~usable_servers net request f init =
  if k < 1 then invalid_arg "Appro_multi: K must be at least 1";
  let aux =
    Aux_graph.build ~keep ?edge_weight ?placement_cost ?engine ~net ~request
      ~candidate_servers:usable_servers ()
  in
  let reachable = Aux_graph.reachable_servers aux in
  let acc = ref init in
  Combinations.iter_subsets_up_to reachable k (fun subset ->
      let sm = Aux_graph.subset_metric aux subset in
      match Aux_graph.steiner_tree sm with
      | None -> ()
      | Some edges ->
        let c = Aux_graph.tree_cost sm edges in
        if c < infinity then acc := f (c, subset, aux, edges) !acc);
  !acc

(* deterministic order: cost, then subset size, then the subset itself
   (equal-cost trees are common — a superset whose extra servers go
   unused costs the same as its subset) *)
let rank (ca, sa, _, _) (cb, sb, _, _) =
  compare (ca, List.length sa, sa) (cb, List.length sb, sb)

let candidates_impl ?k ?engine ?edge_weight ?placement_cost ~keep
    ~usable_servers net request =
  List.sort rank
    (fold_candidates ?k ?engine ?edge_weight ?placement_cost ~keep
       ~usable_servers net request List.cons [])

(* the head of [candidates_impl] without building or sorting the rest:
   subsets are distinct, so the minimum under [rank] is unique *)
let best_candidate ?k ?engine ~keep ~usable_servers net request =
  fold_candidates ?k ?engine ~keep ~usable_servers net request
    (fun c best ->
      match best with
      | Some b when rank b c <= 0 -> best
      | _ -> Some c)
    None

(* The [combinations] field always reports the size of the explored
   search space: the number of non-empty server subsets of size ≤ K drawn
   from the reachable candidate servers, feasible or not. *)
let combinations_explored ?k aux =
  Combinations.count_up_to
    (List.length (Aux_graph.reachable_servers aux))
    (Option.value k ~default:default_k)

let candidates ?k ?edge_weight ?placement_cost ~keep ~usable_servers net
    request =
  candidates_impl ?k ?edge_weight ?placement_cost ~keep ~usable_servers net
    request

let solve_with ?k ?engine ~keep ~usable_servers net request =
  observe "appro_multi.solve" ~ok:c_solved ~err:c_infeasible @@ fun () ->
  if usable_servers = [] then Error "no usable server"
  else
    match best_candidate ?k ?engine ~keep ~usable_servers net request with
    | None -> Error "no feasible pseudo-multicast tree"
    | Some (aux_cost, subset, aux, edges) ->
      let tree = Aux_graph.to_pseudo_tree aux edges in
      let combinations = combinations_explored ?k aux in
      Ok
        {
          tree;
          subset = List.sort compare subset;
          aux_cost;
          cost = Pseudo_tree.cost net tree;
          combinations;
        }

let solve ?k ?window net request =
  let engine =
    acquire_engine window ~bandwidth:request.Sdn.Request.bandwidth
      ~capacitated:false
  in
  solve_with ?k ?engine ~keep:(fun _ -> true)
    ~usable_servers:(Sdn.Network.servers net) net request

let price ?(k = default_k) ?window net request =
  let solved () =
    match solve ~k ?window net request with
    | Ok res -> res.cost
    | Error _ -> infinity
  in
  match window with
  | None -> solved ()
  | Some w -> (
    if Sp_window.net w != net then
      invalid_arg "Appro_multi.price: window over another network";
    match Sp_window.find_price w ~k request with
    | Some c ->
      Obs.Counter.incr c_price_hits;
      c
    | None ->
      let c = solved () in
      Sp_window.store_price w ~k request c;
      c)

let capacitated_filters net request =
  let b = request.Sdn.Request.bandwidth in
  let demand = Sdn.Request.demand_mhz request in
  let keep e = Sdn.Network.link_admits net e b in
  let usable =
    List.filter (fun v -> Sdn.Network.server_admits net v demand) (Sdn.Network.servers net)
  in
  (keep, usable)

let solve_capacitated ?k ?window net request =
  let keep, usable = capacitated_filters net request in
  let engine =
    acquire_engine window ~bandwidth:request.Sdn.Request.bandwidth
      ~capacitated:true
  in
  solve_with ?k ?engine ~keep ~usable_servers:usable net request

let admit ?k ?window net request =
  observe "appro_multi.admit" ~ok:c_admitted ~err:c_rejected @@ fun () ->
  let keep, usable = capacitated_filters net request in
  if usable = [] then Error "no usable server"
  else begin
    let engine =
      acquire_engine window ~bandwidth:request.Sdn.Request.bandwidth
        ~capacitated:true
    in
    let cands = candidates_impl ?k ?engine ~keep ~usable_servers:usable net request in
    let rec try_cands = function
      | [] -> Error "no allocatable pseudo-multicast tree"
      | (aux_cost, subset, aux, edges) :: rest -> (
        let tree = Aux_graph.to_pseudo_tree aux edges in
        match Sdn.Network.allocate net (Pseudo_tree.allocation tree) with
        | Ok () ->
          Ok
            {
              tree;
              subset = List.sort compare subset;
              aux_cost;
              cost = Pseudo_tree.cost net tree;
              combinations = combinations_explored ?k aux;
            }
        | Error _ -> try_cands rest)
    in
    try_cands cands
  end
