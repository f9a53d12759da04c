module A = Nfv_multicast.Appro_multi
module O = Nfv_multicast.One_server
module E = Nfv_multicast.Exact
module C = Nfv_multicast.Combinations
module Pt = Nfv_multicast.Pseudo_tree
module N = Sdn.Network
module Rng = Topology.Rng

(* --- combinations --- *)

let test_choose () =
  Alcotest.(check int) "C(5,2)" 10 (C.choose 5 2);
  Alcotest.(check int) "C(5,0)" 1 (C.choose 5 0);
  Alcotest.(check int) "C(5,5)" 1 (C.choose 5 5);
  Alcotest.(check int) "C(5,6)" 0 (C.choose 5 6);
  Alcotest.(check int) "C(25,3)" 2300 (C.choose 25 3);
  Alcotest.(check int) "negative" 0 (C.choose 5 (-1))

let test_subsets () =
  let s = C.subsets_of_size [ 1; 2; 3; 4 ] 2 in
  Alcotest.(check int) "count" 6 (List.length s);
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq compare s));
  List.iter (fun l -> Alcotest.(check int) "size" 2 (List.length l)) s

let test_subsets_up_to () =
  let s = C.subsets_up_to [ 1; 2; 3 ] 2 in
  Alcotest.(check int) "count" 6 (List.length s);
  Alcotest.(check int) "count_up_to formula" 6 (C.count_up_to 3 2);
  Alcotest.(check int) "paper fig4 example" 6 (C.count_up_to 3 2)

let test_iter_subsets () =
  let collected = ref [] in
  C.iter_subsets_up_to [ 1; 2; 3; 4 ] 3 (fun s -> collected := s :: !collected);
  Alcotest.(check int) "matches list version" (C.count_up_to 4 3)
    (List.length !collected);
  let as_sets = List.map (List.sort compare) !collected in
  Alcotest.(check int) "all distinct" (C.count_up_to 4 3)
    (List.length (List.sort_uniq compare as_sets))

(* --- a hand-built instance where multi-server placement wins --- *)

(* Star: source 0 at center of two long arms; servers 5 and 6 sit next to
   the two destination clusters. A single server forces processed traffic
   to cross the center twice. *)
let two_cluster_net () =
  let rng = Rng.create 1 in
  (* 0 -1- 1 -2- 5 ; 0 -3- 3 -4- 6 ; dest 2 next to 5, dest 4 next to 6 *)
  let g =
    Mcgraph.Graph.of_edges ~n:7
      [ (0, 1); (1, 5); (5, 2); (0, 3); (3, 6); (6, 4) ]
  in
  let topo = Topology.Topo.make ~name:"two-cluster" g in
  N.make
    ~profile:(N.uniform_profile ~link_capacity:10_000.0 ~server_capacity:8_000.0)
    ~rng ~servers:[ 5; 6 ] topo

let two_cluster_request () =
  (* bandwidth high enough that an extra chain instance (25) is cheaper
     than re-crossing an arm twice (2·b): single server = 25 + 8b = 825,
     two servers = 50 + 6b = 650 *)
  Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 2; 4 ] ~bandwidth:100.0
    ~chain:[ Sdn.Vnf.Nat ]

let test_multi_server_wins () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  match A.solve ~k:2 net req with
  | Error e -> Alcotest.failf "solve: %s" e
  | Ok res ->
    (* both servers used: unprocessed copies go down both arms, no
       crossing of the center by processed traffic *)
    Alcotest.(check (list int)) "two servers"
      [ 5; 6 ] res.A.tree.Pt.servers;
    Tutil.assert_close "cost" 650.0 res.A.cost;
    (match A.solve ~k:1 net req with
    | Error e -> Alcotest.failf "k=1: %s" e
    | Ok res1 ->
      Alcotest.(check bool) "k=2 beats k=1" true (res.A.cost < res1.A.cost))

let test_k_monotone () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  let cost k =
    match A.solve ~k net req with
    | Ok r -> r.A.cost
    | Error e -> Alcotest.failf "k=%d: %s" k e
  in
  Alcotest.(check bool) "more K never hurts" true (cost 2 <= cost 1 +. 1e-9)

let test_no_server_error () =
  (* a network whose only server cannot host the chain *)
  let rng = Rng.create 1 in
  let g = Mcgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let topo = Topology.Topo.make ~name:"tiny" g in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:10.0)
      ~rng ~servers:[ 1 ] topo
  in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 2 ] ~bandwidth:1.0
      ~chain:[ Sdn.Vnf.Ids ]
  in
  (match A.solve_capacitated net req with
  | Ok _ -> Alcotest.fail "should reject"
  | Error _ -> ());
  (* uncapacitated ignores computing capacity *)
  match A.solve net req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uncapacitated should work: %s" e

let test_capacitated_prunes_links () =
  let rng = Rng.create 1 in
  (* two routes 0→2: direct cheap edge and a detour; choke the direct edge *)
  let g = Mcgraph.Graph.of_edges ~n:4 [ (0, 2); (0, 1); (1, 2); (2, 3) ] in
  let topo = Topology.Topo.make ~name:"choke" g in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:100.0 ~server_capacity:8000.0)
      ~rng ~servers:[ 2 ] topo
  in
  (match N.allocate net { N.links = [ (0, 95.0) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" e);
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:50.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  match A.solve_capacitated net req with
  | Error e -> Alcotest.failf "detour exists: %s" e
  | Ok res ->
    Alcotest.(check bool) "avoids choked edge" true
      (not (List.mem_assoc 0 res.A.tree.Pt.edge_uses))

let test_admit_allocates () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  match A.admit ~k:2 net req with
  | Error e -> Alcotest.failf "admit: %s" e
  | Ok res ->
    List.iter
      (fun (e, uses) ->
        Tutil.assert_close "link drained"
          (N.link_capacity net e -. (float_of_int uses *. 100.0))
          (N.link_residual net e))
      res.A.tree.Pt.edge_uses;
    List.iter
      (fun v ->
        Tutil.assert_close "server drained" (N.server_capacity net v -. 25.0)
          (N.server_residual net v))
      res.A.tree.Pt.servers

let test_rejects_bad_k () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  Alcotest.check_raises "k=0" (Invalid_argument "Appro_multi: K must be at least 1")
    (fun () -> ignore (A.solve ~k:0 net req))

(* --- randomized properties --- *)

let small_instance seed =
  let net, rng = Tutil.random_network seed ~lo:6 ~hi:16 in
  (* keep |D| small so Dreyfus–Wagner stays cheap *)
  let nn = N.n net in
  let source = Rng.int rng nn in
  let count = 1 + Rng.int rng (min 4 (nn - 1)) in
  let picks = Rng.sample_without_replacement rng count (nn - 1) in
  let dests = List.map (fun i -> if i >= source then i + 1 else i) picks in
  let req =
    Sdn.Request.make ~id:0 ~source ~destinations:dests
      ~bandwidth:(Rng.float_range rng 50.0 200.0)
      ~chain:(Sdn.Vnf.random_chain rng)
  in
  (net, req)

let prop_solution_valid =
  Tutil.qtest ~count:150 "appro solutions validate, ≤ K servers"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      let k = 1 + (seed mod 3) in
      match A.solve ~k net req with
      | Error _ -> true
      | Ok res -> (
        List.length res.A.tree.Pt.servers <= k
        &&
        match Pt.validate net res.A.tree with Ok () -> true | Error _ -> false))

let prop_within_2opt1 =
  Tutil.qtest ~count:100 "appro aux cost ≤ 2·OPT(K=1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (A.solve ~k:3 net req, E.optimal_one_server net req) with
      | Ok res, Ok opt -> res.A.aux_cost <= (2.0 *. opt.E.cost) +. 1e-6
      | Error _, Error _ -> true
      | _ -> false)

(* Theorem 1: Appro_Multi is a 2K-approximation of the true optimum *)
let prop_theorem_2k =
  Tutil.qtest ~count:60 "Theorem 1: appro(K) ≤ 2K·OPT(K)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      let k = 1 + (seed mod 2) in
      match (A.solve ~k net req, E.optimal ~k net req) with
      | Ok res, Ok opt ->
        res.A.cost <= (2.0 *. float_of_int k *. opt.E.mcost) +. 1e-6
      | Error _, Error _ -> true
      | _ -> false)

let prop_optimal_is_lower_bound =
  Tutil.qtest ~count:60 "OPT(K) ≤ every heuristic and OPT(K) ≤ OPT(1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (E.optimal ~k:2 net req, E.optimal_one_server net req, A.solve ~k:2 net req)
      with
      | Ok opt, Ok opt1, Ok appro ->
        opt.E.mcost <= opt1.E.cost +. 1e-6 && opt.E.mcost <= appro.A.cost +. 1e-6
      | _ -> true)

(* the two exact formulations agree at K = 1: shortest path = Steiner
   tree over {s, v}, so the decompositions coincide *)
let prop_exact_oracles_agree =
  Tutil.qtest ~count:60 "optimal(k=1) = optimal_one_server"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (E.optimal ~k:1 net req, E.optimal_one_server net req) with
      | Ok a, Ok b -> Float.abs (a.E.mcost -. b.E.cost) < 1e-6 *. (1.0 +. b.E.cost)
      | Error _, Error _ -> true
      | _ -> false)

let prop_optimal_tree_valid =
  Tutil.qtest ~count:60 "OPT(K) structures validate"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match E.optimal ~k:2 net req with
      | Error _ -> true
      | Ok opt -> (
        (match Pt.validate net opt.E.mtree with Ok () -> true | Error _ -> false)
        && Float.abs (Pt.cost net opt.E.mtree -. opt.E.mcost)
           < 1e-6 *. (1.0 +. opt.E.mcost)
        && List.for_all
             (fun (d, _) -> List.mem_assoc d opt.E.assignment)
             opt.E.mtree.Pt.routes))

let prop_opt1_lower_bound =
  Tutil.qtest ~count:100 "OPT(K=1) ≤ one_server and ≤ appro(k=1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (E.optimal_one_server net req, O.solve net req, A.solve ~k:1 net req) with
      | Ok opt, Ok base, Ok appro ->
        opt.E.cost <= base.O.cost +. 1e-6 && opt.E.cost <= appro.A.cost +. 1e-6
      | _ -> true)

(* solve keeps only a running minimum; the ranked list is the slow
   reference it must agree with, tie-breaks included *)
let prop_solve_is_candidates_head =
  Tutil.qtest ~count:150 "solve = head of candidates (running minimum)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      let k = 1 + (seed mod 3) in
      let ranked =
        A.candidates ~k ~keep:(fun _ -> true) ~usable_servers:(N.servers net)
          net req
      in
      match (A.solve ~k net req, ranked) with
      | Error _, [] -> true
      | Ok res, (aux_cost, subset, aux, edges) :: _ ->
        res.A.subset = List.sort compare subset
        && Int64.equal
             (Int64.bits_of_float res.A.aux_cost)
             (Int64.bits_of_float aux_cost)
        && Int64.equal
             (Int64.bits_of_float res.A.cost)
             (Int64.bits_of_float
                (Pt.cost net (Nfv_multicast.Aux_graph.to_pseudo_tree aux edges)))
      | _ -> false)

let prop_k_improves =
  Tutil.qtest ~count:100 "appro(k=3) ≤ appro(k=1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (A.solve ~k:3 net req, A.solve ~k:1 net req) with
      | Ok r3, Ok r1 -> r3.A.aux_cost <= r1.A.aux_cost +. 1e-6
      | _ -> true)

let prop_one_server_valid =
  Tutil.qtest ~count:150 "one_server solutions validate with one server"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match O.solve net req with
      | Error _ -> true
      | Ok res -> (
        List.length res.O.tree.Pt.servers = 1
        &&
        match Pt.validate net res.O.tree with Ok () -> true | Error _ -> false))

let prop_exact_valid =
  Tutil.qtest ~count:100 "exact K=1 oracle validates"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match E.optimal_one_server net req with
      | Error _ -> true
      | Ok res -> (
        match Pt.validate net res.E.tree with Ok () -> true | Error _ -> false))

let prop_capacitated_never_exceeds =
  Tutil.qtest ~count:80 "sequential admits never exceed capacity"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
      let reqs = Workload.Gen.sequence rng net ~count:30 in
      List.iter (fun r -> ignore (A.admit ~k:2 net r)) reqs;
      let ok = ref true in
      for e = 0 to N.m net - 1 do
        if N.link_residual net e < -1e-6 then ok := false
      done;
      List.iter
        (fun v -> if N.server_residual net v < -1e-6 then ok := false)
        (N.servers net);
      !ok)

(* the dense subset loop against the former one as a plain fold, on
   networks with {1, 2} unit costs (even seeds: equal-cost trees abound,
   so any change of tie order shows) and default random costs *)
let prop_solve_matches_reference =
  Tutil.qtest ~count:60
    "solve = reference fold (cost bits, subset, tree, Dijkstra runs)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng =
        if seed mod 2 = 0 then Tutil.tie_network seed ~lo:6 ~hi:20
        else Tutil.random_network seed ~lo:6 ~hi:20
      in
      List.for_all
        (fun id ->
          let req = Tutil.random_request rng net ~id in
          let k = 1 + Rng.int rng 3 in
          (* Dijkstra trees each side computes: the dense loop reads the
             same sources as the reference *)
          let trees f =
            let before = Mcgraph.Sp_engine.global_trees_computed () in
            let r = f () in
            (r, Mcgraph.Sp_engine.global_trees_computed () - before)
          in
          let solved, runs = trees (fun () -> A.solve ~k net req) in
          let reference, ref_runs = trees (fun () -> Reference.appro_solve ~k net req) in
          runs = ref_runs
          &&
          match (solved, reference) with
          | Error _, None -> true
          | Ok res, Some (aux_cost, subset, tree) ->
            Tutil.same_bits res.A.aux_cost aux_cost
            && Tutil.same_bits res.A.cost (Pt.cost net tree)
            && res.A.subset = List.sort compare subset
            && res.A.tree = tree
          | _ -> false)
        [ 0; 1; 2 ])

let () =
  Alcotest.run "appro"
    [
      ( "combinations",
        [
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "subsets_of_size" `Quick test_subsets;
          Alcotest.test_case "subsets_up_to" `Quick test_subsets_up_to;
          Alcotest.test_case "iter_subsets" `Quick test_iter_subsets;
        ] );
      ( "unit",
        [
          Alcotest.test_case "multi-server wins on clusters" `Quick
            test_multi_server_wins;
          Alcotest.test_case "K monotone" `Quick test_k_monotone;
          Alcotest.test_case "capacity-starved server" `Quick test_no_server_error;
          Alcotest.test_case "capacitated pruning" `Quick test_capacitated_prunes_links;
          Alcotest.test_case "admit allocates" `Quick test_admit_allocates;
          Alcotest.test_case "k validation" `Quick test_rejects_bad_k;
        ] );
      ( "property",
        [
          prop_solution_valid;
          prop_solve_is_candidates_head;
          prop_solve_matches_reference;
          prop_within_2opt1;
          prop_theorem_2k;
          prop_exact_oracles_agree;
          prop_optimal_is_lower_bound;
          prop_optimal_tree_valid;
          prop_opt1_lower_bound;
          prop_k_improves;
          prop_one_server_valid;
          prop_exact_valid;
          prop_capacitated_never_exceeds;
        ] );
    ]
