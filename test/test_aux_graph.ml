module Aux = Nfv_multicast.Aux_graph
module G = Mcgraph.Graph
module P = Mcgraph.Paths
module N = Sdn.Network
module Rng = Topology.Rng

let instance seed =
  let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
  let request = Tutil.random_request rng net ~id:0 in
  let aux =
    Aux.build ~net ~request ~candidate_servers:(N.servers net) ()
  in
  (net, request, aux, rng)

let test_structure () =
  let net, _, aux, _ = instance 1 in
  let g = Aux.ext_graph aux in
  Alcotest.(check int) "one extra node" (N.n net + 1) (G.n g);
  Alcotest.(check int) "virtual node id" (N.n net) (Aux.virtual_node aux);
  Alcotest.(check int) "extra edges" (N.m net + N.server_count net) (G.m g);
  Alcotest.(check int) "base edge bound" (N.m net) (Aux.base_edge_count aux);
  List.iter
    (fun v ->
      match Aux.virtual_edge_of_server aux v with
      | None -> Alcotest.fail "candidate lacks virtual edge"
      | Some e ->
        Alcotest.(check bool) "virtual id range" true (Aux.is_virtual_edge aux e);
        Alcotest.(check int) "round trip" v (Aux.server_of_virtual_edge aux e))
    (N.servers net)

let test_virtual_weight_formula () =
  let net, req, aux, _ = instance 2 in
  let b = req.Sdn.Request.bandwidth in
  let weight e = b *. N.link_unit_cost net e in
  let apsp = P.all_pairs (N.graph net) ~weight in
  List.iter
    (fun v ->
      let expect =
        P.apsp_dist apsp req.Sdn.Request.source v
        +. N.chain_cost net v req.Sdn.Request.chain
      in
      Tutil.assert_close "wv" expect (Aux.virtual_edge_weight aux v))
    (N.servers net)

let test_weight_function () =
  let net, req, aux, _ = instance 3 in
  let servers = N.servers net in
  let subset = [ List.hd servers ] in
  let sm = Aux.subset_metric aux subset in
  (* base edges cost b·c_e *)
  let b = req.Sdn.Request.bandwidth in
  Tutil.assert_close "base edge" (b *. N.link_unit_cost net 0) (Aux.weight sm 0);
  (* chosen server's virtual edge has its wv; others are infinite *)
  let v = List.hd subset in
  let e = Option.get (Aux.virtual_edge_of_server aux v) in
  Tutil.assert_close "chosen virtual" (Aux.virtual_edge_weight aux v)
    (Aux.weight sm e);
  List.iter
    (fun v' ->
      if not (List.mem v' subset) then begin
        let e' = Option.get (Aux.virtual_edge_of_server aux v') in
        Alcotest.(check bool) "other virtual infinite" true
          (Aux.weight sm e' = infinity)
      end)
    servers

let test_subset_validation () =
  let net, _, aux, _ = instance 4 in
  let non_server =
    let rec find v = if N.is_server net v then find (v + 1) else v in
    find 0
  in
  Alcotest.check_raises "non-candidate"
    (Invalid_argument "Aux_graph.subset_metric: not a candidate server") (fun () ->
      ignore (Aux.subset_metric aux [ non_server ]))

(* the central property: the closed-form hub metric equals Dijkstra on the
   materialised auxiliary graph, for every subset of up to 3 servers *)
let prop_metric_exact =
  Tutil.qtest ~count:80 "hub metric = dijkstra on materialised graph"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, _, aux, _ = instance seed in
      let servers = Aux.reachable_servers aux in
      let subsets = Nfv_multicast.Combinations.subsets_up_to servers 3 in
      let ext = Aux.ext_graph aux in
      List.for_all
        (fun subset ->
          let sm = Aux.subset_metric aux subset in
          let _, weight = Aux.materialize aux ~subset in
          let ok = ref true in
          (* compare distances from a few nodes including the virtual one *)
          let sources = [ Aux.virtual_node aux; 0; G.n ext - 2 ] in
          List.iter
            (fun s ->
              let spt = P.dijkstra ext ~weight ~source:s in
              for t = 0 to G.n ext - 1 do
                let d1 = Aux.dist sm s t and d2 = spt.P.dist.(t) in
                if
                  (d1 = infinity) <> (d2 = infinity)
                  || (d1 < infinity && Float.abs (d1 -. d2) > 1e-6)
                then ok := false
              done)
            sources;
          !ok)
        subsets)

(* extracted paths realise the reported distances *)
let prop_path_realises_dist =
  Tutil.qtest ~count:60 "aux path cost = aux dist"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, _, aux, rng = instance seed in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let k = 1 + Rng.int rng (min 3 (List.length servers)) in
        let idx = Rng.sample_without_replacement rng k (List.length servers) in
        let subset = List.map (List.nth servers) idx in
        let sm = Aux.subset_metric aux subset in
        let ext = Aux.ext_graph aux in
        let ok = ref true in
        for _ = 1 to 15 do
          let x = Rng.int rng (G.n ext) and y = Rng.int rng (G.n ext) in
          match Aux.path sm x y with
          | None -> if Aux.dist sm x y < infinity then ok := false
          | Some edges ->
            let cost =
              List.fold_left (fun acc e -> acc +. Aux.weight sm e) 0.0 edges
            in
            if Float.abs (cost -. Aux.dist sm x y) > 1e-6 then ok := false;
            (* the edge list must be a walk x → y in the extended graph *)
            let rec walk node = function
              | [] -> node = y
              | e :: rest ->
                let u, v = G.endpoints ext e in
                if u = node then walk v rest
                else if v = node then walk u rest
                else false
            in
            if not (walk x edges) then ok := false
        done;
        !ok
      end)

(* steiner trees from the aux metric map back to valid pseudo-trees *)
let prop_pseudo_tree_valid =
  Tutil.qtest ~count:80 "aux steiner → valid pseudo-multicast tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req, aux, rng = instance seed in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let k = 1 + Rng.int rng (min 3 (List.length servers)) in
        let idx = Rng.sample_without_replacement rng k (List.length servers) in
        let subset = List.map (List.nth servers) idx in
        let sm = Aux.subset_metric aux subset in
        match Aux.steiner_tree sm with
        | None -> true (* destinations unreachable via this subset *)
        | Some edges -> (
          let pt = Aux.to_pseudo_tree aux edges in
          match Nfv_multicast.Pseudo_tree.validate net pt with
          | Ok () ->
            (* servers used must come from the subset *)
            List.for_all
              (fun v -> List.mem v subset)
              pt.Nfv_multicast.Pseudo_tree.servers
            && pt.Nfv_multicast.Pseudo_tree.request.Sdn.Request.id
               = req.Sdn.Request.id
          | Error _ -> false)
      end)

(* honest pseudo-tree cost equals the aux tree cost (no zero edges) *)
let prop_cost_agreement =
  Tutil.qtest ~count:80 "pseudo-tree cost = aux tree cost"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, _, aux, rng = instance seed in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let subset = [ List.nth servers (Rng.int rng (List.length servers)) ] in
        let sm = Aux.subset_metric aux subset in
        match Aux.steiner_tree sm with
        | None -> true
        | Some edges ->
          let pt = Aux.to_pseudo_tree aux edges in
          Float.abs
            (Nfv_multicast.Pseudo_tree.cost net pt -. Aux.tree_cost sm edges)
          < 1e-6 *. (1.0 +. Aux.tree_cost sm edges)
      end)

(* the hub metric stays exact when capacity pruning removes edges *)
let prop_metric_exact_pruned =
  Tutil.qtest ~count:60 "hub metric = dijkstra under pruning"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
      let request = Tutil.random_request rng net ~id:0 in
      (* randomly knock out ~30% of the edges, as residual pruning would *)
      let removed = Array.init (N.m net) (fun _ -> Rng.int rng 10 < 3) in
      let keep e = not removed.(e) in
      let aux =
        Aux.build ~keep ~net ~request ~candidate_servers:(N.servers net) ()
      in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let k = 1 + Rng.int rng (min 2 (List.length servers)) in
        let idx = Rng.sample_without_replacement rng k (List.length servers) in
        let subset = List.map (List.nth servers) idx in
        let sm = Aux.subset_metric aux subset in
        let ext, weight = Aux.materialize aux ~subset in
        let ok = ref true in
        List.iter
          (fun s ->
            let spt = P.dijkstra ext ~weight ~source:s in
            for t = 0 to G.n ext - 1 do
              let d1 = Aux.dist sm s t and d2 = spt.P.dist.(t) in
              if
                (d1 = infinity) <> (d2 = infinity)
                || (d1 < infinity && Float.abs (d1 -. d2) > 1e-6)
              then ok := false
            done)
          [ Aux.virtual_node aux; 0 ];
        !ok
      end)

(* ---- bit-exact equivalence with the unfactored reference ---- *)

(* even seeds draw {1, 2} unit costs (ties everywhere), odd seeds the
   default random costs *)
let ref_instance seed =
  let net, rng =
    if seed mod 2 = 0 then Tutil.tie_network seed ~lo:6 ~hi:18
    else Tutil.random_network seed ~lo:6 ~hi:18
  in
  let request = Tutil.random_request rng net ~id:0 in
  let aux = Aux.build ~net ~request ~candidate_servers:(N.servers net) () in
  (net, request, aux)

(* [f] on the library's and the reference's metric of every subset of at
   most three reachable servers *)
let for_all_subsets (net, request, aux) f =
  let base_weight e = request.Sdn.Request.bandwidth *. N.link_unit_cost net e in
  let source = request.Sdn.Request.source in
  List.for_all
    (fun subset ->
      f (Aux.subset_metric aux subset)
        (Reference.subset_metric aux ~source ~base_weight subset))
    (Nfv_multicast.Combinations.subsets_up_to (Aux.reachable_servers aux) 3)

let for_all_pairs aux p =
  let n = G.n (Aux.ext_graph aux) in
  let ok = ref true in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if not (p x y) then ok := false
    done
  done;
  !ok

let prop_dist_matches_reference =
  Tutil.qtest ~count:40 "factored dist = reference, bit for bit, every pair"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let (_, _, aux) as inst = ref_instance seed in
      for_all_subsets inst (fun sm rsm ->
          for_all_pairs aux (fun x y ->
              Tutil.same_bits (Aux.dist sm x y) (Reference.dist rsm x y))))

let prop_path_matches_reference =
  Tutil.qtest ~count:30 "path = reference edge list, every pair"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let (_, _, aux) as inst = ref_instance seed in
      for_all_subsets inst (fun sm rsm ->
          for_all_pairs aux (fun x y -> Aux.path sm x y = Reference.path rsm x y)))

let () =
  Alcotest.run "aux_graph"
    [
      ( "unit",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "virtual weight formula" `Quick
            test_virtual_weight_formula;
          Alcotest.test_case "weight function" `Quick test_weight_function;
          Alcotest.test_case "subset validation" `Quick test_subset_validation;
        ] );
      ( "property",
        [
          prop_metric_exact;
          prop_metric_exact_pruned;
          prop_path_realises_dist;
          prop_pseudo_tree_valid;
          prop_cost_agreement;
          prop_dist_matches_reference;
          prop_path_matches_reference;
        ] );
    ]
