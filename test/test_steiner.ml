module G = Mcgraph.Graph
module S = Mcgraph.Steiner

let unit_weight _ = 1.0

let test_trivial_terminals () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check (option (list int))) "no terminals" (Some [])
    (S.kmb g ~weight:unit_weight ~terminals:[]);
  Alcotest.(check (option (list int))) "single" (Some [])
    (S.kmb g ~weight:unit_weight ~terminals:[ 2 ]);
  Alcotest.(check (option (list int))) "duplicates collapse" (Some [])
    (S.kmb g ~weight:unit_weight ~terminals:[ 2; 2 ])

let test_pair_is_shortest_path () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 10.0 |] in
  match S.kmb g ~weight:(Tutil.weight_fn w) ~terminals:[ 0; 3 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    Alcotest.check Tutil.check_float "cost" 3.0
      (S.tree_cost ~weight:(Tutil.weight_fn w) tree)

let test_star_uses_steiner_node () =
  (* terminals 1,2,3 all adjacent to hub 0; optimal tree = star of cost 3 *)
  let g = G.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 1.9; 1.9; 1.9 |] in
  match S.kmb g ~weight:(Tutil.weight_fn w) ~terminals:[ 1; 2; 3 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    let c = S.tree_cost ~weight:(Tutil.weight_fn w) tree in
    (* KMB may pick the 2-path closure tree (3.8) or the star (3.0); both
       within the 2(1-1/3) ≈ 1.33 bound of OPT = 3.0 *)
    Alcotest.(check bool) "within KMB bound" true (c <= 4.0 +. 1e-9);
    Alcotest.(check bool) "valid" true
      (S.is_steiner_tree g ~terminals:[ 1; 2; 3 ] tree)

let test_unreachable () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check (option (list int))) "none" None
    (S.kmb g ~weight:unit_weight ~terminals:[ 0; 3 ])

let test_prune () =
  (* path 0-1-2-3 plus dangling 2-4; terminals {0, 3} *)
  let g = G.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (2, 4) ] in
  let pruned = S.prune g ~terminals:[ 0; 3 ] [ 0; 1; 2; 3 ] in
  Alcotest.(check (list int)) "dangling removed" [ 0; 1; 2 ]
    (List.sort compare pruned)

(* an isolated non-terminal edge goes; a terminal leaf stays *)
let test_prune_isolated_edge () =
  let g = G.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list int)) "isolated edge removed" [ 0; 1 ]
    (S.prune g ~terminals:[ 0; 2 ] [ 0; 1; 2 ])

let test_prune_cascades () =
  (* chain 0-1-2-3 with terminal only at 0: everything prunes away *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list int)) "all gone" []
    (S.prune g ~terminals:[ 0 ] [ 0; 1; 2 ])

let test_exact_known () =
  (* C4 with unit weights, terminals {0, 2}: exact cost 2 *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  match S.exact g ~weight:unit_weight ~terminals:[ 0; 2 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    Alcotest.check Tutil.check_float "cost 2" 2.0 (S.tree_cost ~weight:unit_weight tree)

let test_exact_steiner_node () =
  (* the star graph again: exact must find cost 3 via the hub *)
  let g = G.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 1.9; 1.9; 1.9 |] in
  match S.exact g ~weight:(Tutil.weight_fn w) ~terminals:[ 1; 2; 3 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    Alcotest.check Tutil.check_float "uses hub" 3.0
      (S.tree_cost ~weight:(Tutil.weight_fn w) tree)

let test_exact_too_many_terminals () =
  let g = G.of_edges ~n:20 (List.init 19 (fun i -> (i, i + 1))) in
  Alcotest.check_raises "guard" (Invalid_argument "Steiner.exact: too many terminals")
    (fun () ->
      ignore (S.exact g ~weight:unit_weight ~terminals:(List.init 16 Fun.id)))

let test_is_steiner_tree () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "valid" true (S.is_steiner_tree g ~terminals:[ 0; 2 ] [ 0; 1 ]);
  Alcotest.(check bool) "missing terminal" false
    (S.is_steiner_tree g ~terminals:[ 0; 3 ] [ 0; 1 ]);
  Alcotest.(check bool) "not connected to terminal" false
    (S.is_steiner_tree g ~terminals:[ 0; 2 ] [ 2 ])

(* ---- properties ---- *)

let with_instance seed f =
  let g, rng = Tutil.random_connected_graph seed ~lo:3 ~hi:18 in
  let w = Tutil.random_weights rng g in
  let n = G.n g in
  let t = 2 + Topology.Rng.int rng (min 5 (n - 1)) in
  let terminals = Topology.Rng.sample_without_replacement rng t n in
  f g (Tutil.weight_fn w) terminals rng

let prop_kmb_valid =
  Tutil.qtest ~count:200 "kmb returns a steiner tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match S.kmb g ~weight ~terminals with
          | None -> false
          | Some tree -> S.is_steiner_tree g ~terminals tree))

let prop_exact_valid =
  Tutil.qtest ~count:120 "exact returns a steiner tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match S.exact g ~weight ~terminals with
          | None -> false
          | Some tree -> S.is_steiner_tree g ~terminals tree))

let prop_kmb_ratio =
  Tutil.qtest ~count:120 "kmb within 2(1-1/t) of exact"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match (S.kmb g ~weight ~terminals, S.exact g ~weight ~terminals) with
          | Some approx, Some opt ->
            let ca = S.tree_cost ~weight approx
            and co = S.tree_cost ~weight opt in
            let t = float_of_int (List.length (List.sort_uniq compare terminals)) in
            ca <= (2.0 *. (1.0 -. (1.0 /. t)) *. co) +. 1e-6
          | _ -> false))

let prop_exact_lower_bounds_kmb =
  Tutil.qtest ~count:120 "exact <= kmb"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match (S.kmb g ~weight ~terminals, S.exact g ~weight ~terminals) with
          | Some approx, Some opt ->
            S.tree_cost ~weight opt <= S.tree_cost ~weight approx +. 1e-6
          | _ -> false))

(* with exactly two terminals both must equal the shortest path *)
let prop_two_terminals =
  Tutil.qtest ~count:120 "two terminals = shortest path"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:20 in
      let w = Tutil.random_weights rng g in
      let weight = Tutil.weight_fn w in
      let n = G.n g in
      let a = Topology.Rng.int rng n in
      let b = (a + 1 + Topology.Rng.int rng (n - 1)) mod n in
      if a = b then true
      else begin
        let spt = Mcgraph.Paths.dijkstra g ~weight ~source:a in
        let expected = spt.Mcgraph.Paths.dist.(b) in
        match (S.kmb g ~weight ~terminals:[ a; b ], S.exact g ~weight ~terminals:[ a; b ]) with
        | Some t1, Some t2 ->
          Float.abs (S.tree_cost ~weight t1 -. expected) < 1e-6
          && Float.abs (S.tree_cost ~weight t2 -. expected) < 1e-6
        | _ -> false
      end)

(* A random forest: edges taken in shuffled order, each with probability
   1/2 when it joins two components, so isolated edges and bare paths are
   common; terminals are any subset of the nodes, leaves included. *)
let random_forest seed =
  let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:25 in
  let ids = Array.init (G.m g) Fun.id in
  Topology.Rng.shuffle rng ids;
  let uf = Mcgraph.Union_find.create (G.n g) in
  let forest =
    List.filter
      (fun e ->
        Topology.Rng.bool rng
        &&
        let u, v = G.endpoints g e in
        Mcgraph.Union_find.union uf u v)
      (Array.to_list ids)
  in
  let k = Topology.Rng.int rng (G.n g + 1) in
  (g, forest, Topology.Rng.sample_without_replacement rng k (G.n g))

let prop_prune_matches_reference =
  Tutil.qtest ~count:300 "prune = reference on random forests"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, forest, terminals = random_forest seed in
      S.prune g ~terminals forest = Reference.prune g ~terminals forest)

(* weights in {1, 2, 3}: equal-cost paths and closure edges everywhere *)
let prop_kmb_matches_reference =
  Tutil.qtest ~count:200 "kmb = reference kmb under tied weights"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:3 ~hi:25 in
      let w = Array.init (G.m g) (fun _ -> float_of_int (1 + Topology.Rng.int rng 3)) in
      let weight = Tutil.weight_fn w in
      let n = G.n g in
      let t = 2 + Topology.Rng.int rng (min 6 (n - 1)) in
      let terminals = Topology.Rng.sample_without_replacement rng t n in
      S.kmb g ~weight ~terminals = Reference.kmb g ~weight ~terminals)

let () =
  Alcotest.run "steiner"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial terminal sets" `Quick test_trivial_terminals;
          Alcotest.test_case "pair = shortest path" `Quick test_pair_is_shortest_path;
          Alcotest.test_case "star instance" `Quick test_star_uses_steiner_node;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "prune cascades" `Quick test_prune_cascades;
          Alcotest.test_case "prune isolated edge" `Quick test_prune_isolated_edge;
          Alcotest.test_case "exact on C4" `Quick test_exact_known;
          Alcotest.test_case "exact uses steiner node" `Quick test_exact_steiner_node;
          Alcotest.test_case "exact terminal guard" `Quick test_exact_too_many_terminals;
          Alcotest.test_case "is_steiner_tree" `Quick test_is_steiner_tree;
        ] );
      ( "property",
        [
          prop_kmb_valid;
          prop_exact_valid;
          prop_kmb_ratio;
          prop_exact_lower_bounds_kmb;
          prop_two_terminals;
          prop_prune_matches_reference;
          prop_kmb_matches_reference;
        ] );
    ]
