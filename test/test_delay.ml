module D = Nfv_multicast.Delay
module Pt = Nfv_multicast.Pseudo_tree
module Adm = Nfv_multicast.Admission
module N = Sdn.Network
module Rng = Topology.Rng

(* path 0-1-2-3-4, server at 2, uniform profile (delay 1 ms per link) *)
let fixture () =
  let rng = Rng.create 1 in
  let topo =
    Topology.Topo.make ~name:"path"
      (Mcgraph.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ])
  in
  N.make
    ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:8000.0)
    ~rng ~servers:[ 2 ] topo

let request ?deadline () =
  let r =
    Sdn.Request.make ~id:7 ~source:0 ~destinations:[ 4 ] ~bandwidth:10.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  match deadline with None -> r | Some d -> Sdn.Request.with_deadline r d

let tree req =
  Pt.make ~request:req ~servers:[ 2 ]
    ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
    ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 2; 3 ] }) ]

let test_destination_delay () =
  let net = fixture () in
  let pt = tree (request ()) in
  (* 4 links × 1 ms + NAT 0.1 ms *)
  Tutil.assert_close "delay" 4.1 (D.destination_delay_ms net pt 4);
  Tutil.assert_close "worst = only" 4.1 (D.worst_delay_ms net pt)

let test_chain_delay_values () =
  Tutil.assert_close "NAT" 0.1 (Sdn.Vnf.chain_delay_ms [ Sdn.Vnf.Nat ]);
  Tutil.assert_close "full chain" 1.3
    (Sdn.Vnf.chain_delay_ms [ Sdn.Vnf.Nat; Sdn.Vnf.Firewall; Sdn.Vnf.Ids ]);
  Alcotest.check_raises "empty" (Invalid_argument "Vnf.chain_delay_ms: empty chain")
    (fun () -> ignore (Sdn.Vnf.chain_delay_ms []))

let test_meets_deadline () =
  let net = fixture () in
  Alcotest.(check bool) "no deadline" true (D.meets_deadline net (tree (request ())));
  Alcotest.(check bool) "loose" true
    (D.meets_deadline net (tree (request ~deadline:5.0 ())));
  Alcotest.(check bool) "tight" false
    (D.meets_deadline net (tree (request ~deadline:4.0 ())))

let test_deadline_setter_validates () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Request.with_deadline: non-positive deadline") (fun () ->
      ignore (Sdn.Request.with_deadline (request ()) 0.0))

let test_admit_rolls_back () =
  let net = fixture () in
  let impossible = request ~deadline:1.0 () in
  (match D.admit net Adm.Sp impossible with
  | Ok _ -> Alcotest.fail "1 ms across 4 hops is impossible"
  | Error _ -> ());
  (* rollback left the network untouched *)
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "residual intact" (N.link_capacity net e) (N.link_residual net e)
  done;
  Tutil.assert_close "server intact" (N.server_capacity net 2) (N.server_residual net 2)

let test_admit_accepts_feasible () =
  let net = fixture () in
  match D.admit net Adm.Sp (request ~deadline:10.0 ()) with
  | Error e -> Alcotest.failf "should admit: %s" e
  | Ok pt ->
    Alcotest.(check bool) "within bound" true (D.meets_deadline net pt);
    Alcotest.(check bool) "resources held" true
      (N.link_residual net 0 < N.link_capacity net 0)

let test_missing_witness () =
  let net = fixture () in
  let pt = Pt.make ~request:(request ()) ~servers:[ 2 ] ~edge_uses:[ (0, 1) ] ~routes:[] in
  Alcotest.check_raises "no witness"
    (Invalid_argument "Delay.destination_delay_ms: no witness for destination")
    (fun () -> ignore (D.destination_delay_ms net pt 4))

let prop_delay_consistent_with_validation =
  Tutil.qtest ~count:60 "admitted delay-bounded trees always meet the bound"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:25 in
      let spec =
        { Workload.Gen.default_spec with deadline = Some (5.0, 30.0) }
      in
      let reqs = Workload.Gen.sequence ~spec rng net ~count:20 in
      List.for_all
        (fun r ->
          match D.admit net Adm.Online_cp_no_threshold r with
          | Ok pt -> D.meets_deadline net pt
          | Error _ -> true)
        reqs)

(* SP routes without looking at the deadline, so on a freshly reset
   network a tree admitted under a tight bound is admitted unchanged
   under a loose one. Counting admissions over a whole sequence is not
   monotone in the bound: under greedy online admission one early
   rejection can free capacity for several later requests. *)
let tight_admission_is_loose_admission seed =
  let net, rng = Tutil.random_network seed ~lo:10 ~hi:25 in
  let reqs = Workload.Gen.sequence rng net ~count:25 in
  let admit r bound =
    Sdn.Network.reset net;
    D.admit net Adm.Sp (Sdn.Request.with_deadline r bound)
  in
  List.for_all
    (fun r ->
      match admit r 8.0 with
      | Error _ -> true
      | Ok tight -> (
        match admit r 100.0 with
        | Ok loose -> Pt.allocation tight = Pt.allocation loose
        | Error _ -> false))
    reqs

let prop_tight_admission_is_loose =
  Tutil.qtest ~count:30 "tight admission = loose admission"
    QCheck.(int_bound 10_000)
    tight_admission_is_loose_admission

(* instance 2542 (drawn under QCHECK_SEED=970673158) admits 14 requests
   of its sequence under 8 ms but 12 under 100 ms, which refuted the
   former count-monotonicity property *)
let test_pinned_instance () =
  Alcotest.(check bool) "instance 2542" true (tight_admission_is_loose_admission 2542)

let () =
  Alcotest.run "delay"
    [
      ( "unit",
        [
          Alcotest.test_case "destination delay" `Quick test_destination_delay;
          Alcotest.test_case "chain delays" `Quick test_chain_delay_values;
          Alcotest.test_case "meets_deadline" `Quick test_meets_deadline;
          Alcotest.test_case "setter validation" `Quick test_deadline_setter_validates;
          Alcotest.test_case "rollback on violation" `Quick test_admit_rolls_back;
          Alcotest.test_case "accepts feasible" `Quick test_admit_accepts_feasible;
          Alcotest.test_case "missing witness" `Quick test_missing_witness;
          Alcotest.test_case "pinned instance 2542" `Quick test_pinned_instance;
        ] );
      ( "property",
        [ prop_delay_consistent_with_validation; prop_tight_admission_is_loose ] );
    ]
