(* The restoration policy engine: select's ordering contracts (replay
   bit-identity, knapsack fit/density classes, deadline order,
   id-sorted ties), the default policy's bit-identity with the
   historical hard-coded pass, the depart trigger restoring a backlog
   no heal would ever reach, lifecycle edges (a restored session's
   departure releases exactly once) and the infeasible-entry-last
   guarantee of the priced orders. *)

module G = Mcgraph.Graph
module N = Sdn.Network
module Fault = Sdn.Fault
module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic
module Batch = Nfv_multicast.Batch
module R = Nfv_multicast.Restore
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs
module Sp = Mcgraph.Sp_engine
module W = Nfv_multicast.Sp_window
module A = Nfv_multicast.Appro_multi

let with_obs f =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

let counter name = Obs.Counter.value (Obs.Counter.make name)

let mk_request ~id ~source ~destinations ~bandwidth =
  Sdn.Request.make ~id ~source ~destinations ~bandwidth
    ~chain:[ Sdn.Vnf.Firewall ]

let ids = List.map (fun (r : Sdn.Request.t) -> r.Sdn.Request.id)

(* a 0 -- 1(srv) -- 2 chain with an isolated node 3: requests to 3 are
   structurally infeasible (no path), the priced policies' worst case *)
let spur_net () =
  let g = G.create 4 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 2);
  let topo = Topology.Topo.make ~name:"spur-net" g in
  N.make_explicit ~topology:topo
    ~servers:[ (1, 1000.0, 1.0) ]
    ~link_capacities:(Array.make (G.m g) 100.0)
    ~link_unit_costs:(Array.make (G.m g) 1.0) ()

let entry ?(depart_at = infinity) r = { R.request = r; depart_at }

(* ---- select: ordering contracts ---------------------------------------- *)

let test_to_string () =
  Alcotest.(check string) "default" "replay-smallest-first"
    (R.to_string R.default);
  Alcotest.(check string) "knapsack volume" "knapsack-volume"
    (R.policy_to_string (R.Knapsack R.Volume));
  Alcotest.(check string) "knapsack priced" "knapsack-priced"
    (R.policy_to_string (R.Knapsack R.Priced));
  Alcotest.(check string) "deadline" "deadline" (R.policy_to_string R.Deadline);
  Alcotest.(check string) "depart trigger suffix" "deadline+depart"
    (R.to_string (R.make ~policy:R.Deadline ~trigger:R.Heal_or_depart ()));
  Alcotest.(check bool) "default is heal-only" false (R.on_depart R.default);
  Alcotest.(check bool) "heal-or-depart fires on departs" true
    (R.on_depart (R.make ~trigger:R.Heal_or_depart ()))

(* the default policy must reproduce exactly what the hard-coded pass
   did: id-sort the backlog, then Batch.reorder under Smallest_first *)
let test_select_default_is_the_replay () =
  let net = spur_net () in
  let reqs =
    List.map
      (fun (id, bw) ->
        mk_request ~id ~source:0 ~destinations:[ 2 ] ~bandwidth:bw)
      [ (0, 5.0); (1, 3.0); (2, 8.0); (3, 3.0) ]
  in
  (* scrambled entry order: select must not depend on it *)
  let entries = List.map entry [ List.nth reqs 2; List.nth reqs 0; List.nth reqs 3; List.nth reqs 1 ] in
  let got = R.select ~returned:0.0 net R.default entries in
  let expected =
    Batch.reorder net
      (List.sort
         (fun (a : Sdn.Request.t) b -> compare a.Sdn.Request.id b.Sdn.Request.id)
         reqs)
      Batch.Smallest_first
  in
  Alcotest.(check (list int))
    "default == id-sorted backlog through Batch.reorder Smallest_first"
    (ids expected) (ids got);
  Alcotest.(check (list int)) "ties resolve to id order" [ 1; 3; 0; 2 ]
    (ids got)

let test_select_knapsack_volume () =
  let net = spur_net () in
  let reqs =
    List.map
      (fun (id, bw) ->
        mk_request ~id ~source:0 ~destinations:[ 2 ] ~bandwidth:bw)
      [ (0, 5.0); (1, 3.0); (2, 8.0); (3, 3.0) ]
  in
  let entries = List.map entry reqs in
  let t = R.make ~policy:(R.Knapsack R.Volume) () in
  (* returned = 6: footprints 5, 3, 3 fit (descending density, ties by
     id), the 8 overshoots and goes last *)
  Alcotest.(check (list int)) "fitting class first, density desc, ties by id"
    [ 0; 1; 3; 2 ]
    (ids (R.select ~returned:6.0 net t entries));
  (* nothing fits: pure density order *)
  Alcotest.(check (list int)) "returned 0 degenerates to density order"
    [ 2; 0; 1; 3 ]
    (ids (R.select ~returned:0.0 net t entries));
  (* everything fits: same density order *)
  Alcotest.(check (list int)) "everything fits: density order" [ 2; 0; 1; 3 ]
    (ids (R.select ~returned:100.0 net t entries))

let test_select_deadline () =
  let net = spur_net () in
  let r id = mk_request ~id ~source:0 ~destinations:[ 2 ] ~bandwidth:10.0 in
  let entries =
    [
      entry ~depart_at:9.0 (r 0);
      entry ~depart_at:3.0 (r 1);
      entry ~depart_at:3.0 (r 2);
      entry (r 3) (* unknown lifetime: infinity, last *);
    ]
  in
  let t = R.make ~policy:R.Deadline () in
  Alcotest.(check (list int))
    "least remaining lifetime first, ties by id, unknown last" [ 1; 2; 0; 3 ]
    (ids (R.select ~returned:0.0 net t entries))

let test_select_priced_infeasible_last () =
  let net = spur_net () in
  let infeasible =
    mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0
  in
  let feasible =
    mk_request ~id:1 ~source:0 ~destinations:[ 2 ] ~bandwidth:10.0
  in
  let entries = [ entry infeasible; entry feasible ] in
  let t = R.make ~policy:(R.Knapsack R.Priced) () in
  Alcotest.(check (list int)) "unpriceable entry sorts last, never dropped"
    [ 1; 0 ]
    (ids (R.select ~returned:100.0 net t entries));
  Alcotest.(check (list int)) "same with no returned headroom" [ 1; 0 ]
    (ids (R.select ~returned:0.0 net t entries))

(* ---- the default policy is bit-identical to the historical pass --------
   The 6-node designed net of test_dynamic_churn, replayed twice: the
   implicit default and an explicit [Restore.default] must produce the
   same event stream, the same stats and the exact historical order the
   hard-coded pass was pinned to. *)

let designed_net () =
  let g = G.create 6 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 2);
  let e2 = G.add_edge g 2 3 in
  ignore (G.add_edge g 1 4);
  ignore (G.add_edge g 4 3);
  let e5 = G.add_edge g 4 5 in
  let topo = Topology.Topo.make ~name:"restore-net" g in
  let net =
    N.make_explicit ~topology:topo
      ~servers:[ (2, 1000.0, 1.0) ]
      ~link_capacities:(Array.make (G.m g) 100.0)
      ~link_unit_costs:(Array.make (G.m g) 1.0) ()
  in
  (net, e2, e5)

let describe (t, h) =
  match h with
  | Dyn.Arrived { id; tree } ->
    Printf.sprintf "%g arrived %d %s" t id
      (match tree with Some _ -> "admitted" | None -> "rejected")
  | Dyn.Departed { id; released } ->
    Printf.sprintf "%g departed %d %s" t id
      (if released then "released" else "noop")
  | Dyn.Fault_fired { victims; _ } ->
    Printf.sprintf "%g fault victims=[%s]" t
      (String.concat ";" (List.map string_of_int victims))
  | Dyn.Repaired { id; _ } -> Printf.sprintf "%g repaired %d" t id
  | Dyn.Dropped { id } -> Printf.sprintf "%g dropped %d" t id
  | Dyn.Restored { id; _ } -> Printf.sprintf "%g restored %d" t id

let designed_run restore =
  let net, e2, _ = designed_net () in
  let trace =
    [
      {
        Dyn.at = 1.0;
        holding = 100.0;
        request = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
      {
        Dyn.at = 2.0;
        holding = 3.0;
        request = mk_request ~id:1 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
    ]
  in
  let timeline =
    [
      { Fault.at = 4.0; event = Fault.Link_down e2 };
      { Fault.at = 6.0; event = Fault.Server_down 2 };
      { Fault.at = 8.0; event = Fault.Link_up e2 };
      { Fault.at = 9.0; event = Fault.Server_up 2 };
    ]
  in
  let seen = ref [] in
  let observe t h = seen := (t, h) :: !seen in
  let faults =
    match restore with
    | None -> Dyn.make_faults timeline
    | Some r -> Dyn.make_faults ~restore:(Some r) timeline
  in
  let s = Dyn.run ~faults ~observe net Adm.Online_cp trace in
  (s, List.rev_map describe !seen)

let test_default_policy_bit_identical () =
  let s_implicit, ev_implicit = designed_run None in
  let s_explicit, ev_explicit = designed_run (Some R.default) in
  Alcotest.(check (list string))
    "explicit Restore.default replays the implicit default event for event"
    ev_implicit ev_explicit;
  Alcotest.(check bool) "identical stats" true (s_implicit = s_explicit);
  (* and both are the exact order the hard-coded pass was pinned to *)
  Alcotest.(check (list string)) "the historical event order"
    [
      "1 arrived 0 admitted";
      "2 arrived 1 admitted";
      "4 fault victims=[0;1]";
      "4 repaired 0";
      "4 repaired 1";
      "5 departed 1 released";
      "6 fault victims=[0]";
      "6 dropped 0";
      "8 fault victims=[]";
      "9 fault victims=[]";
      "9 restored 0";
      "101 departed 0 released";
    ]
    ev_implicit

(* ---- the depart trigger -------------------------------------------------
   Two parallel server paths, 10-Mbps links:

     0 -e0- 1(srv) -e1- 3      (unit cost 1 — the cheap path)
     0 -e2- 2(srv) -e3- 3      (unit cost 2)

   Online_CP's load-dependent pricing sends session 0 down the
   server-2 path, so session 1 fills the server-1 path (e0, e1).
   Cutting e0 drops session 1 (no spare capacity anywhere) onto the
   backlog — and the timeline holds no heal until everything is over,
   so the heal-only default can never restore it. Session 0's natural
   departure at t=8 is the only capacity the backlog will ever see:
   the depart trigger turns it into a restoration. *)

let parallel_net () =
  let g = G.create 4 in
  let e0 = G.add_edge g 0 1 in
  ignore (G.add_edge g 1 3);
  ignore (G.add_edge g 0 2);
  ignore (G.add_edge g 2 3);
  let topo = Topology.Topo.make ~name:"parallel-net" g in
  let net =
    N.make_explicit ~topology:topo
      ~servers:[ (1, 1000.0, 1.0); (2, 1000.0, 1.0) ]
      ~link_capacities:(Array.make (G.m g) 10.0)
      ~link_unit_costs:[| 1.0; 1.0; 2.0; 2.0 |] ()
  in
  (net, e0)

let depart_run restore =
  let net, e0 = parallel_net () in
  let trace =
    [
      {
        Dyn.at = 1.0;
        holding = 7.0;
        request = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
      {
        Dyn.at = 2.0;
        holding = 100.0;
        request = mk_request ~id:1 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
    ]
  in
  let timeline =
    [
      { Fault.at = 3.0; event = Fault.Link_down e0 };
      (* the only heal fires after every session is over: it cannot
         restore anything, it just returns the confiscation so the
         final conservation check sees a whole network *)
      { Fault.at = 200.0; event = Fault.Link_up e0 };
    ]
  in
  let seen = ref [] in
  let observe t h = seen := (t, h) :: !seen in
  let s =
    Dyn.run
      ~faults:(Dyn.make_faults ~restore:(Some restore) timeline)
      ~observe net Adm.Online_cp trace
  in
  (net, s, List.rev_map describe !seen)

let test_depart_trigger_restores_heal_free_tail () =
  (* heal-only: the backlog starves — session 0 expires unserved *)
  let net_heal, s_heal, ev_heal = depart_run R.default in
  Alcotest.(check int) "heal-only restores nothing" 0 s_heal.Dyn.restored;
  Alcotest.(check int) "heal-only completes only session 0" 1
    s_heal.Dyn.completed;
  Alcotest.(check (list string)) "heal-only event order"
    [
      "1 arrived 0 admitted";
      "2 arrived 1 admitted";
      "3 fault victims=[1]";
      "3 dropped 1";
      "8 departed 0 released";
      "102 departed 1 noop";
      "200 fault victims=[]";
    ]
    ev_heal;
  for e = 0 to N.m net_heal - 1 do
    Tutil.assert_close "heal-only network ends whole"
      (N.link_capacity net_heal e) (N.link_residual net_heal e)
  done;
  (* the depart trigger turns session 1's departure into the pass *)
  let dep = R.make ~trigger:R.Heal_or_depart () in
  let net_dep, s_dep, ev_dep = depart_run dep in
  Alcotest.(check int) "depart trigger restores the backlog" 1
    s_dep.Dyn.restored;
  Alcotest.(check int) "both sessions complete" 2 s_dep.Dyn.completed;
  Alcotest.(check (list string)) "depart-triggered event order"
    [
      "1 arrived 0 admitted";
      "2 arrived 1 admitted";
      "3 fault victims=[1]";
      "3 dropped 1";
      "8 departed 0 released";
      "8 restored 1";
      "102 departed 1 released";
      "200 fault victims=[]";
    ]
    ev_dep;
  (* lifecycle edge: the restored session's original departure released
     exactly once — any double free would leave residuals above
     capacity (or raise in Network.release) *)
  for e = 0 to N.m net_dep - 1 do
    Tutil.assert_close "restored session releases exactly once"
      (N.link_capacity net_dep e) (N.link_residual net_dep e)
  done;
  List.iter
    (fun v ->
      Tutil.assert_close "server residual exact" (N.server_capacity net_dep v)
        (N.server_residual net_dep v))
    (N.servers net_dep)

(* ---- an infeasible backlog entry under a priced order -------------------
   Session 0 reaches the spur node 5 of the designed net; after it is
   dropped, e5 goes down and stays down, so re-pricing it yields no
   tree at all (infinite price). A Cheapest_first replay must still
   attempt it — last — and the pass must restore the feasible session
   rather than wedge. *)

let test_infeasible_entry_attempted_last () =
  with_obs @@ fun () ->
  let net, _, e5 = designed_net () in
  let trace =
    [
      {
        Dyn.at = 1.0;
        holding = 100.0;
        request = mk_request ~id:0 ~source:0 ~destinations:[ 5 ] ~bandwidth:10.0;
      };
      {
        Dyn.at = 2.0;
        holding = 100.0;
        request = mk_request ~id:1 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
    ]
  in
  let timeline =
    [
      { Fault.at = 3.0; event = Fault.Server_down 2 };
      { Fault.at = 4.0; event = Fault.Link_down e5 };
      { Fault.at = 5.0; event = Fault.Server_up 2 };
    ]
  in
  let policy = R.make ~policy:(R.Replay Batch.Cheapest_first) () in
  let a0 = counter "restoration.attempted" in
  let r0 = counter "restoration.restored" in
  let f0 = counter "restoration.failed" in
  let seen = ref [] in
  let observe t h = seen := (t, h) :: !seen in
  let s =
    Dyn.run
      ~faults:(Dyn.make_faults ~restore:(Some policy) timeline)
      ~observe net Adm.Online_cp trace
  in
  Alcotest.(check int) "both dropped" 2 s.Dyn.dropped;
  Alcotest.(check int) "the feasible session is restored" 1 s.Dyn.restored;
  Alcotest.(check bool) "session 1 restored at the heal" true
    (List.exists (fun eh -> describe eh = "5 restored 1") !seen);
  Alcotest.(check int) "both entries attempted" (a0 + 2)
    (counter "restoration.attempted");
  Alcotest.(check int) "one restored" (r0 + 1) (counter "restoration.restored");
  Alcotest.(check int) "the infeasible one failed" (f0 + 1)
    (counter "restoration.failed")

(* ---- the static price fast paths against their slow references -------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A static window engine under random allocate, release and fault
   confiscation answers exactly what a fresh engine over the same
   weights answers, and never evicts: its weight reads no residual, so
   no epoch bump can make a cached tree stale. *)
let static_engine_property seed =
  let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
  let g = N.graph net and n = N.n net and m = N.m net in
  let b = Rng.float_range rng 1.0 50.0 in
  let weight e = b *. N.link_unit_cost net e in
  let window = W.create net and fault = Fault.create net in
  let acquire () = W.static_engine window ~family:"test.static" ~weight in
  let eng = acquire () in
  let held = ref [] in
  let epoch0 = N.weight_epoch net in
  for step = 1 to 40 do
    (match Rng.int rng 5 with
    | 0 | 1 -> (
      let e = Rng.int rng m in
      let amt =
        Rng.float_range rng 0.0 (Float.max 0.0 (N.link_residual net e))
      in
      let alloc = { N.links = [ (e, amt) ]; nodes = [] } in
      match N.allocate net alloc with
      | Ok () -> held := alloc :: !held
      | Error _ -> ())
    | 2 -> (
      match !held with
      | a :: rest ->
        N.release net a;
        held := rest
      | [] -> ())
    | 3 -> ignore (Fault.inject fault ~live:[] (Fault.Link_down (Rng.int rng m)))
    | _ -> ignore (Fault.inject fault ~live:[] (Fault.Link_up (Rng.int rng m))));
    if acquire () != eng then
      QCheck.Test.fail_reportf "step %d: the family's static engine was replaced"
        step;
    let fresh = Sp.create g ~weight in
    for _ = 1 to 4 do
      let u = Rng.int rng n and v = Rng.int rng n in
      if
        (not (same_bits (Sp.dist eng u v) (Sp.dist fresh u v)))
        || Sp.path eng u v <> Sp.path fresh u v
      then
        QCheck.Test.fail_reportf "step %d: static %d -> %d differs from fresh"
          step u v
    done
  done;
  if N.weight_epoch net = epoch0 then
    QCheck.Test.fail_reportf "no epoch bump: the churn exercised nothing";
  (Sp.stats eng).Sp.invalidations = 0

(* Dynamic.run under the priced policies; at every callback the tracked
   backlog is priced through one long-lived window (memo + static
   engines, across the run's allocations and faults) and again with no
   window (a fresh solve). Returns how many backlog prices were
   compared. *)
let memo_agrees ~policy seed =
  let net, rng = Tutil.random_network seed ~lo:10 ~hi:20 in
  let trace = Dyn.poisson_trace rng net ~rate:3.0 ~mean_holding:20.0 ~count:24 in
  let horizon =
    List.fold_left (fun acc a -> Float.max acc a.Dyn.at) 1.0 trace *. 1.25
  in
  let timeline =
    Fault.random_timeline ~heal_after:(horizon /. 8.0) ~rng ~horizon ~events:10
      net
  in
  let request_of = Hashtbl.create 32 in
  List.iter
    (fun a ->
      Hashtbl.replace request_of a.Dyn.request.Sdn.Request.id a.Dyn.request)
    trace;
  let k = 1 + (seed mod 3) in
  let window = W.create net in
  let backlog = Hashtbl.create 16 in
  let compared = ref 0 in
  let observe t h =
    (match h with
    | Dyn.Dropped { id } ->
      Hashtbl.replace backlog id (Hashtbl.find request_of id)
    | Dyn.Restored { id; _ } | Dyn.Departed { id; _ } -> Hashtbl.remove backlog id
    | _ -> ());
    Hashtbl.iter
      (fun id r ->
        incr compared;
        let memo = A.price ~k ~window net r and reference = A.price ~k net r in
        if not (same_bits memo reference) then
          QCheck.Test.fail_reportf
            "%s: request %d priced %h through the memo, %h fresh"
            (describe (t, h)) id memo reference)
      backlog
  in
  ignore
    (Dyn.run
       ~faults:(Dyn.make_faults ~restore:(Some policy) timeline)
       ~observe net Adm.Online_cp trace);
  !compared

let priced_policies =
  [
    R.make ~policy:(R.Knapsack R.Priced) ~trigger:R.Heal_or_depart ();
    R.make ~policy:(R.Replay Batch.Cheapest_first) ();
  ]

let memo_agrees_property seed =
  List.iter (fun policy -> ignore (memo_agrees ~policy seed)) priced_policies;
  true

(* the property above must not pass vacuously on an empty backlog *)
let test_memo_property_prices_a_backlog () =
  List.iter
    (fun policy ->
      let compared =
        List.fold_left ( + ) 0
          (List.init 6 (fun seed -> memo_agrees ~policy seed))
      in
      if compared = 0 then
        Alcotest.failf "%s: no backlog was ever priced" (R.to_string policy))
    priced_policies

(* Designed backlog on the spur net: three priceable entries and one
   structurally infeasible one. Every price call is answered either by
   a solve (counted as appro_multi.solved or .infeasible) or by a memo
   hit (appro_multi.price_hits), never both. *)
let test_memo_telemetry () =
  with_obs @@ fun () ->
  let net = spur_net () in
  let r id bandwidth = mk_request ~id ~source:0 ~destinations:[ 2 ] ~bandwidth in
  let infeasible =
    mk_request ~id:3 ~source:0 ~destinations:[ 3 ] ~bandwidth:1.0
  in
  let reqs = [ r 0 5.0; r 1 3.0; r 2 8.0; infeasible ] in
  let entries = List.map entry reqs in
  let window = W.create net in
  let priced = R.make ~policy:(R.Knapsack R.Priced) () in
  let solves () =
    counter "appro_multi.solved" + counter "appro_multi.infeasible"
  in
  let hits () = counter "appro_multi.price_hits" in
  let s0 = solves () and h0 = hits () in
  let calls = ref 0 in
  (* three passes of one price per entry, then a Cheapest_first replay *)
  for _ = 1 to 3 do
    ignore (R.select ~window ~returned:0.0 net priced entries);
    calls := !calls + List.length entries
  done;
  ignore (Batch.reorder ~window net reqs Batch.Cheapest_first);
  calls := !calls + List.length reqs;
  (* a reused id with another request must not alias: it solves, and so
     does the original once its entry was replaced *)
  let reused = r 0 9.0 in
  Tutil.assert_close "reused id priced as itself" (A.price net reused)
    (A.price ~window net reused);
  Tutil.assert_close "original id re-solved" (A.price net (r 0 5.0))
    (A.price ~window net (r 0 5.0));
  (* the memo is keyed by k too: another K is another solve *)
  ignore (A.price ~k:1 ~window net (r 1 3.0));
  calls := !calls + 3;
  let solved = solves () - s0 - 2 (* the two fresh reference prices *)
  and hit = hits () - h0 in
  Alcotest.(check int) "hits + solves = price calls" !calls (hit + solved);
  Alcotest.(check int) "one solve per distinct (request, k)" 7 solved;
  Alcotest.(check int) "every repeat is a hit" (!calls - 7) hit;
  Alcotest.(check bool) "unpriceable prices at infinity" true
    (A.price ~window net infeasible = infinity)

let () =
  Alcotest.run "restore"
    [
      ( "select",
        [
          Alcotest.test_case "policy labels and triggers" `Quick test_to_string;
          Alcotest.test_case "default is the historical replay" `Quick
            test_select_default_is_the_replay;
          Alcotest.test_case "knapsack fit/density classes" `Quick
            test_select_knapsack_volume;
          Alcotest.test_case "deadline order" `Quick test_select_deadline;
          Alcotest.test_case "priced order puts infeasible last" `Quick
            test_select_priced_infeasible_last;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "default policy is bit-identical" `Quick
            test_default_policy_bit_identical;
          Alcotest.test_case "depart trigger rescues a heal-free tail" `Quick
            test_depart_trigger_restores_heal_free_tail;
          Alcotest.test_case "infeasible backlog entry attempted last" `Quick
            test_infeasible_entry_attempted_last;
        ] );
      ( "price memo",
        [
          Tutil.qtest ~count:40
            "static window engine = fresh engine under churn, no evictions"
            QCheck.small_nat static_engine_property;
          Tutil.qtest ~count:25
            "backlog prices: window memo = fresh solve at every event"
            QCheck.small_nat memo_agrees_property;
          Alcotest.test_case "the memo property prices a backlog" `Quick
            test_memo_property_prices_a_backlog;
          Alcotest.test_case "hits + solves = price calls" `Quick
            test_memo_telemetry;
        ] );
    ]
