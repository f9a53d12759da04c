(* Shared helpers for the test suites. *)

module G = Mcgraph.Graph
module Rng = Topology.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A connected random graph from a seed: n in [lo, hi], extra edges over a
   random spanning tree. Returns the graph and the rng used (advanced), so
   callers can draw more randomness deterministically. *)
let random_connected_graph seed ~lo ~hi =
  let rng = Rng.create seed in
  let n = Rng.int_range rng lo hi in
  let g = G.create n in
  for v = 1 to n - 1 do
    ignore (G.add_edge g v (Rng.int rng v))
  done;
  let extra = Rng.int rng (2 * n) in
  let added = ref 0 and guard = ref 0 in
  while !added < extra && !guard < 20 * extra + 20 do
    incr guard;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (G.mem_edge g u v) then begin
      ignore (G.add_edge g u v);
      incr added
    end
  done;
  (g, rng)

(* random positive weights for a graph's edges *)
let random_weights rng g =
  Array.init (G.m g) (fun _ -> Rng.float_range rng 0.1 10.0)

let weight_fn w e = w.(e)

(* a small random SDN network for end-to-end properties *)
let random_network seed ~lo ~hi =
  let rng = Rng.create seed in
  let n = Rng.int_range rng lo hi in
  let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n in
  let net = Sdn.Network.make_random_servers ~fraction:0.2 ~rng topo in
  (net, rng)

let random_request rng net ~id = Workload.Gen.request rng net ~id

(* checks that an edge set forms a tree (acyclic and connected) *)
let is_tree g edges =
  match edges with
  | [] -> true
  | e :: _ ->
    let u, _ = G.endpoints g e in
    (match Mcgraph.Tree.of_edges g ~root:u edges with
    | (_ : Mcgraph.Tree.t) -> true
    | exception Invalid_argument _ -> false)

let check_float = Alcotest.float 1e-6

let assert_close ?(eps = 1e-6) msg a b =
  if Float.abs (a -. b) > eps *. (1.0 +. Float.abs a +. Float.abs b) then
    Alcotest.failf "%s: %.9g <> %.9g" msg a b

(* a random network whose link and server unit costs are drawn from
   {1, 2}: equal-cost paths and equal-cost trees are everywhere *)
let tie_network seed ~lo ~hi =
  let g, rng = random_connected_graph seed ~lo ~hi in
  let n = G.n g and m = G.m g in
  let unit_cost () = float_of_int (1 + Rng.int rng 2) in
  let servers =
    List.map
      (fun v -> (v, 1e6, unit_cost ()))
      (Rng.sample_without_replacement rng (max 1 (n / 4)) n)
  in
  let net =
    Sdn.Network.make_explicit
      ~topology:(Topology.Topo.make ~name:"ties" g)
      ~servers ~link_capacities:(Array.make m 1e6)
      ~link_unit_costs:(Array.init m (fun _ -> unit_cost ()))
      ()
  in
  (net, rng)

(* equal as IEEE bit patterns, not merely within a tolerance *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
