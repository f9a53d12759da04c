module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine

type t = {
  req : Sdn.Request.t;
  ext : G.t;
  vnode : int;
  base_m : int;
  vedge_of_server : int array;              (* base node -> virtual edge id, or -1 *)
  server_of_vedge : int array;              (* vedge id - base_m -> server *)
  wv : float array;                         (* candidate -> virtual edge weight *)
  base_w : float array;                     (* base edge -> b·c_e, pruned *)
  engine : Sp.t;                            (* base graph, weight b·c_e, pruned *)
  candidates : int list;
  spts : Paths.spt option array;            (* base node -> engine tree, read once *)
}

(* [v]'s shortest-path tree, taken from the engine on first use and kept:
   every later distance or path query from [v] reads these arrays *)
let spt t v =
  match t.spts.(v) with
  | Some tree -> tree
  | None ->
    let tree = Sp.spt t.engine v in
    t.spts.(v) <- Some tree;
    tree

let base_dist t u v = (spt t u).Paths.dist.(v)
let base_path t u v = Paths.path_edges (Sp.graph t.engine) (spt t u) v

let build ?(keep = fun _ -> true) ?edge_weight ?placement_cost ?engine ~net
    ~request ~candidate_servers () =
  let g = Sdn.Network.graph net in
  let nn = G.n g and mm = G.m g in
  let ext = G.create (nn + 1) in
  G.iter_edges g (fun _ u v -> ignore (G.add_edge ext u v));
  let vedge_of_server = Array.make nn (-1) in
  let server_of_vedge = Array.make (max (List.length candidate_servers) 1) (-1) in
  List.iteri
    (fun i v ->
      let e = G.add_edge ext nn v in
      vedge_of_server.(v) <- e;
      server_of_vedge.(i) <- v)
    candidate_servers;
  let edge_weight =
    match edge_weight with
    | Some w -> w
    | None ->
      fun e -> request.Sdn.Request.bandwidth *. Sdn.Network.link_unit_cost net e
  in
  let placement_cost =
    match placement_cost with
    | Some c -> c
    | None -> fun v -> Sdn.Network.chain_cost net v request.Sdn.Request.chain
  in
  let pruned_weight e = if keep e then edge_weight e else infinity in
  (* lazy per-source engine instead of eager all-pairs: only the request
     source, the candidate servers and the queried destinations ever get
     a Dijkstra tree. Bound to the network's weight epoch so residual-
     dependent [keep]/[edge_weight] closures invalidate after allocate.
     A caller that can prove weight-function equality across requests
     (Appro_multi over an Sp_window) acquires a shared engine instead. *)
  let engine =
    match engine with
    | Some acquire -> acquire ~weight:pruned_weight
    | None ->
      Sp.create g ~weight:pruned_weight
        ~epoch:(fun () -> Sdn.Network.weight_epoch net)
  in
  let t =
    {
      req = request;
      ext;
      vnode = nn;
      base_m = mm;
      vedge_of_server;
      server_of_vedge;
      wv = Array.make nn infinity;
      base_w = Array.init mm pruned_weight;
      engine;
      candidates = candidate_servers;
      spts = Array.make (max nn 1) None;
    }
  in
  let s = request.Sdn.Request.source in
  List.iter
    (fun v ->
      let d = base_dist t s v in
      let w =
        if d = infinity then infinity
        else d +. placement_cost v
      in
      t.wv.(v) <- w)
    candidate_servers;
  t

let ext_graph t = t.ext
let virtual_node t = t.vnode
let base_edge_count t = t.base_m
let is_virtual_edge t e = e >= t.base_m
let server_of_virtual_edge t e =
  if not (is_virtual_edge t e) then invalid_arg "Aux_graph: not a virtual edge";
  t.server_of_vedge.(e - t.base_m)

let is_candidate t v =
  v >= 0 && v < Array.length t.vedge_of_server && t.vedge_of_server.(v) >= 0

let virtual_edge_of_server t v =
  if is_candidate t v then Some t.vedge_of_server.(v) else None

let virtual_edge_weight t v =
  if is_candidate t v then t.wv.(v)
  else invalid_arg "Aux_graph.virtual_edge_weight: not a candidate"

let reachable_servers t =
  List.filter (fun v -> virtual_edge_weight t v < infinity) t.candidates

let engine t = t.engine

(* ------------------------------------------------------------------ *)
(* subset metric: exact hub decomposition                               *)

type hub_move =
  | Base_leg                  (* shortest base path between the two hubs *)
  | Special of int            (* a single special edge id *)
  | Via of int                (* intermediate hub index (Floyd) *)

(* Hub 1 is always the virtual node s'_k; it has no base row and is
   skipped wherever a base leg is needed. *)
type subset_metric = {
  aux : t;
  subset : int list;
  hubs : int array;           (* node ids; hubs.(0) = s_k, hubs.(1) = s'_k *)
  hub_of : int array;         (* extended node -> its first hub index, or -1 *)
  hub_row : float array array; (* hubs.(i)'s distance row; [||] at s'_k *)
  hd : float array array;     (* hub-to-hub exact distances *)
  hmove : hub_move array array;
}

let weight sm e =
  let t = sm.aux in
  if is_virtual_edge t e then begin
    let v = server_of_virtual_edge t e in
    if List.exists (fun u -> u = v) sm.subset then virtual_edge_weight t v
    else infinity
  end
  else t.base_w.(e)

let subset_metric t subset =
  List.iter
    (fun v ->
      if not (is_candidate t v) then
        invalid_arg "Aux_graph.subset_metric: not a candidate server")
    subset;
  let hubs = Array.of_list (t.req.Sdn.Request.source :: t.vnode :: subset) in
  let h = Array.length hubs in
  let hub_of = Array.make (t.vnode + 1) (-1) in
  for i = h - 1 downto 0 do
    hub_of.(hubs.(i)) <- i
  done;
  let hub_row =
    Array.map (fun hv -> if hv = t.vnode then [||] else (spt t hv).Paths.dist) hubs
  in
  let hd = Array.make_matrix h h infinity in
  let hmove = Array.make_matrix h h Base_leg in
  (* direct moves: base legs between base hubs, virtual edges
     (s'_k ↔ subset server) *)
  for i = 0 to h - 1 do
    hd.(i).(i) <- 0.0;
    for j = 0 to h - 1 do
      if i <> j && i <> 1 && j <> 1 then hd.(i).(j) <- hub_row.(i).(hubs.(j))
    done
  done;
  let set_special i j w e =
    if w < hd.(i).(j) then begin
      hd.(i).(j) <- w;
      hd.(j).(i) <- w;
      hmove.(i).(j) <- Special e;
      hmove.(j).(i) <- Special e
    end
  in
  for j = 2 to h - 1 do
    let hj = hubs.(j) in
    set_special 1 j t.wv.(hj) t.vedge_of_server.(hj)
  done;
  (* Floyd–Warshall over the hubs *)
  for k = 0 to h - 1 do
    for i = 0 to h - 1 do
      for j = 0 to h - 1 do
        if hd.(i).(k) +. hd.(k).(j) < hd.(i).(j) then begin
          hd.(i).(j) <- hd.(i).(k) +. hd.(k).(j);
          hmove.(i).(j) <- Via k
        end
      done
    done
  done;
  { aux = t; subset; hubs; hub_of; hub_row; hd; hmove }

(* [lead sm rx], for the row [rx] of a base node [x] that is not a hub,
   is the factored first half of every hub route out of [x]:
   [(lead sm rx).(j) = min_i (rx.(h_i) +. hd.(i).(j))] over the base
   hubs [i]. Rounding to nearest is monotone, so
   [min_i fl (p_i +. r) = fl (min_i p_i +. r)]: adding a leg to the
   factored minimum gives the bits of the unfactored pairwise minimum
   (DESIGN.md §17). *)
let lead sm rx =
  let h = Array.length sm.hubs in
  let a = Array.make h infinity in
  for i = 0 to h - 1 do
    if i <> 1 then begin
      let ri = rx.(sm.hubs.(i)) and hdi = sm.hd.(i) in
      for j = 0 to h - 1 do
        let c = ri +. hdi.(j) in
        if c < a.(j) then a.(j) <- c
      done
    end
  done;
  a

(* distance between extended nodes; hubs.(1) is the virtual node. Staged:
   [dist sm x] does the per-source work once (hub lookup, [x]'s row and
   lead), and the returned closure answers each [y] in O(h). *)
let dist sm x =
  let h = Array.length sm.hubs and hub_row = sm.hub_row and hub_of = sm.hub_of in
  let ix = hub_of.(x) in
  if ix >= 0 then begin
    let hdx = sm.hd.(ix) in
    fun y ->
      let iy = hub_of.(y) in
      if iy >= 0 then hdx.(iy)
      else begin
        let best = ref infinity in
        for j = 0 to h - 1 do
          if j <> 1 then begin
            let c = hdx.(j) +. hub_row.(j).(y) in
            if c < !best then best := c
          end
        done;
        !best
      end
  end
  else begin
    let rx = (spt sm.aux x).Paths.dist in
    let a = lead sm rx in
    fun y ->
      let iy = hub_of.(y) in
      if iy >= 0 then a.(iy)
      else begin
        let best = ref rx.(y) in
        for j = 0 to h - 1 do
          if j <> 1 then begin
            let c = a.(j) +. hub_row.(j).(y) in
            if c < !best then best := c
          end
        done;
        !best
      end
  end

(* the base leg [a → b] in travel order, prepended onto [acc] *)
let leg t a b acc = Paths.path_edges_onto (spt t a) b acc

(* expand the hub-level move (i, j) into concrete edge ids *)
let rec expand_hub sm i j acc =
  if i = j then acc
  else
    match sm.hmove.(i).(j) with
    | Special e -> e :: acc
    | Base_leg -> leg sm.aux sm.hubs.(i) sm.hubs.(j) acc
    | Via k -> expand_hub sm i k (expand_hub sm k j acc)

(* [path] keeps the unfactored scan: its argmin order (the direct leg
   first, then hub pairs i-major, j-minor, first strict minimum) picks
   among equal-cost routes, and it runs only once per closure MST edge.
   Its minimum is the same set of sums as [dist]'s, so an infinite
   minimum means [y] is unreachable. *)
let path sm x y =
  let t = sm.aux in
  if x = y then Some []
  else begin
    let h = Array.length sm.hubs in
    let ix = sm.hub_of.(x) and iy = sm.hub_of.(y) in
    (* recompute the argmin of [dist] and expand it *)
    let best = ref infinity and choice = ref `None in
    if ix >= 0 && iy >= 0 then begin
      best := sm.hd.(ix).(iy);
      choice := `Hub (ix, iy)
    end
    else if ix >= 0 then begin
      for j = 0 to h - 1 do
        if j <> 1 then begin
          let c = sm.hd.(ix).(j) +. sm.hub_row.(j).(y) in
          if c < !best then begin
            best := c;
            choice := `From_hub (ix, j)
          end
        end
      done
    end
    else if iy >= 0 then begin
      let rx = (spt t x).Paths.dist in
      for i = 0 to h - 1 do
        if i <> 1 then begin
          let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(iy) in
          if c < !best then begin
            best := c;
            choice := `To_hub (i, iy)
          end
        end
      done
    end
    else begin
      let rx = (spt t x).Paths.dist in
      best := rx.(y);
      choice := `Direct;
      for i = 0 to h - 1 do
        if i <> 1 then
          for j = 0 to h - 1 do
            if j <> 1 then begin
              let c =
                rx.(sm.hubs.(i))
                +. sm.hd.(i).(j)
                +. sm.hub_row.(j).(y)
              in
              if c < !best then begin
                best := c;
                choice := `Through (i, j)
              end
            end
          done
      done
    end;
    if !best = infinity then None
    else
      Some
        (match !choice with
        | `None -> invalid_arg "Aux_graph.path: unreachable"
        | `Direct -> leg t x y []
        | `Hub (i, j) -> expand_hub sm i j []
        | `From_hub (i, j) -> expand_hub sm i j (leg t sm.hubs.(j) y [])
        | `To_hub (i, j) -> leg t x sm.hubs.(i) (expand_hub sm i j [])
        | `Through (i, j) ->
          leg t x sm.hubs.(i) (expand_hub sm i j (leg t sm.hubs.(j) y [])))
  end

let steiner_tree sm =
  let t = sm.aux in
  let terminals = t.vnode :: t.req.Sdn.Request.destinations in
  Mcgraph.Steiner.kmb_with_metric t.ext ~weight:(weight sm) ~terminals
    ~dist:(dist sm) ~path:(path sm)

let tree_cost sm edges =
  List.fold_left (fun acc e -> acc +. weight sm e) 0.0 edges

let to_pseudo_tree t tree_edges =
  let req = t.req in
  let tree = Mcgraph.Tree.of_edges t.ext ~root:t.vnode tree_edges in
  let servers = ref [] in
  let uses = ref [] in
  List.iter
    (fun e ->
      if is_virtual_edge t e then begin
        let v = server_of_virtual_edge t e in
        servers := v :: !servers;
        match base_path t req.Sdn.Request.source v with
        | Some p -> uses := p @ !uses
        | None -> invalid_arg "Aux_graph.to_pseudo_tree: unreachable server"
      end
      else uses := e :: !uses)
    tree_edges;
  if !servers = [] then invalid_arg "Aux_graph.to_pseudo_tree: no server in tree";
  let route_of d =
    if not (Mcgraph.Tree.mem tree d) then
      invalid_arg "Aux_graph.to_pseudo_tree: destination not spanned";
    let down = List.rev (Mcgraph.Tree.path_up tree d ~ancestor:t.vnode) in
    match down with
    | first :: onward when is_virtual_edge t first ->
      let v = server_of_virtual_edge t first in
      let to_server =
        match base_path t req.Sdn.Request.source v with
        | Some p -> p
        | None -> assert false
      in
      (d, { Pseudo_tree.to_server; server = v; onward })
    | _ -> invalid_arg "Aux_graph.to_pseudo_tree: path does not start virtually"
  in
  let routes = List.map route_of req.Sdn.Request.destinations in
  Pseudo_tree.make ~request:req ~servers:!servers
    ~edge_uses:(Pseudo_tree.edge_uses_of_list !uses)
    ~routes

let materialize t ~subset =
  let sm = subset_metric t subset in
  (t.ext, weight sm)
