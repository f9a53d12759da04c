(* Slow references for the dense Appro_Multi subset loop. These are the
   former library implementations, kept verbatim in spirit: Hashtbl leaf
   peeling and dedup, a polymorphic-compare Kruskal, and the unfactored
   hub-scan metric of [Aux_graph] that queries the shortest-path engine
   on every call. The equivalence properties run the library against
   them bit for bit. *)

module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Aux = Nfv_multicast.Aux_graph

(* ---- KMB pieces ---------------------------------------------------- *)

let dedup_edges edges =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.add seen e ();
        true
      end)
    edges

let prune g ~terminals edges =
  let is_terminal = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace is_terminal t ()) terminals;
  let degree = Hashtbl.create 16 in
  let bump v d =
    let cur = Option.value (Hashtbl.find_opt degree v) ~default:0 in
    Hashtbl.replace degree v (cur + d)
  in
  let live = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace live e ();
      let u, v = G.endpoints g e in
      bump u 1;
      bump v 1)
    edges;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun e () ->
        let u, v = G.endpoints g e in
        let removable x =
          Hashtbl.find degree x = 1 && not (Hashtbl.mem is_terminal x)
        in
        if removable u || removable v then begin
          Hashtbl.remove live e;
          bump u (-1);
          bump v (-1);
          changed := true
        end)
      (Hashtbl.copy live)
  done;
  List.filter (Hashtbl.mem live) edges

let kruskal_subset g ~weight ~edges =
  let weighted =
    List.filter_map
      (fun e ->
        let w = weight e in
        if w = infinity then None else Some (w, e))
      edges
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) weighted in
  let uf = Mcgraph.Union_find.create (G.n g) in
  List.map snd
    (List.filter
       (fun (_, e) ->
         let u, v = G.endpoints g e in
         Mcgraph.Union_find.union uf u v)
       sorted)

let prim_metric ~points ~dist =
  let t = Array.length points in
  if t = 0 then Some []
  else begin
    let in_tree = Array.make t false in
    let best = Array.make t infinity in
    let best_from = Array.make t (-1) in
    in_tree.(0) <- true;
    for j = 1 to t - 1 do
      best.(j) <- dist points.(0) points.(j);
      best_from.(j) <- 0
    done;
    let edges = ref [] in
    let ok = ref true in
    for _ = 1 to t - 1 do
      if !ok then begin
        let pick = ref (-1) in
        for j = 0 to t - 1 do
          if (not in_tree.(j)) && (!pick < 0 || best.(j) < best.(!pick)) then
            pick := j
        done;
        if !pick < 0 || best.(!pick) = infinity then ok := false
        else begin
          let j = !pick in
          in_tree.(j) <- true;
          edges := (points.(best_from.(j)), points.(j)) :: !edges;
          for k = 0 to t - 1 do
            if not in_tree.(k) then begin
              let w = dist points.(j) points.(k) in
              if w < best.(k) then begin
                best.(k) <- w;
                best_from.(k) <- j
              end
            end
          done
        end
      end
    done;
    if !ok then Some (List.rev !edges) else None
  end

let kmb_with_metric g ~weight ~terminals ~dist ~path =
  match List.sort_uniq compare terminals with
  | [] | [ _ ] -> Some []
  | uniq -> (
    match prim_metric ~points:(Array.of_list uniq) ~dist with
    | None -> None
    | Some closure_mst ->
      let expanded =
        List.concat_map
          (fun (a, b) ->
            match path a b with
            | Some edges -> edges
            | None -> invalid_arg "Reference.kmb: metric/path disagree")
          closure_mst
      in
      let mst2 = kruskal_subset g ~weight ~edges:(dedup_edges expanded) in
      Some (prune g ~terminals:uniq mst2))

let kmb g ~weight ~terminals =
  let spt_of = Hashtbl.create 16 in
  let spt u =
    match Hashtbl.find_opt spt_of u with
    | Some s -> s
    | None ->
      let s = Paths.dijkstra g ~weight ~source:u in
      Hashtbl.replace spt_of u s;
      s
  in
  kmb_with_metric g ~weight ~terminals
    ~dist:(fun u v -> (spt u).Paths.dist.(v))
    ~path:(fun u v -> Paths.path_edges g (spt u) v)

(* ---- the unfactored hub metric ------------------------------------- *)

type hub_move = Base_leg | Special of int | Via of int

type subset_metric = {
  aux : Aux.t;
  base_weight : int -> float;
  subset : int list;
  hubs : int array;
  hub_row : float array array;
  hd : float array array;
  hmove : hub_move array array;
}

let engine sm = Aux.engine sm.aux
let vnode sm = Aux.virtual_node sm.aux

let weight sm e =
  if Aux.is_virtual_edge sm.aux e then begin
    let v = Aux.server_of_virtual_edge sm.aux e in
    if List.mem v sm.subset then Aux.virtual_edge_weight sm.aux v else infinity
  end
  else sm.base_weight e

let subset_metric aux ~source ~base_weight subset =
  let vn = Aux.virtual_node aux in
  let hubs = Array.of_list (source :: vn :: subset) in
  let h = Array.length hubs in
  let eng = Aux.engine aux in
  let hub_row =
    Array.map (fun hv -> if hv = vn then [||] else (Sp.spt eng hv).Paths.dist) hubs
  in
  let hd = Array.make_matrix h h infinity in
  let hmove = Array.make_matrix h h Base_leg in
  for i = 0 to h - 1 do
    hd.(i).(i) <- 0.0;
    for j = 0 to h - 1 do
      if i <> j && hubs.(i) <> vn && hubs.(j) <> vn then
        hd.(i).(j) <- hub_row.(i).(hubs.(j))
    done
  done;
  Array.iteri
    (fun j hj ->
      if j >= 2 then
        match Aux.virtual_edge_of_server aux hj with
        | Some e ->
          let w = Aux.virtual_edge_weight aux hj in
          if w < hd.(1).(j) then begin
            hd.(1).(j) <- w;
            hd.(j).(1) <- w;
            hmove.(1).(j) <- Special e;
            hmove.(j).(1) <- Special e
          end
        | None -> ())
    hubs;
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
  { aux; base_weight; subset; hubs; hub_row; hd; hmove }

let hub_index sm node =
  let h = Array.length sm.hubs in
  let rec find i = if i >= h then -1 else if sm.hubs.(i) = node then i else find (i + 1) in
  find 0

(* the argmin scan shared by [dist] and [path]: the direct leg first,
   then hub pairs i-major, j-minor, first strict minimum *)
let scan sm x y =
  let h = Array.length sm.hubs and vn = vnode sm in
  let ix = hub_index sm x and iy = hub_index sm y in
  let best = ref infinity and choice = ref `None in
  if ix >= 0 && iy >= 0 then begin
    best := sm.hd.(ix).(iy);
    choice := `Hub (ix, iy)
  end
  else if ix >= 0 then begin
    for j = 0 to h - 1 do
      if sm.hubs.(j) <> vn then begin
        let c = sm.hd.(ix).(j) +. sm.hub_row.(j).(y) in
        if c < !best then begin
          best := c;
          choice := `From_hub (ix, j)
        end
      end
    done
  end
  else if iy >= 0 then begin
    let rx = (Sp.spt (engine sm) x).Paths.dist in
    for i = 0 to h - 1 do
      if sm.hubs.(i) <> vn then begin
        let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(iy) in
        if c < !best then begin
          best := c;
          choice := `To_hub (i, iy)
        end
      end
    done
  end
  else begin
    let rx = (Sp.spt (engine sm) x).Paths.dist in
    best := rx.(y);
    choice := `Direct;
    for i = 0 to h - 1 do
      if sm.hubs.(i) <> vn then
        for j = 0 to h - 1 do
          if sm.hubs.(j) <> vn then begin
            let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(j) +. sm.hub_row.(j).(y) in
            if c < !best then begin
              best := c;
              choice := `Through (i, j)
            end
          end
        done
    done
  end;
  (!best, !choice)

let dist sm x y = fst (scan sm x y)

let base_path_exn sm a b =
  match Sp.path (engine sm) a b with
  | Some p -> p
  | None -> invalid_arg "Reference.path: missing base path"

let rec expand_hub sm i j acc =
  if i = j then acc
  else
    match sm.hmove.(i).(j) with
    | Special e -> e :: acc
    | Base_leg -> base_path_exn sm sm.hubs.(i) sm.hubs.(j) @ acc
    | Via k -> expand_hub sm i k (expand_hub sm k j acc)

let path sm x y =
  if dist sm x y = infinity then None
  else if x = y then Some []
  else
    match snd (scan sm x y) with
    | `None -> invalid_arg "Reference.path: unreachable"
    | `Direct -> Some (base_path_exn sm x y)
    | `Hub (i, j) -> Some (expand_hub sm i j [])
    | `From_hub (i, j) -> Some (expand_hub sm i j (base_path_exn sm sm.hubs.(j) y))
    | `To_hub (i, j) -> Some (base_path_exn sm x sm.hubs.(i) @ expand_hub sm i j [])
    | `Through (i, j) ->
      Some
        (base_path_exn sm x sm.hubs.(i)
        @ expand_hub sm i j (base_path_exn sm sm.hubs.(j) y))

let steiner_tree sm ~destinations =
  kmb_with_metric (Aux.ext_graph sm.aux) ~weight:(weight sm)
    ~terminals:(vnode sm :: destinations) ~dist:(dist sm) ~path:(path sm)

let tree_cost sm edges = List.fold_left (fun acc e -> acc +. weight sm e) 0.0 edges

(* ---- Appro_Multi as a plain fold ----------------------------------- *)

(* the uncapacitated [Appro_multi.solve] over every subset of at most
   [k] reachable servers, ranked by cost, then subset size, then the
   subset; [Some (aux_cost, subset, tree)] *)
let appro_solve ?(k = 3) net request =
  let aux =
    Aux.build ~net ~request ~candidate_servers:(Sdn.Network.servers net) ()
  in
  let base_weight e =
    request.Sdn.Request.bandwidth *. Sdn.Network.link_unit_cost net e
  in
  let source = request.Sdn.Request.source in
  let best = ref None in
  Nfv_multicast.Combinations.iter_subsets_up_to (Aux.reachable_servers aux) k
    (fun subset ->
      let sm = subset_metric aux ~source ~base_weight subset in
      match steiner_tree sm ~destinations:request.Sdn.Request.destinations with
      | None -> ()
      | Some edges ->
        let c = tree_cost sm edges in
        let key = (c, List.length subset, subset) in
        if c < infinity then
          match !best with
          | Some (k', _) when compare k' key <= 0 -> ()
          | _ -> best := Some (key, edges));
  Option.map
    (fun ((c, _, subset), edges) -> (c, subset, Aux.to_pseudo_tree aux edges))
    !best
