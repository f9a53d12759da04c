let tree_cost ~weight edges =
  List.fold_left (fun acc e -> acc +. weight e) 0.0 edges

(* first occurrence of each edge id, in list order; a byte per edge id
   of [g] marks the ids already seen *)
let dedup_edges g edges =
  let seen = Bytes.make (Graph.m g) '\000' in
  List.filter
    (fun e ->
      if Bytes.get seen e <> '\000' then false
      else begin
        Bytes.set seen e '\001';
        true
      end)
    edges

(* Leaf peeling on node-indexed arrays. [inc.(x)] is the xor of the ids
   of [x]'s live edges, so a node of degree one names its last edge
   without an incidence list. Peeling is confluent (a removable edge
   stays removable until it is removed), so the surviving set does not
   depend on the order leaves are taken in. *)
let prune g ~terminals edges =
  let n = Graph.n g in
  let terminal = Bytes.make n '\000' in
  List.iter (fun t -> if t >= 0 && t < n then Bytes.set terminal t '\001') terminals;
  let degree = Array.make n 0 and inc = Array.make n 0 in
  let attach e =
    let u, v = Graph.endpoints g e in
    degree.(u) <- degree.(u) + 1;
    degree.(v) <- degree.(v) + 1;
    inc.(u) <- inc.(u) lxor e;
    inc.(v) <- inc.(v) lxor e
  in
  List.iter attach edges;
  let dead = Bytes.make (Graph.m g) '\000' in
  let rec peel x =
    if degree.(x) = 1 && Bytes.get terminal x = '\000' then begin
      let e = inc.(x) in
      let u, v = Graph.endpoints g e in
      Bytes.set dead e '\001';
      degree.(u) <- degree.(u) - 1;
      degree.(v) <- degree.(v) - 1;
      inc.(u) <- inc.(u) lxor e;
      inc.(v) <- inc.(v) lxor e;
      peel (if u = x then v else u)
    end
  in
  List.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      peel u;
      peel v)
    edges;
  List.filter (fun e -> Bytes.get dead e = '\000') edges

(* Shared core of both KMB variants: given a sorted unique terminal list
   and a metric closure with path extraction, build an MST over the
   closure, expand its edges into shortest paths, re-run an MST on the
   expanded subgraph and prune non-terminal leaves. *)
let kmb_core g ~weight ~terminals ~dist ~path =
  let points = Array.of_list terminals in
  match Mst.prim_metric ~points ~dist with
  | None -> None
  | Some closure_mst ->
    let expanded =
      List.concat_map
        (fun (a, b) ->
          match path a b with
          | Some edges -> edges
          | None -> invalid_arg "Steiner.kmb: metric/path disagree")
        closure_mst
    in
    let subgraph = dedup_edges g expanded in
    let mst2 = Mst.kruskal_subset g ~weight ~edges:subgraph in
    Some (prune g ~terminals mst2)

let kmb g ~weight ~terminals =
  match List.sort_uniq Int.compare terminals with
  | [] | [ _ ] -> Some []
  | uniq ->
    let spts = List.map (fun t -> (t, Paths.dijkstra g ~weight ~source:t)) uniq in
    let spt_of = Hashtbl.create 16 in
    List.iter (fun (t, spt) -> Hashtbl.replace spt_of t spt) spts;
    let dist u v =
      match Hashtbl.find_opt spt_of u with
      | Some spt -> spt.Paths.dist.(v)
      | None -> invalid_arg "Steiner.kmb: dist outside terminal set"
    in
    let path u v =
      let spt = Hashtbl.find spt_of u in
      Paths.path_edges g spt v
    in
    kmb_core g ~weight ~terminals:uniq ~dist ~path

let kmb_with_metric g ~weight ~terminals ~dist ~path =
  match List.sort_uniq Int.compare terminals with
  | [] | [ _ ] -> Some []
  | uniq -> kmb_core g ~weight ~terminals:uniq ~dist ~path

let is_steiner_tree g ~terminals edges =
  match List.sort_uniq compare terminals with
  | [] -> edges = []
  | root :: _ as uniq -> (
    match Tree.of_edges g ~root edges with
    | tree -> List.for_all (Tree.mem tree) uniq
    | exception Invalid_argument _ -> false)

(* Dreyfus–Wagner dynamic program. [dp.(mask).(v)] is the minimum cost of
   a tree spanning the terminals selected by [mask] plus node [v]. Masks
   are processed in increasing popcount order: first merge two sub-trees
   at [v], then propagate along shortest paths (a Dijkstra over the dp
   row, here done with the dense metric since test instances are small).
   Choices are recorded for tree reconstruction. *)
type dw_choice =
  | Dw_leaf
  | Dw_merge of int                  (* submask kept at the same node *)
  | Dw_move of int                   (* predecessor node, same mask *)

let exact g ~weight ~terminals =
  let uniq = List.sort_uniq compare terminals in
  let t = List.length uniq in
  if t > 15 then invalid_arg "Steiner.exact: too many terminals";
  if t <= 1 then Some []
  else begin
    let nn = Graph.n g in
    let terms = Array.of_list uniq in
    (* only distances/paths from the ≤15 terminals are consulted, so run
       one Dijkstra per terminal rather than eager all-pairs *)
    let term_spt =
      Array.map (fun t -> Paths.dijkstra g ~weight ~source:t) terms
    in
    let full = (1 lsl t) - 1 in
    let dp = Array.make_matrix (full + 1) nn infinity in
    let choice = Array.make_matrix (full + 1) nn Dw_leaf in
    for i = 0 to t - 1 do
      for v = 0 to nn - 1 do
        dp.(1 lsl i).(v) <- term_spt.(i).Paths.dist.(v);
        choice.(1 lsl i).(v) <- Dw_leaf
      done
    done;
    let masks = List.init full (fun i -> i + 1) in
    let by_popcount =
      List.sort
        (fun a b ->
          let pc x =
            let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
            go x 0
          in
          compare (pc a) (pc b))
        masks
    in
    List.iter
      (fun mask ->
        if mask land (mask - 1) <> 0 then begin
          (* merge step: combine two disjoint submasks at a common node *)
          for v = 0 to nn - 1 do
            let sub = ref ((mask - 1) land mask) in
            while !sub > 0 do
              if !sub < mask - !sub then begin
                let c = dp.(!sub).(v) +. dp.(mask - !sub).(v) in
                if c < dp.(mask).(v) then begin
                  dp.(mask).(v) <- c;
                  choice.(mask).(v) <- Dw_merge !sub
                end
              end;
              sub := (!sub - 1) land mask
            done
          done;
          (* move step: Bellman–Ford-style relaxation over the metric *)
          let changed = ref true in
          while !changed do
            changed := false;
            Graph.iter_edges g (fun e a b ->
                let w = weight e in
                if w < infinity then begin
                  if dp.(mask).(a) +. w < dp.(mask).(b) then begin
                    dp.(mask).(b) <- dp.(mask).(a) +. w;
                    choice.(mask).(b) <- Dw_move a;
                    changed := true
                  end;
                  if dp.(mask).(b) +. w < dp.(mask).(a) then begin
                    dp.(mask).(a) <- dp.(mask).(b) +. w;
                    choice.(mask).(a) <- Dw_move b;
                    changed := true
                  end
                end)
          done
        end)
      by_popcount;
    (* best attachment node for the full terminal set *)
    let best = ref (-1) in
    for v = 0 to nn - 1 do
      if !best < 0 || dp.(full).(v) < dp.(full).(!best) then best := v
    done;
    if dp.(full).(!best) = infinity then None
    else begin
      (* reconstruct the edge multiset; shortest-path legs come from APSP *)
      let edges = ref [] in
      let rec rebuild mask v =
        match choice.(mask).(v) with
        | Dw_leaf ->
          let i =
            let rec find i = if mask = 1 lsl i then i else find (i + 1) in
            find 0
          in
          (match Paths.path_edges g term_spt.(i) v with
          | Some path -> edges := path @ !edges
          | None -> assert false)
        | Dw_merge sub ->
          rebuild sub v;
          rebuild (mask - sub) v
        | Dw_move u ->
          (match Graph.find_edge g u v with
          | Some e ->
            (* several parallel edges may join u and v; pick the cheapest *)
            let e =
              List.fold_left
                (fun acc (w', e') -> if w' = v && weight e' < weight acc then e' else acc)
                e
                (Graph.neighbors g u)
            in
            edges := e :: !edges
          | None -> assert false);
          rebuild mask u
      in
      rebuild full !best;
      (* Distinct shortest-path legs may overlap and close cycles; an MST
         of the collected subgraph restores a tree without raising the
         cost above the (optimal) dp value. *)
      let uniq_edges = dedup_edges g !edges in
      let tree = Mst.kruskal_subset g ~weight ~edges:uniq_edges in
      Some (prune g ~terminals:uniq tree)
    end
  end
