let weight_of ~weight edges =
  List.fold_left (fun acc e -> acc +. weight e) 0.0 edges

(* infinite-weight edges are skipped; a stable sort of positions keeps
   equal weights in input order *)
let kruskal_edges g ~weight edge_ids =
  let ids = Array.of_list edge_ids in
  let ws = Array.map weight ids in
  let order = Array.init (Array.length ids) Fun.id in
  Array.stable_sort (fun a b -> Float.compare ws.(a) ws.(b)) order;
  let uf = Union_find.create (Graph.n g) in
  let picked = ref [] in
  Array.iter
    (fun i ->
      if ws.(i) <> infinity then begin
        let u, v = Graph.endpoints g ids.(i) in
        if Union_find.union uf u v then picked := ids.(i) :: !picked
      end)
    order;
  List.rev !picked

let kruskal g ~weight =
  let ids = List.init (Graph.m g) Fun.id in
  kruskal_edges g ~weight ids

let kruskal_subset g ~weight ~edges = kruskal_edges g ~weight edges

let prim g ~weight ~root =
  let nn = Graph.n g in
  let in_tree = Array.make nn false in
  let best_edge = Array.make nn (-1) in
  let heap = Heap.create nn in
  let picked = ref [] in
  in_tree.(root) <- true;
  let relax u =
    Graph.iter_neighbors g u (fun v e ->
        let w = weight e in
        if (not in_tree.(v)) && w < infinity then
          match Heap.priority heap v with
          | Some p when p <= w -> ()
          | _ ->
            Heap.insert_or_decrease heap ~key:v w;
            best_edge.(v) <- e)
  in
  relax root;
  let rec drain () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (v, _) ->
      if not in_tree.(v) then begin
        in_tree.(v) <- true;
        picked := best_edge.(v) :: !picked;
        relax v
      end;
      drain ()
  in
  drain ();
  List.rev !picked

let prim_metric ~points ~dist =
  let t = Array.length points in
  if t <= 1 then Some []
  else begin
    let in_tree = Array.make t false in
    let best = Array.make t infinity in
    let best_from = Array.make t (-1) in
    in_tree.(0) <- true;
    (* [dist a] is applied once per point that still has points to relax,
       so a staged metric does its per-source work there, and only for
       sources an unstaged scan would have queried *)
    let d0 = dist points.(0) in
    for j = 1 to t - 1 do
      best.(j) <- d0 points.(j);
      best_from.(j) <- 0
    done;
    let edges = ref [] in
    let ok = ref true in
    for step = 1 to t - 1 do
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
          if step < t - 1 then begin
            let dj = dist points.(j) in
            for k = 0 to t - 1 do
              if not in_tree.(k) then begin
                let w = dj points.(k) in
                if w < best.(k) then begin
                  best.(k) <- w;
                  best_from.(k) <- j
                end
              end
            done
          end
        end
      end
    done;
    if !ok then Some (List.rev !edges) else None
  end
