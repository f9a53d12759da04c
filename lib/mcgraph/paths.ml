type spt = {
  source : int;
  dist : float array;
  parent_edge : int array;
  parent : int array;
}

module Obs = Nfv_obs.Obs

(* process-wide Dijkstra work counters; algorithm layers attribute them
   to themselves by diffing [Obs.Counter.value] around a solve *)
let c_runs = Obs.Counter.make "dijkstra.runs"
let c_pops = Obs.Counter.make "dijkstra.heap_pops"
let c_scans = Obs.Counter.make "dijkstra.edges_scanned"
let c_relax = Obs.Counter.make "dijkstra.relaxations"

let dijkstra g ~weight ~source =
  let nn = Graph.n g in
  let c = Graph.csr g in
  let off = c.Graph.off and nbr = c.Graph.nbr and eid = c.Graph.eid in
  let dist = Array.make nn infinity in
  let parent_edge = Array.make nn (-1) in
  let parent = Array.make nn (-1) in
  let heap = Heap.create nn in
  let settled = Array.make nn false in
  (* read the switch once: with stats off the hot loop carries a single
     predictable branch per event, with stats on we count locally and
     publish once at the end *)
  let track = !Obs.enabled in
  let pops = ref 0 and scans = ref 0 and relax = ref 0 in
  dist.(source) <- 0.0;
  Heap.insert heap ~key:source 0.0;
  let rec drain () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (u, du) ->
      if track then incr pops;
      settled.(u) <- true;
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        if track then incr scans;
        if not settled.(v) then begin
          let e = eid.(i) in
          let w = weight e in
          if w < 0.0 then invalid_arg "Paths.dijkstra: negative weight";
          if w < infinity then begin
            let d' = du +. w in
            if d' < dist.(v) then begin
              if track then incr relax;
              dist.(v) <- d';
              parent_edge.(v) <- e;
              parent.(v) <- u;
              Heap.insert_or_decrease heap ~key:v d'
            end
          end
        end
      done;
      drain ()
  in
  drain ();
  if track then begin
    Obs.Counter.incr c_runs;
    Obs.Counter.add c_pops !pops;
    Obs.Counter.add c_scans !scans;
    Obs.Counter.add c_relax !relax
  end;
  { source; dist; parent_edge; parent }

let bellman_ford g ~weight ~source =
  let nn = Graph.n g in
  let dist = Array.make nn infinity in
  let parent_edge = Array.make nn (-1) in
  let parent = Array.make nn (-1) in
  dist.(source) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < nn do
    changed := false;
    incr rounds;
    Graph.iter_edges g (fun e u v ->
        let w = weight e in
        if w < 0.0 then invalid_arg "Paths.bellman_ford: negative weight";
        if w < infinity then begin
          if dist.(u) +. w < dist.(v) then begin
            dist.(v) <- dist.(u) +. w;
            parent_edge.(v) <- e;
            parent.(v) <- u;
            changed := true
          end;
          if dist.(v) +. w < dist.(u) then begin
            dist.(u) <- dist.(v) +. w;
            parent_edge.(u) <- e;
            parent.(u) <- v;
            changed := true
          end
        end)
  done;
  { source; dist; parent_edge; parent }

let path_edges_onto spt target acc =
  if spt.dist.(target) = infinity then invalid_arg "Paths.path_edges_onto: unreachable";
  let rec walk v acc =
    if v = spt.source then acc
    else walk spt.parent.(v) (spt.parent_edge.(v) :: acc)
  in
  walk target acc

let path_edges _g spt target =
  if spt.dist.(target) = infinity then None
  else Some (path_edges_onto spt target [])

let path_nodes _g spt target =
  if spt.dist.(target) = infinity then None
  else begin
    let rec walk v acc =
      if v = spt.source then v :: acc else walk spt.parent.(v) (v :: acc)
    in
    Some (walk target [])
  end

let path_cost ~weight edges =
  List.fold_left (fun acc e -> acc +. weight e) 0.0 edges

type apsp = {
  d : float array array;
  pe : int array array;
  pn : int array array;
}

let all_pairs g ~weight =
  let nn = Graph.n g in
  let d = Array.make nn [||] in
  let pe = Array.make nn [||] in
  let pn = Array.make nn [||] in
  for s = 0 to nn - 1 do
    let spt = dijkstra g ~weight ~source:s in
    d.(s) <- spt.dist;
    pe.(s) <- spt.parent_edge;
    pn.(s) <- spt.parent
  done;
  { d; pe; pn }

let apsp_dist a u v = a.d.(u).(v)

let apsp_path a u v =
  if a.d.(u).(v) = infinity then None
  else begin
    let rec walk x acc =
      if x = u then acc else walk a.pn.(u).(x) (a.pe.(u).(x) :: acc)
    in
    Some (walk v [])
  end
