(* Per-layer metrics read from the library's own Obs instruments after a
   traced run. Span times come from each histogram's exact sum, never
   from its decade-bucket quantiles. A span's self time is its sum minus
   the sums of the span paths nested one level under it ([a] minus every
   [a/b]). *)

module Obs = Nfv_obs.Obs

type metric = { name : string; unit_ : string; value : float }

let counter name = float_of_int (Obs.Counter.value (Obs.Counter.make name))

(* (path, count, sum in seconds) of every histogram that recorded *)
let histograms () =
  List.filter_map
    (function
      | Obs.Export.Histogram { name; count; sum; _ } when count > 0 ->
        Some (name, count, sum)
      | _ -> None)
    (Obs.Export.snapshot ())

let last_segment path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* every call path of a span, summed: [appro_multi.solve] also counts
   [restoration.pass/appro_multi.solve] *)
let span_total hs span =
  List.fold_left
    (fun (n, s) (p, c, x) ->
      if last_segment p = span then (n + c, s +. x) else (n, s))
    (0, 0.0) hs

let at hs path =
  List.fold_left
    (fun (n, s) (p, c, x) -> if p = path then (n + c, s +. x) else (n, s))
    (0, 0.0) hs

let self_seconds hs path =
  let prefix = path ^ "/" in
  let lp = String.length prefix in
  let _, own = at hs path in
  List.fold_left
    (fun acc (p, _, x) ->
      if String.length p > lp
         && String.sub p 0 lp = prefix
         && not (String.contains_from p lp '/')
      then acc -. x
      else acc)
    own hs

let ratio a b = if b > 0.0 then a /. b else 0.0
let ms s = s *. 1000.0

(* The spans a dynamic run's own loop is charged with: arrival
   admissions, the restoration pass and whole repair attempts
   ([repair.attempt] is a plain histogram that covers the
   [repair.patch]/[migrate]/[readmit] spans). *)
let dynamic_children = [ "online_cp.admit"; "restoration.pass"; "repair.attempt" ]

(* [run_seconds]: the dynamic runs' time inside [Dynamic.run] per the
   Obs clock, callbacks excluded; [events]: their top-level events;
   [combinations]: summed from Appro_multi results by the caller *)
let collect ~run_seconds ~events ~combinations ~overhead ~probe_ms =
  let hs = histograms () in
  let c = counter in
  let hits = c "sp_engine.cache_hits" and misses = c "sp_engine.cache_misses" in
  let solves_n, solves_s = span_total hs "appro_multi.solve" in
  let admits_n, admits_s = span_total hs "online_cp.admit" in
  let passes_n, passes_s = at hs "restoration.pass" in
  let pass_solves, _ = at hs "restoration.pass/appro_multi.solve" in
  let _, repair_s = at hs "repair.attempt" in
  let rejected =
    List.fold_left
      (fun acc m ->
        match m with
        | Obs.Export.Counter (name, v)
          when String.length name > 19
               && String.sub name 0 19 = "online_cp.rejected." ->
          acc +. float_of_int v
        | _ -> acc)
      0.0 (Obs.Export.snapshot ())
  in
  let dyn_self =
    if events = 0 then 0.0
    else
      List.fold_left
        (fun acc p -> acc -. snd (at hs p))
        run_seconds dynamic_children
  in
  let count name value = { name; unit_ = "count"; value } in
  let time name seconds = { name; unit_ = "ms"; value = ms seconds } in
  let frac name value = { name; unit_ = "ratio"; value } in
  [
    count "dijkstra.runs" (c "dijkstra.runs");
    count "dijkstra.relaxations" (c "dijkstra.relaxations");
    count "dijkstra.heap_pops" (c "dijkstra.heap_pops");
    count "sp_engine.cache_hits" hits;
    count "sp_engine.cache_misses" misses;
    frac "sp_engine.hit_ratio" (ratio hits (hits +. misses));
    count "sp_engine.evictions" (c "sp_engine.evictions");
    count "sp_window.engine_creates" (c "sp_window.engine_creates");
    count "sp_window.engine_reuses" (c "sp_window.engine_reuses");
    count "appro_multi.solves" (float_of_int solves_n);
    time "appro_multi.solve_ms" solves_s;
    count "appro_multi.dijkstras" (c "appro_multi.dijkstras");
    count "appro_multi.combinations" (float_of_int combinations);
    count "online_cp.admits" (float_of_int admits_n);
    time "online_cp.admit_ms" admits_s;
    count "online_cp.admitted" (c "online_cp.admitted");
    count "online_cp.rejected" rejected;
    count "online_cp.pruned.servers" (c "online_cp.pruned.servers");
    count "online_cp.dijkstras" (c "online_cp.dijkstras");
    count "network.allocations" (c "network.allocations");
    count "network.releases" (c "network.releases");
    count "network.epoch_bumps" (c "network.epoch_bumps");
    count "fault.victims" (c "fault.victims");
    count "repair.attempted" (c "repair.attempted");
    count "repair.dropped" (c "repair.dropped");
    time "repair.attempt_ms" repair_s;
    count "restoration.passes" (float_of_int passes_n);
    time "restoration.pass_ms" passes_s;
    time "restoration.pass_self_ms" (self_seconds hs "restoration.pass");
    count "restoration.attempted" (c "restoration.attempted");
    frac "restoration.useful_ratio"
      (ratio (c "restoration.restored") (c "restoration.attempted"));
    frac "restoration.restored_frac"
      (let dropped = c "repair.dropped" in
       if dropped = 0.0 then 1.0 else c "restoration.restored" /. dropped);
    { name = "restoration.solves_per_pass"; unit_ = "solves/pass"; value =
      ratio (float_of_int pass_solves) (float_of_int passes_n) };
    count "dynamic.events" (float_of_int events);
    time "dynamic.self_ms" dyn_self;
    frac "trace.overhead_frac" overhead;
    { name = "host.probe_ms"; unit_ = "ms"; value = probe_ms };
  ]

(* The ledgers a traced run must balance; messages for each that does
   not. [passes]: pass intervals the benchmark classified itself. *)
let ledgers ~passes =
  let c name = Obs.Counter.value (Obs.Counter.make name) in
  let bad = ref [] in
  let expect what a b =
    if a <> b then bad := Printf.sprintf "%s: %d <> %d" what a b :: !bad
  in
  expect "restoration.attempted = restored + failed"
    (c "restoration.attempted")
    (c "restoration.restored" + c "restoration.failed");
  expect "repair.attempted = sum of tiers" (c "repair.attempted")
    (c "repair.patched" + c "repair.migrated" + c "repair.readmitted"
   + c "repair.dropped");
  expect "classified passes = restoration.pass spans" passes
    (fst (at (histograms ()) "restoration.pass"));
  List.rev !bad
